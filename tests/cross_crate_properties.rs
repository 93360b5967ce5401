//! Property-based tests spanning crate boundaries: invariants that must
//! hold for *any* seed, dataset, and matcher configuration.

use certa_repro::core::{MatchLabel, Matcher, Split};
use certa_repro::datagen::{generate, DatasetId, Scale};
use certa_repro::explain::lattice::{explore, mask_len, ExploreMode};
use certa_repro::explain::perturb::perturb;
use certa_repro::explain::{Certa, CertaConfig};
use certa_repro::models::RuleMatcher;
use certa_repro::store::{
    decode_dataset, decode_rule_matcher, encode_dataset, encode_rule_matcher,
};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    /// For any monotone oracle, monotone exploration and exhaustive
    /// exploration agree on every tag (the §4 assumption is *exact* when
    /// the classifier really is monotone).
    #[test]
    fn monotone_exploration_is_lossless_for_monotone_oracles(
        arity in 2usize..7,
        threshold in 1usize..4,
    ) {
        let oracle = |level: &[u32]| -> Vec<bool> {
            level.iter().map(|&m| mask_len(m) >= threshold).collect()
        };
        let mono = explore(arity, ExploreMode::Monotone, false, oracle);
        let full = explore(arity, ExploreMode::Exhaustive, false, oracle);
        for mask in 1..mono.full_mask() { // full set untested in exhaustive mode
            prop_assert_eq!(
                mono.flipped(mask),
                full.flipped(mask),
                "mask {:b} disagrees", mask
            );
        }
        // And the shortcut never performs MORE calls.
        prop_assert!(mono.stats().performed <= full.stats().performed);
    }

    /// ψ preserves arity and ids, and ψ(u, w, full) == w's values.
    #[test]
    fn perturbation_invariants(
        seed in 0u64..500,
        mask in 1u32..15,
    ) {
        let d = generate(DatasetId::DA, Scale::Smoke, seed);
        let u = &d.left().records()[0];
        let w = &d.left().records()[1];
        let p = perturb(u, w, mask);
        prop_assert_eq!(p.arity(), u.arity());
        prop_assert_eq!(p.id(), u.id());
        for i in 0..u.arity() {
            let expected = if mask & (1 << i) != 0 { w.values()[i].clone() } else { u.values()[i].clone() };
            prop_assert_eq!(&p.values()[i], &expected);
        }
        let full = perturb(u, w, (1 << u.arity()) - 1);
        prop_assert_eq!(full.values(), w.values());
    }

    /// CERTA saliency scores are probabilities, and the counterfactual's
    /// sufficiency is consistent with its examples for any dataset seed.
    #[test]
    fn certa_outputs_are_probabilistically_sane(seed in 0u64..200) {
        let d = generate(DatasetId::FZ, Scale::Smoke, seed);
        let m = RuleMatcher::uniform(6).with_threshold(0.6);
        let lp = d.split(Split::Test)[0];
        let (u, v) = d.expect_pair(lp.pair);
        let certa = Certa::new(CertaConfig {
            num_triangles: 8,
            ..Default::default()
        });
        let exp = certa.explain(&m, &d, u, v);
        for (_, s) in exp.saliency.iter() {
            prop_assert!((0.0..=1.0).contains(&s), "saliency {s}");
        }
        prop_assert!((0.0..=1.0).contains(&exp.counterfactual.sufficiency));
        if exp.counterfactual.found() {
            prop_assert!(!exp.counterfactual.golden_set.is_empty());
            let y = m.predict(u, v);
            for ex in &exp.counterfactual.examples {
                prop_assert_ne!(MatchLabel::from_score(ex.score), y);
            }
        }
        // Lattice accounting is self-consistent.
        for ls in &exp.lattice_stats {
            prop_assert_eq!(
                ls.performed + ls.inferred + ls.skipped,
                ls.expected + 1, // +1: the full set is outside the footnote-2 budget
            );
        }
    }

    /// Generated datasets are structurally valid for any seed: ids resolve,
    /// labels are consistent, both splits non-empty.
    #[test]
    fn generated_datasets_are_well_formed(
        seed in 0u64..300,
        id_idx in 0usize..12,
    ) {
        let id = DatasetId::all()[id_idx];
        let d = generate(id, Scale::Smoke, seed);
        prop_assert!(!d.left().is_empty());
        prop_assert!(!d.right().is_empty());
        for split in [Split::Train, Split::Test] {
            prop_assert!(!d.split(split).is_empty());
            for lp in d.split(split) {
                let (u, v) = d.expect_pair(lp.pair);
                prop_assert_eq!(u.arity(), d.left().schema().arity());
                prop_assert_eq!(v.arity(), d.right().schema().arity());
            }
        }
        prop_assert!(d.match_count() >= 8);
    }

    /// Persistence is transparent end to end: a CERTA explanation computed
    /// from store-round-tripped artifacts (dataset *and* matcher decoded
    /// from their encoded forms) equals the explanation computed from the
    /// in-memory originals, for any seed and dataset.
    #[test]
    fn explanations_survive_the_store_roundtrip(
        seed in 0u64..200,
        id_idx in 0usize..12,
        tau in 4usize..12,
    ) {
        let id = DatasetId::all()[id_idx];
        let d = generate(id, Scale::Smoke, seed);
        let arity = d.left().schema().arity();
        let m = RuleMatcher::uniform(arity).with_threshold(0.6);

        let d2 = decode_dataset(&encode_dataset(&d)).unwrap();
        let m2 = decode_rule_matcher(&encode_rule_matcher(&m)).unwrap();

        let lp = d.split(Split::Test)[0];
        let (u, v) = d.expect_pair(lp.pair);
        let (u2, v2) = d2.expect_pair(lp.pair);
        prop_assert_eq!(m2.score(u2, v2).to_bits(), m.score(u, v).to_bits());

        let certa = Certa::new(CertaConfig {
            num_triangles: tau,
            ..Default::default()
        });
        let original = certa.explain(&m, &d, u, v);
        let decoded = certa.explain(&m2, &d2, u2, v2);
        prop_assert_eq!(
            format!("{original:?}"),
            format!("{decoded:?}"),
            "explanation diverged after the store round-trip"
        );
    }

    /// The rule matcher is score-monotone under attribute copying: making
    /// `u` agree with `v` on more attributes never lowers the score.
    #[test]
    fn rule_matcher_monotone_under_copying(seed in 0u64..300) {
        let d = generate(DatasetId::BA, Scale::Smoke, seed);
        let m = RuleMatcher::uniform(4);
        let u = &d.left().records()[0];
        let v = &d.right().records()[0];
        let mut prev = m.score(u, v);
        let mut current = u.clone();
        for i in 0..4u16 {
            // COW merge: attribute handles are copied, never re-allocated.
            current = current.with_values_merged(v, |j| j <= i as usize);
            let s = m.score(&current, v);
            prop_assert!(s >= prev - 1e-12, "copying attr {i} lowered {prev} → {s}");
            prev = s;
        }
    }
}
