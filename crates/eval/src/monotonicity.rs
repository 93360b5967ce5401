//! The Table 7 monotonicity audit: how many lattice predictions the
//! monotone-classifier assumption saves, and how often the inferred tags
//! are wrong.
//!
//! For every triangle of every explained pair, the lattice is explored
//! twice: once with monotone propagation (what CERTA does) and once
//! exhaustively (ground truth). Inferred tags that disagree with the
//! exhaustive tags are errors; the paper reports
//! `error rate = wrong inferences / saved predictions` per lattice.

use certa_core::{Dataset, LabeledPair, Matcher, Side};
use certa_explain::lattice::{explore, ExploreMode, Provenance};
use certa_explain::{find_triangles, psi_level_flips, CertaConfig};

/// Averaged per-lattice accounting for one dataset (one Table 7 row).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MonotonicityAudit {
    /// Lattice attribute count (constant per dataset side here, since both
    /// sides share arity in the benchmark schemas).
    pub attributes: usize,
    /// `2^l − 2` (predictions without the optimization, footnote 2).
    pub expected: f64,
    /// Mean predictions performed under monotone exploration.
    pub performed: f64,
    /// Mean predictions saved.
    pub saved: f64,
    /// Mean wrong-inference ratio: wrong inferred tags / saved predictions.
    pub error_rate: f64,
    /// Number of lattices audited.
    pub lattices: usize,
}

/// Audit every triangle lattice of the given pairs.
pub fn audit(
    matcher: &dyn Matcher,
    dataset: &Dataset,
    pairs: &[LabeledPair],
    cfg: &CertaConfig,
) -> MonotonicityAudit {
    let mut performed_sum = 0.0;
    let mut saved_sum = 0.0;
    let mut error_rate_sum = 0.0;
    let mut lattices = 0usize;
    let arity = dataset.left().schema().arity();

    for lp in pairs {
        let (u, v) = dataset.expect_pair(lp.pair);
        let y = matcher.predict(u, v);
        let (triangles, _) = find_triangles(matcher, dataset, u, v, y, cfg);
        for t in &triangles {
            let free_arity = match t.side {
                Side::Left => u.arity(),
                Side::Right => v.arity(),
            };
            let test = |masks: &[_]| psi_level_flips(matcher, u, v, t, y, masks);
            let mono = explore(free_arity, ExploreMode::Monotone, false, test);
            let truth = explore(free_arity, ExploreMode::Exhaustive, false, test);

            let stats = mono.stats();
            let mut wrong = 0usize;
            for mask in 1..=mono.full_mask() {
                if mono.provenance(mask) == Provenance::Inferred
                    && truth.provenance(mask) == Provenance::Tested
                    && mono.flipped(mask) != truth.flipped(mask)
                {
                    wrong += 1;
                }
            }
            let saved = stats.saved();
            performed_sum += stats.performed as f64;
            saved_sum += saved as f64;
            error_rate_sum += if saved > 0 {
                wrong as f64 / saved as f64
            } else {
                0.0
            };
            lattices += 1;
        }
    }

    let n = lattices.max(1) as f64;
    MonotonicityAudit {
        attributes: arity,
        expected: (1usize << arity) as f64 - 2.0,
        performed: performed_sum / n,
        saved: saved_sum / n,
        error_rate: error_rate_sum / n,
        lattices,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use certa_core::{FnMatcher, Record, RecordId, Schema, Table};
    use certa_models::RuleMatcher;

    fn dataset() -> Dataset {
        let ls = Schema::shared("U", ["a", "b", "c"]);
        let rs = Schema::shared("V", ["a", "b", "c"]);
        // Two families with fully disjoint vocabularies so the rule matcher
        // cleanly separates them.
        let mk = |i: u32| {
            if i < 5 {
                Record::new(
                    RecordId(i),
                    vec!["red one".into(), "red two".into(), "red three".into()],
                )
            } else {
                Record::new(
                    RecordId(i),
                    vec!["zzz qqq".into(), "www kkk".into(), "vvv ppp".into()],
                )
            }
        };
        let left = Table::from_records(ls, (0..10).map(mk).collect()).unwrap();
        let right = Table::from_records(rs, (0..10).map(mk).collect()).unwrap();
        Dataset::new(
            "toy",
            left,
            right,
            vec![LabeledPair::new(RecordId(0), RecordId(0), true)],
            vec![LabeledPair::new(RecordId(0), RecordId(0), true)],
        )
        .unwrap()
    }

    #[test]
    fn monotone_matcher_has_zero_error_rate() {
        // RuleMatcher is monotone by construction: inferences never wrong.
        let d = dataset();
        let m = RuleMatcher::uniform(3);
        let pairs = d.split(certa_core::Split::Test).to_vec();
        let cfg = CertaConfig {
            num_triangles: 6,
            use_augmentation: false,
            ..Default::default()
        };
        let a = audit(&m, &d, &pairs, &cfg);
        assert!(a.lattices > 0);
        assert_eq!(a.error_rate, 0.0, "{a:?}");
        assert_eq!(a.expected, 6.0);
        assert!(a.performed <= a.expected);
        assert!((a.performed + a.saved - a.expected).abs() < 1e-9);
    }

    #[test]
    fn non_monotone_matcher_shows_errors() {
        // Parity matcher: Match iff the total count of attributes containing
        // the marker token "z" (across both records) is even. Copying one
        // attribute from an all-z support flips the prediction; copying two
        // un-flips it — maximal non-monotonicity, so every pair-level
        // inference from a singleton flip is wrong.
        let ls = Schema::shared("U", ["a", "b", "c"]);
        let rs = Schema::shared("V", ["a", "b", "c"]);
        let plain = |i: u32| {
            Record::new(
                RecordId(i),
                vec![
                    format!("red{i} a"),
                    format!("red{i} b"),
                    format!("red{i} c"),
                ],
            )
        };
        let zrec = |i: u32| {
            Record::new(
                RecordId(i),
                vec!["z one".into(), "z two".into(), "z three".into()],
            )
        };
        let left = Table::from_records(
            ls,
            (0..10)
                .map(|i| if i < 5 { plain(i) } else { zrec(i) })
                .collect(),
        )
        .unwrap();
        let right = Table::from_records(
            rs,
            (0..10)
                .map(|i| if i < 5 { plain(i) } else { zrec(i) })
                .collect(),
        )
        .unwrap();
        let d = Dataset::new(
            "parity",
            left,
            right,
            vec![LabeledPair::new(RecordId(0), RecordId(0), true)],
            vec![LabeledPair::new(RecordId(0), RecordId(0), true)],
        )
        .unwrap();
        let m = FnMatcher::new("parity", |u: &Record, v: &Record| {
            let z = u
                .values()
                .iter()
                .chain(v.values())
                .filter(|val| val.contains('z'))
                .count();
            if z % 2 == 0 {
                0.9
            } else {
                0.1
            }
        });
        let pairs = d.split(certa_core::Split::Test).to_vec();
        let cfg = CertaConfig {
            num_triangles: 6,
            use_augmentation: false,
            ..Default::default()
        };
        let a = audit(&m, &d, &pairs, &cfg);
        assert!(a.lattices > 0, "{a:?}");
        assert!(a.saved > 0.0, "{a:?}");
        assert!(
            a.error_rate > 0.0,
            "inferred pair-flips must be wrong: {a:?}"
        );
    }

    #[test]
    fn audit_handles_empty_pairs() {
        let d = dataset();
        let m = RuleMatcher::uniform(3);
        let cfg = CertaConfig::default();
        let a = audit(&m, &d, &[], &cfg);
        assert_eq!(a.lattices, 0);
        assert_eq!(a.performed, 0.0);
    }
}
