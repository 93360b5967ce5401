//! Property tests pinning the `certa-store` codec round-trip contract for
//! model artifacts: for arbitrary trained models, rule matchers, and
//! generated datasets, `decode(encode(x))` scores and featurizes
//! **bit-identically** to `x`.

use certa_core::{Matcher, Record, RecordId, Split};
use certa_datagen::{generate, DatasetId, Scale};
use certa_models::{train_model, ModelKind, RuleMatcher, TrainConfig};
use certa_store::{
    decode_dataset, decode_er_model, decode_rule_matcher, encode_dataset, encode_er_model,
    encode_er_model_with_memo, encode_rule_matcher,
};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig { cases: 6, ..ProptestConfig::default() })]

    /// Trained models of every family round-trip to bit-identical scorers
    /// and featurizers, for arbitrary dataset worlds.
    #[test]
    fn trained_models_roundtrip_bit_identically(
        seed in 0u64..1000,
        id_idx in 0usize..12,
        kind_idx in 0usize..3,
    ) {
        let id = DatasetId::all()[id_idx];
        let kind = ModelKind::all()[kind_idx];
        let d = generate(id, Scale::Smoke, seed);
        let (model, _) = train_model(kind, &d, &TrainConfig::for_kind(kind));
        let decoded = decode_er_model(&encode_er_model(&model)).unwrap();
        prop_assert_eq!(decoded.kind(), kind);
        for lp in d.split(Split::Test).iter().take(8) {
            let (u, v) = d.expect_pair(lp.pair);
            prop_assert_eq!(
                decoded.score(u, v).to_bits(),
                model.score(u, v).to_bits(),
                "{:?} score diverged on {:?}", kind, lp.pair
            );
            prop_assert_eq!(
                decoded.featurizer().features(u, v),
                model.featurizer().features(u, v),
                "{:?} featurization diverged", kind
            );
        }
        // Batch path too (the serving layer scores through score_batch).
        let pairs: Vec<(&Record, &Record)> = d
            .split(Split::Test)
            .iter()
            .take(8)
            .map(|lp| d.expect_pair(lp.pair))
            .collect();
        let a = model.score_batch(&pairs);
        let b = decoded.score_batch(&pairs);
        prop_assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            prop_assert_eq!(x.to_bits(), y.to_bits());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    /// Arbitrary valid rule matchers round-trip bit-identically.
    #[test]
    fn rule_matchers_roundtrip_bit_identically(
        weights in proptest::collection::vec(0.0f64..5.0, 1..6),
        first in 0.1f64..5.0,
        threshold in 0.0f64..1.0,
        sharpness in 0.5f64..20.0,
        seed in 0u64..100,
    ) {
        // `first` guarantees the not-all-zero constructor invariant.
        let mut weights = weights;
        weights[0] = first;
        let arity = weights.len();
        let m = RuleMatcher::with_weights(weights)
            .with_threshold(threshold)
            .with_sharpness(sharpness);
        let decoded = decode_rule_matcher(&encode_rule_matcher(&m)).unwrap();

        // Score arbitrary record pairs drawn from a generated world,
        // truncated/padded to the matcher's arity.
        let d = generate(DatasetId::BA, Scale::Smoke, seed);
        let take = |r: &Record| {
            let mut vals: Vec<String> =
                r.values().iter().take(arity).map(|v| v.to_string()).collect();
            while vals.len() < arity {
                vals.push(String::new());
            }
            Record::new(RecordId(r.id().0), vals)
        };
        for lp in d.split(Split::Test).iter().take(6) {
            let (u, v) = d.expect_pair(lp.pair);
            let (u, v) = (take(u), take(v));
            prop_assert_eq!(
                decoded.score(&u, &v).to_bits(),
                m.score(&u, &v).to_bits()
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    /// Generated datasets round-trip exactly: equal records (fresh interner
    /// handles, equal content), equal splits, equal content hashes — and a
    /// matcher trained on the decoded dataset equals one trained on the
    /// original bit for bit (training is a pure function of dataset
    /// content).
    #[test]
    fn datasets_roundtrip_through_the_interner(
        seed in 0u64..500,
        id_idx in 0usize..12,
    ) {
        let id = DatasetId::all()[id_idx];
        let d = generate(id, Scale::Smoke, seed);
        let decoded = decode_dataset(&encode_dataset(&d)).unwrap();
        prop_assert_eq!(d.name(), decoded.name());
        for (ta, tb) in [(d.left(), decoded.left()), (d.right(), decoded.right())] {
            prop_assert_eq!(ta.schema(), tb.schema());
            prop_assert_eq!(ta.records().len(), tb.records().len());
            for (ra, rb) in ta.records().iter().zip(tb.records()) {
                prop_assert_eq!(ra, rb);
                prop_assert_eq!(ra.content_hash(), rb.content_hash());
            }
        }
        for split in [Split::Train, Split::Test] {
            prop_assert_eq!(d.split(split), decoded.split(split));
        }
    }
}

/// Non-proptest heavyweight check: a model trained on a decoded dataset is
/// bit-identical to one trained on the original — the property that lets
/// the serve warm-start path train against a stored dataset when only the
/// model artifact is missing.
#[test]
fn training_on_a_decoded_dataset_is_bit_identical() {
    let d = generate(DatasetId::FZ, Scale::Smoke, 31);
    let decoded = decode_dataset(&encode_dataset(&d)).unwrap();
    let kind = ModelKind::DeepMatcher;
    let (original, ra) = train_model(kind, &d, &TrainConfig::for_kind(kind));
    let (retrained, rb) = train_model(kind, &decoded, &TrainConfig::for_kind(kind));
    assert_eq!(ra.test_f1.to_bits(), rb.test_f1.to_bits());
    for lp in d.split(Split::Test) {
        let (u, v) = d.expect_pair(lp.pair);
        assert_eq!(
            original.score(u, v).to_bits(),
            retrained.score(u, v).to_bits()
        );
    }
}

/// A memo seeded from a snapshot scores Ditto pairs bit-identically. The
/// snapshot carries the serialized segments only; the record-serialization
/// pieces are rebuilt on them the first time the decoded model needs them,
/// and must equal the pieces the warm model scored with.
#[test]
fn snapshot_seeded_memo_scores_ditto_bit_identically() {
    let d = generate(DatasetId::IA, Scale::Smoke, 31);
    let kind = ModelKind::Ditto;
    let (model, _) = train_model(kind, &d, &TrainConfig::for_kind(kind));
    let left = d.left().records();
    // Lattice-shaped traffic: perturbed copies of each test pair's left
    // record against its fixed right record.
    let mut copies: Vec<(Record, &Record)> = Vec::new();
    for (t, lp) in d.split(Split::Test).iter().take(4).enumerate() {
        let (u, v) = d.expect_pair(lp.pair);
        let w = &left[(t + 1) % left.len()];
        for mask in 0u32..(1 << u.arity()) {
            copies.push((u.with_values_merged(w, |i| mask & (1 << i) != 0), v));
        }
    }
    let pairs: Vec<(&Record, &Record)> = copies.iter().map(|(c, v)| (c, *v)).collect();
    let warm = model.score_batch(&pairs);

    let decoded = decode_er_model(&encode_er_model_with_memo(&model)).unwrap();
    assert!(decoded.memo_len() > 0, "segments seeded");
    assert!(
        decoded.memo_len() < model.memo_len(),
        "pieces are not persisted"
    );
    let batch = decoded.score_batch(&pairs);
    for (((u, v), w), b) in pairs.iter().zip(&warm).zip(&batch) {
        assert_eq!(b.to_bits(), w.to_bits(), "decoded batch diverged");
        assert_eq!(
            decoded.score(u, v).to_bits(),
            w.to_bits(),
            "decoded score diverged"
        );
    }
    assert!(
        decoded.memo_stats().misses > 0,
        "pieces rebuilt on first use"
    );
}
