//! Property tests pinning the SoA batch scoring path: `score_batch`
//! (one view per distinct record → per-pair combine into a contiguous
//! feature-major batch → one-sweep standardize → SoA forward pass) must be
//! **bit-for-bit identical** to scoring each pair alone through `score`, on
//! arbitrary record contents and batch sizes — including batches whose
//! pairs share records, the shape a lattice level has.

use certa_core::{Matcher, Record, RecordId};
use certa_datagen::{generate, DatasetId, Scale};
use certa_models::{train_model, ModelKind, TrainConfig};
use proptest::prelude::*;
use std::sync::OnceLock;

/// Train one matcher per family once — training is far too slow to repeat
/// per proptest case, and the batch ≡ single contract must hold for any
/// fixed trained model.
fn models() -> &'static Vec<certa_models::ErModel> {
    static MODELS: OnceLock<Vec<certa_models::ErModel>> = OnceLock::new();
    MODELS.get_or_init(|| {
        let d = generate(DatasetId::AB, Scale::Smoke, 17);
        [ModelKind::DeepEr, ModelKind::DeepMatcher, ModelKind::Ditto]
            .into_iter()
            .map(|kind| train_model(kind, &d, &TrainConfig::for_kind(kind)).0)
            .collect()
    })
}

/// Attribute-value alphabet: tokens, numbers with decimal points,
/// punctuation, and blanks — the shapes the featurizers tokenize.
const VALUE: &str = "[a-zA-Z0-9 ,.!]{0,20}";

const ARITY: usize = 3;

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn score_batch_bit_identical_to_score(
        lefts in proptest::collection::vec(proptest::collection::vec(VALUE, ARITY), 1..10),
        rights in proptest::collection::vec(proptest::collection::vec(VALUE, ARITY), 1..10),
    ) {
        let us: Vec<Record> = lefts
            .iter()
            .enumerate()
            .map(|(i, vals)| Record::new(RecordId(i as u32), vals.clone()))
            .collect();
        let vs: Vec<Record> = rights
            .iter()
            .enumerate()
            .map(|(i, vals)| Record::new(RecordId(1000 + i as u32), vals.clone()))
            .collect();
        // Cross product: exercises repeated records inside one batch too.
        let pairs: Vec<(&Record, &Record)> =
            us.iter().flat_map(|u| vs.iter().map(move |v| (u, v))).collect();
        assert_batch_matches_single(&pairs)?;
        prop_assert!(models()[0].score_batch(&[]).is_empty());
    }
}

/// Every batch score equals the pair's own `score`, bit for bit, for every
/// family.
fn assert_batch_matches_single(pairs: &[(&Record, &Record)]) -> Result<(), TestCaseError> {
    for model in models() {
        let batch = model.score_batch(pairs);
        prop_assert_eq!(batch.len(), pairs.len());
        for ((u, v), p) in pairs.iter().zip(&batch) {
            prop_assert_eq!(
                p.to_bits(),
                model.score(u, v).to_bits(),
                "{}: batch diverged from single scoring",
                model.name()
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Batches that share records: perturbed copies of one record against
    /// a fixed pivot (a lattice level), repeated pairs, the pivot paired
    /// with itself, and content-equal records under different ids.
    #[test]
    fn shared_record_batches_bit_identical_to_score(
        free in proptest::collection::vec(VALUE, ARITY),
        support in proptest::collection::vec(VALUE, ARITY),
        pivot in proptest::collection::vec(VALUE, ARITY),
        masks in proptest::collection::vec(0u32..(1 << ARITY), 1..12),
        pivot_left in any::<bool>(),
    ) {
        let free = Record::new(RecordId(1), free);
        let support = Record::new(RecordId(2), support);
        let pivot = Record::new(RecordId(3), pivot);
        let twin = Record::new(RecordId(4), pivot.values().iter().map(|v| v.to_string()).collect());
        let copies: Vec<Record> = masks
            .iter()
            .map(|&m| free.with_values_merged(&support, |i| m & (1 << i) != 0))
            .collect();
        let mut pairs: Vec<(&Record, &Record)> = copies
            .iter()
            .map(|c| if pivot_left { (&pivot, c) } else { (c, &pivot) })
            .collect();
        // Duplicates of the first pair, the pivot against itself and its
        // content twin, and one copy on both sides.
        pairs.push(pairs[0]);
        pairs.push((&pivot, &pivot));
        pairs.push((&twin, &pivot));
        pairs.push((&copies[0], &copies[0]));
        pairs.push(pairs[0]);
        assert_batch_matches_single(&pairs)?;
        // The same pairs one at a time, and reversed, through the batch path.
        assert_batch_matches_single(&pairs[..1])?;
        let reversed: Vec<(&Record, &Record)> = pairs.iter().rev().copied().collect();
        assert_batch_matches_single(&reversed)?;
    }
}
