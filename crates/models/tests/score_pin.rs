//! Score-digest pin for the text-similarity featurizers.
//!
//! Trains Ditto and DeepMatcher on a fixed smoke world and scores a fixed
//! pair set plus every lattice perturbation `ψ(u, w, A)` of two triangles
//! `(u, v, w)`. A fold of the scores' `f64::to_bits` must equal a recorded
//! constant, so the trained weights and every score are pinned bit for bit:
//! a kernel rewrite under the featurizers (trigram, token-set, Jaro-Winkler,
//! TF-IDF) cannot drift silently. If a change is *meant* to move scores,
//! re-record the constants and say why in the change log.
//!
//! The workload is scored both as one batch and pair by pair through
//! `Matcher::score`, and both must fold to the same constants: featurizing
//! a pair inside a large batch and on its own give the same bits.

use certa_core::{Dataset, Matcher, Record, Split};
use certa_datagen::{generate, DatasetId, Scale};
use certa_models::{train_model, ErModel, ModelKind, TrainConfig};

/// Labeled pairs scored directly: the test split, then the train split.
const PAIRS: usize = 16;
/// Leading test pairs that also get a full perturbation lattice.
const TRIANGLES: usize = 2;

/// FNV-1a over the little-endian bytes of each score's bit pattern.
fn digest(scores: &[f64]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for s in scores {
        for byte in s.to_bits().to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

fn world() -> Dataset {
    generate(DatasetId::IA, Scale::Smoke, 31)
}

/// The fixed pair set plus, for the first [`TRIANGLES`] pairs `(u, v)`, the
/// perturbed copy `ψ(u, w, A)` against `v` for every non-empty attribute
/// set `A`, with the support `w` a fixed other left record.
fn workload(d: &Dataset) -> Vec<(Record, Record)> {
    let test = d.split(Split::Test);
    let labeled: Vec<_> = test.iter().chain(d.split(Split::Train)).collect();
    assert!(labeled.len() >= PAIRS, "smoke world too small for the pin");
    let mut out: Vec<(Record, Record)> = Vec::new();
    for lp in labeled.iter().take(PAIRS) {
        let (u, v) = d.expect_pair(lp.pair);
        out.push((u.clone(), v.clone()));
    }
    let left = d.left().records();
    for (t, lp) in test.iter().take(TRIANGLES).enumerate() {
        let (u, v) = d.expect_pair(lp.pair);
        let w = left
            .iter()
            .rev()
            .skip(t)
            .find(|w| w.id() != u.id())
            .expect("a support record");
        let arity = u.arity();
        for mask in 1u32..(1 << arity) {
            let perturbed = u.with_values_merged(w, |i| mask & (1 << i) != 0);
            out.push((perturbed, v.clone()));
        }
    }
    out
}

/// The Ditto and DeepMatcher digests of the workload, each model trained
/// afresh and scored by `score`.
fn digests(score: impl Fn(&ErModel, &[(&Record, &Record)]) -> Vec<f64>) -> (u64, u64) {
    let d = world();
    let pairs = workload(&d);
    let arity = d.left().schema().arity();
    assert_eq!(pairs.len(), PAIRS + TRIANGLES * ((1 << arity) - 1));
    let refs: Vec<(&Record, &Record)> = pairs.iter().map(|(u, v)| (u, v)).collect();
    let digest_of = |kind| {
        let (model, _) = train_model(kind, &d, &TrainConfig::for_kind(kind));
        digest(&score(&model, &refs))
    };
    (
        digest_of(ModelKind::Ditto),
        digest_of(ModelKind::DeepMatcher),
    )
}

#[test]
fn ditto_and_deepmatcher_scores_are_pinned() {
    let (ditto, deepmatcher) = digests(|model, pairs| model.score_batch(pairs));
    assert_eq!(
        (ditto, deepmatcher),
        (DITTO_DIGEST, DEEPMATCHER_DIGEST),
        "score digests moved: {ditto:#018x} / {deepmatcher:#018x}"
    );
}

/// Pair by pair, every call featurizes a batch of two records; the scores
/// must still fold to the batch's digests.
#[test]
fn per_pair_scores_fold_to_the_pinned_digests() {
    let (ditto, deepmatcher) =
        digests(|model, pairs| pairs.iter().map(|(u, v)| model.score(u, v)).collect());
    assert_eq!(
        (ditto, deepmatcher),
        (DITTO_DIGEST, DEEPMATCHER_DIGEST),
        "per-pair score digests moved: {ditto:#018x} / {deepmatcher:#018x}"
    );
}

// Recorded with the string-set trigram kernel, before the packed-`u64`
// kernel replaced it; the swap left both unchanged.
const DITTO_DIGEST: u64 = 0xaadd_4620_9bef_bd07;
const DEEPMATCHER_DIGEST: u64 = 0x6f31_bfe0_8425_0c21;
