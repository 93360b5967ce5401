//! Property tests for the lattice explorer (§4):
//!
//! 1. For **monotone** matchers (upward-closed flip sets), monotone and
//!    exhaustive exploration agree on every proper subset's tag — and hence
//!    find the same minimal flipping masks — while monotone performs no more
//!    model calls.
//! 2. `performed ≤ expected` holds for *arbitrary* (even non-monotone)
//!    oracles under the footnote-2 budget (full set untested).

use certa_explain::lattice::{explore, AttrMask, ExploreMode};
use proptest::prelude::*;

/// Upward-closed oracle: flip iff the mask contains one of the generators
/// (`g \ mask = ∅`).
fn monotone_flip(generators: &[AttrMask], mask: AttrMask) -> bool {
    generators.iter().any(|&g| g & !mask == 0)
}

proptest! {
    #[test]
    fn monotone_and_exhaustive_find_the_same_minimal_masks(
        arity in 1usize..7,
        raw_generators in proptest::collection::vec(1u32..64, 0..4),
    ) {
        let full: AttrMask = (1u32 << arity) - 1;
        let generators: Vec<AttrMask> = raw_generators
            .iter()
            .map(|g| g & full)
            .filter(|&g| g != 0)
            .collect();
        let oracle = |level: &[AttrMask]| -> Vec<bool> {
            level.iter().map(|&m| monotone_flip(&generators, m)).collect()
        };
        let monotone = explore(arity, ExploreMode::Monotone, false, oracle);
        let exhaustive = explore(arity, ExploreMode::Exhaustive, false, oracle);
        prop_assert_eq!(
            monotone.minimal_flipping_antichain(),
            exhaustive.minimal_flipping_antichain()
        );
        // Inference is *exact* for monotone matchers: every proper subset's
        // tag agrees with ground truth (the full set is excluded — footnote
        // 2 leaves it untested in exhaustive mode).
        for mask in 1..full {
            prop_assert_eq!(
                monotone.flipped(mask),
                exhaustive.flipped(mask),
                "mask {:b} diverged",
                mask
            );
        }
        let (mono_stats, exh_stats) = (monotone.stats(), exhaustive.stats());
        prop_assert!(mono_stats.performed <= exh_stats.performed);
        prop_assert_eq!(exh_stats.inferred, 0);
    }

    #[test]
    fn performed_never_exceeds_expected(
        arity in 1usize..7,
        truth in proptest::collection::vec(any::<bool>(), 64),
    ) {
        // Arbitrary, generally non-monotone oracle.
        let oracle = |level: &[AttrMask]| -> Vec<bool> {
            level.iter().map(|&m| truth[(m as usize) % truth.len()]).collect()
        };
        for mode in [ExploreMode::Monotone, ExploreMode::Exhaustive] {
            let stats = explore(arity, mode, false, oracle).stats();
            prop_assert!(
                stats.performed <= stats.expected,
                "{:?}: performed {} > expected {}",
                mode,
                stats.performed,
                stats.expected
            );
            // Every non-∅ node is accounted for exactly once.
            prop_assert_eq!(
                stats.performed + stats.inferred + stats.skipped,
                stats.expected + 1,
                "{:?} accounting", mode
            );
            prop_assert_eq!(stats.saved(), stats.expected - stats.performed);
        }
    }
}
