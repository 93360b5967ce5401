//! Scoring blocked candidates into a thresholded match graph.
//!
//! The input is the canonical candidate list a [`certa_block::Blocker`]
//! emits — sorted by `(left, right)`, deduplicated. [`score_candidates`]
//! (the scoring stage `certa-block`'s pipeline shares, re-exported here)
//! runs it through the matcher's batch path in bounded chunks, optionally
//! fanned out over a work-stealing worker pool; [`threshold_edges`] keeps
//! the edges at or above the match threshold. Both preserve input order, so
//! the edge list inherits the candidate list's canonical order and the
//! whole stage is byte-deterministic across worker counts.

pub use certa_block::{score_candidates, ScoredEdge};

/// Keep the edges whose score clears the match threshold (`score >= tau`),
/// preserving order. NaN scores (a matcher bug) never clear it.
pub fn threshold_edges(edges: &[ScoredEdge], tau: f64) -> Vec<ScoredEdge> {
    edges.iter().copied().filter(|e| e.score >= tau).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use certa_core::{RecordId, RecordPair};

    #[test]
    fn threshold_keeps_matches_only() {
        let edges: Vec<ScoredEdge> = (0..3u32)
            .flat_map(|l| (0..3u32).map(move |r| (l, r)))
            .map(|(l, r)| ScoredEdge {
                pair: RecordPair::new(RecordId(l), RecordId(r)),
                score: if l == r { 0.9 } else { 0.2 },
            })
            .collect();
        let kept = threshold_edges(&edges, 0.5);
        assert_eq!(kept.len(), 3);
        assert!(kept.iter().all(|e| e.pair.left == e.pair.right));
        assert!(threshold_edges(&edges, 0.95).is_empty());
        assert_eq!(threshold_edges(&edges, 0.0).len(), edges.len());
        let nan = [ScoredEdge {
            pair: RecordPair::new(RecordId(0), RecordId(0)),
            score: f64::NAN,
        }];
        assert!(threshold_edges(&nan, 0.0).is_empty(), "NaN never matches");
    }
}
