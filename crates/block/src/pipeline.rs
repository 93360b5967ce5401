//! The block → score → explain pipeline.
//!
//! A [`Blocker`] shrinks `|U| × |V|` to a candidate list;
//! [`score_candidates`] sends it through
//! [`certa_core::Matcher::score_batch`] in bounded chunks, optionally fanned
//! out over a work-stealing worker pool (wrap the model in
//! [`certa_models::CachingMatcher`] to get the sharded memoized path).
//! [`run_pipeline_on`] keeps the `top_k` best pairs, and the best few
//! optionally go through [`certa_explain::Certa::explain_batch`].
//! `certa-cluster` builds its match graph on the same scoring stage.
//!
//! Memory stays `O(candidates)`: every candidate's score is held until the
//! top-`k` selection, the same order as the candidate list itself.

use crate::{cross_product, reduction_ratio};
use certa_core::{Dataset, MatchLabel, Matcher, Record, RecordPair};
use certa_explain::{Certa, CertaExplanation};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Tuning knobs for [`run_pipeline_on`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PipelineConfig {
    /// Candidates scored per `score_batch` call.
    pub batch_size: usize,
    /// How many of the highest-scoring pairs to keep in the report.
    pub top_k: usize,
    /// How many of the top pairs to explain with CERTA (requires an
    /// explainer; `0` skips explanation entirely).
    pub explain_top: usize,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            batch_size: 4096,
            top_k: 100,
            explain_top: 0,
        }
    }
}

/// A candidate pair with its matcher score.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScoredEdge {
    /// The cross-side record pair.
    pub pair: RecordPair,
    /// The matcher's score for it, in `[0, 1]`.
    pub score: f64,
}

/// Score every candidate through [`Matcher::score_batch`] in chunks of
/// `batch_size`, using up to `workers` threads (`0` or `1` runs inline).
///
/// Chunks are claimed work-stealing style from an atomic counter and each
/// result lands in its chunk-index slot, so the returned edges are in
/// candidate order regardless of scheduling — with a deterministic matcher
/// the output is byte-identical across worker counts.
pub fn score_candidates(
    dataset: &Dataset,
    matcher: &dyn Matcher,
    candidates: &[RecordPair],
    batch_size: usize,
    workers: usize,
) -> Vec<ScoredEdge> {
    let batch = batch_size.max(1);
    let chunks: Vec<&[RecordPair]> = candidates.chunks(batch).collect();
    let score_chunk = |chunk: &[RecordPair]| -> Vec<f64> {
        let refs: Vec<(&Record, &Record)> = chunk
            .iter()
            .map(|p| {
                (
                    dataset.left().expect(p.left),
                    dataset.right().expect(p.right),
                )
            })
            .collect();
        matcher.score_batch(&refs)
    };

    let scored: Vec<Vec<f64>> = if workers <= 1 || chunks.len() <= 1 {
        chunks.iter().map(|c| score_chunk(c)).collect()
    } else {
        // Work-stealing over chunk indices: a slow chunk never stalls a
        // statically assigned partner, and slot-indexed writes keep the
        // assembly order equal to the input order.
        let next = AtomicUsize::new(0);
        let slots: Vec<OnceLock<Vec<f64>>> = (0..chunks.len()).map(|_| OnceLock::new()).collect();
        let workers = workers.min(chunks.len());
        std::thread::scope(|s| {
            for _ in 0..workers {
                s.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= chunks.len() {
                        break;
                    }
                    let value = score_chunk(chunks[i]);
                    slots[i]
                        .set(value)
                        .unwrap_or_else(|_| unreachable!("chunk {i} claimed once"));
                });
            }
        });
        slots
            .into_iter()
            .map(|slot| slot.into_inner().expect("every chunk scored"))
            .collect()
    };

    candidates
        .iter()
        .zip(scored.into_iter().flatten())
        .map(|(&pair, score)| ScoredEdge { pair, score })
        .collect()
}

/// What the pipeline did, end to end.
#[derive(Debug, Clone)]
pub struct PipelineReport {
    /// Name of the blocker that generated the candidates.
    pub blocker: String,
    /// `|U| × |V|`.
    pub cross_product: u64,
    /// Candidate pairs emitted by the blocker (every one is scored).
    pub candidates: usize,
    /// `cross_product / candidates`.
    pub reduction: f64,
    /// Pairs the matcher called Match (`score > 0.5`).
    pub predicted_matches: usize,
    /// The `top_k` highest-scoring pairs, score-descending (ties broken by
    /// `(left, right)` id order — the report is deterministic).
    pub top: Vec<ScoredEdge>,
    /// CERTA explanations for the first `explain_top` entries of `top`,
    /// in the same order.
    pub explanations: Vec<(RecordPair, CertaExplanation)>,
}

/// Deterministic top-`k` order: score descending, then pair ids ascending.
fn top_order(a: &ScoredEdge, b: &ScoredEdge) -> std::cmp::Ordering {
    b.score
        .total_cmp(&a.score)
        .then_with(|| (a.pair.left, a.pair.right).cmp(&(b.pair.left, b.pair.right)))
}

/// Run score → explain over a blocker's candidate list. Callers generate
/// the candidates themselves, so they can keep them for their own
/// accounting (e.g. `bench_block`'s recall gate).
pub fn run_pipeline_on(
    candidates: Vec<RecordPair>,
    blocker_name: String,
    dataset: &Dataset,
    matcher: &dyn Matcher,
    certa: Option<&Certa>,
    cfg: &PipelineConfig,
) -> PipelineReport {
    let cross = cross_product(dataset.left(), dataset.right());
    let mut top = score_candidates(dataset, matcher, &candidates, cfg.batch_size, 1);
    let predicted_matches = top
        .iter()
        .filter(|e| MatchLabel::from_score(e.score).is_match())
        .count();
    if cfg.top_k < top.len() {
        top.select_nth_unstable_by(cfg.top_k, top_order);
        top.truncate(cfg.top_k);
    }
    top.sort_unstable_by(top_order);

    let explanations = match certa {
        Some(certa) if cfg.explain_top > 0 && !top.is_empty() => {
            let chosen: Vec<RecordPair> =
                top.iter().take(cfg.explain_top).map(|e| e.pair).collect();
            let refs: Vec<(&Record, &Record)> = chosen
                .iter()
                .map(|p| {
                    (
                        dataset.left().expect(p.left),
                        dataset.right().expect(p.right),
                    )
                })
                .collect();
            chosen
                .iter()
                .copied()
                .zip(certa.explain_batch(matcher, dataset, &refs))
                .collect()
        }
        _ => Vec::new(),
    };

    PipelineReport {
        blocker: blocker_name,
        cross_product: cross,
        candidates: candidates.len(),
        reduction: reduction_ratio(cross, candidates.len()),
        predicted_matches,
        top,
        explanations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Blocker;
    use certa_core::{FnMatcher, Record, RecordId, Schema, Table};

    fn dataset() -> Dataset {
        let schema = Schema::shared("T", ["text"]);
        let mut left = Table::new(schema.clone());
        let mut right = Table::new(schema);
        let rows = [
            "apple iphone 12 pro max 256gb",
            "weber genesis gas grill",
            "lego millennium falcon 75257",
            "dyson v11 cordless vacuum",
        ];
        for (i, row) in rows.iter().enumerate() {
            left.insert(Record::new(RecordId(i as u32), vec![row.to_string()]))
                .expect("arity");
            // Right side: light corruption of the same rows.
            right
                .insert(Record::new(
                    RecordId(i as u32),
                    vec![row.replace("12", "twelve").replace("gas", "propane")],
                ))
                .expect("arity");
        }
        Dataset::new("toy", left, right, vec![], vec![]).expect("valid dataset")
    }

    /// `n × n` records whose texts match exactly on equal ids.
    fn item_dataset(n: u32) -> Dataset {
        let schema = Schema::shared("T", ["text"]);
        let mk = |i: u32| Record::new(RecordId(i), vec![format!("item {i}")]);
        let left = Table::from_records(schema.clone(), (0..n).map(mk).collect()).unwrap();
        let right = Table::from_records(schema, (0..n).map(mk).collect()).unwrap();
        Dataset::new("items", left, right, vec![], vec![]).unwrap()
    }

    fn id_matcher() -> impl Matcher {
        FnMatcher::new("id-eq", |u: &Record, v: &Record| {
            if u.values()[0] == v.values()[0] {
                0.9
            } else {
                0.2
            }
        })
    }

    fn all_pairs(n: u32) -> Vec<RecordPair> {
        let mut out = Vec::new();
        for l in 0..n {
            for r in 0..n {
                out.push(RecordPair::new(RecordId(l), RecordId(r)));
            }
        }
        out
    }

    /// Matcher: Jaccard of whole clean tokens — deterministic and cheap.
    fn matcher() -> FnMatcher<impl Fn(&Record, &Record) -> f64 + Send + Sync> {
        FnMatcher::new("token-jaccard", |u: &Record, v: &Record| {
            let a = crate::Shingle::Tokens.hash_set(u);
            let b = crate::Shingle::Tokens.hash_set(v);
            crate::jaccard_sorted(&a, &b)
        })
    }

    #[test]
    fn scores_preserve_candidate_order() {
        let d = item_dataset(4);
        let cands = all_pairs(4);
        let edges = score_candidates(&d, &id_matcher(), &cands, 3, 1);
        assert_eq!(edges.len(), cands.len());
        for (e, p) in edges.iter().zip(&cands) {
            assert_eq!(e.pair, *p);
            let expected = if p.left == p.right { 0.9 } else { 0.2 };
            assert_eq!(e.score, expected);
        }
    }

    #[test]
    fn worker_counts_never_change_output() {
        let d = item_dataset(9);
        let cands = all_pairs(9);
        let m = id_matcher();
        let one = score_candidates(&d, &m, &cands, 5, 1);
        for workers in [2, 4, 8] {
            let w = score_candidates(&d, &m, &cands, 5, workers);
            assert_eq!(one, w, "workers={workers} diverged");
        }
        // Batch size never changes the output either.
        assert_eq!(one, score_candidates(&d, &m, &cands, 1, 3));
        assert_eq!(one, score_candidates(&d, &m, &cands, 10_000, 3));
    }

    #[test]
    fn empty_candidates_score_to_empty() {
        let d = item_dataset(2);
        assert!(score_candidates(&d, &id_matcher(), &[], 8, 4).is_empty());
    }

    #[test]
    fn pipeline_scores_candidates_and_ranks_them() {
        let ds = dataset();
        let blocker = crate::MultiPass::standard();
        let report = run_pipeline_on(
            blocker.candidates(ds.left(), ds.right()),
            blocker.name(),
            &ds,
            &matcher(),
            None,
            &PipelineConfig {
                batch_size: 2,
                top_k: 3,
                explain_top: 0,
            },
        );
        assert_eq!(report.cross_product, 16);
        assert!(report.candidates >= 4, "all four duplicates must survive");
        assert!(report.top.len() <= 3);
        // Descending scores.
        for w in report.top.windows(2) {
            assert!(w[0].score >= w[1].score);
        }
        // The exact duplicate pair (lego, unchanged by corruption) tops.
        assert_eq!(
            report.top[0].pair,
            RecordPair::new(RecordId(2), RecordId(2))
        );
        assert!((report.top[0].score - 1.0).abs() < 1e-12);
        assert!(report.explanations.is_empty());
    }

    #[test]
    fn tiny_batches_match_one_big_batch() {
        let ds = dataset();
        // Quarter-step scores: many ties, and some land exactly on 0.5.
        let m = FnMatcher::new("quantized-jaccard", |u: &Record, v: &Record| {
            let a = crate::Shingle::Tokens.hash_set(u);
            let b = crate::Shingle::Tokens.hash_set(v);
            (crate::jaccard_sorted(&a, &b) * 4.0).round() / 4.0
        });
        let candidates = all_pairs(4);
        let n = candidates.len();
        // Naive reference: one `score` call per pair, a full sort, truncate.
        let mut reference: Vec<ScoredEdge> = candidates
            .iter()
            .map(|&pair| ScoredEdge {
                pair,
                score: m.score(ds.left().expect(pair.left), ds.right().expect(pair.right)),
            })
            .collect();
        let reference_matches = reference.iter().filter(|e| e.score > 0.5).count();
        assert!(
            reference.iter().any(|e| e.score == 0.5),
            "a score sits exactly on the threshold"
        );
        reference.sort_by(top_order);
        for batch_size in [1, 2, 100_000] {
            for top_k in [0, 1, n, n + 5] {
                let report = run_pipeline_on(
                    candidates.clone(),
                    "all-pairs".to_string(),
                    &ds,
                    &m,
                    None,
                    &PipelineConfig {
                        batch_size,
                        top_k,
                        explain_top: 0,
                    },
                );
                let expected = &reference[..top_k.min(n)];
                assert_eq!(report.top, expected, "batch={batch_size} top_k={top_k}");
                assert_eq!(report.predicted_matches, reference_matches);
            }
        }
    }

    #[test]
    fn empty_candidates_produce_empty_report() {
        let ds = dataset();
        let report = run_pipeline_on(
            Vec::new(),
            "none".to_string(),
            &ds,
            &matcher(),
            None,
            &PipelineConfig::default(),
        );
        assert_eq!(report.candidates, 0);
        assert_eq!(report.reduction, 16.0, "empty list reports full cross");
        assert!(report.top.is_empty());
        assert_eq!(report.predicted_matches, 0);
    }
}
