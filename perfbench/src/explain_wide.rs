//! `explain-wide`: an offline closed loop of `Certa::explain_batch` over
//! distinct labeled pairs of IA (8 attributes) with the Ditto matcher.
//!
//! Each pass takes the next [`PASS_PAIRS`] pairs of a seeded permutation of
//! every labeled pair, starts from an empty score cache and an empty
//! feature memo, and explains them in one `explain_batch` call with two
//! workers. Passes run back to back until the run's time is spent.

use crate::common::{self, ExplainTally, ModelTally, Setup, WORLD_SEED};
use crate::report::Outcome;
use crate::rng::Rng;
use crate::stats::share;
use crate::timing::TimingMatcher;
use crate::trace::Tracer;
use certa_core::{BoxedMatcher, Dataset, LabeledPair, Record, Split};
use certa_datagen::{generate, DatasetId, Scale};
use certa_explain::{Certa, CertaConfig, CertaExplanation};
use certa_models::{train_model, CachingMatcher, ErModel, ModelKind, TrainConfig};
use certa_serve::Json;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Pairs explained per `explain_batch` call.
pub const PASS_PAIRS: usize = 16;
/// Worker threads of `explain_batch`.
const WORKERS: usize = 2;
/// CERTA triangle budget τ.
const TAU: usize = 100;
/// Pairs re-explained sequentially to check the batch output.
const CHECK_SAMPLE: usize = 3;
/// Set-ups timed per run; `setup_s` is their median.
const SETUPS: usize = 15;

/// The seeded input of one run: the order pairs are explained in, and the
/// positions whose explanations are re-checked sequentially.
#[derive(Debug, PartialEq, Eq)]
pub struct Plan {
    /// Indices into the labeled-pair list, in explanation order; long
    /// enough for any run (consecutive permutations of every pair).
    pub order: Vec<usize>,
    /// Positions in `order` (within the first pass) re-checked.
    pub sample: Vec<usize>,
}

pub fn plan(seed: u64, n_pairs: usize, passes: usize) -> Plan {
    let mut rng = Rng::new(seed ^ 0xE4_91A1);
    let mut order = Vec::with_capacity(passes * PASS_PAIRS);
    while order.len() < passes * PASS_PAIRS {
        let mut perm: Vec<usize> = (0..n_pairs).collect();
        rng.shuffle(&mut perm);
        order.extend(perm);
    }
    let mut positions: Vec<usize> = (0..PASS_PAIRS.min(order.len())).collect();
    rng.shuffle(&mut positions);
    positions.truncate(CHECK_SAMPLE);
    positions.sort_unstable();
    Plan {
        order,
        sample: positions,
    }
}

struct World {
    dataset: Dataset,
    model: ErModel,
}

fn setup() -> (World, Setup) {
    common::timed_setups(SETUPS, || {
        let t = Instant::now();
        let dataset = generate(DatasetId::IA, Scale::Default, WORLD_SEED);
        let generate_s = t.elapsed().as_secs_f64();
        let t = Instant::now();
        let (model, _) = train_model(
            ModelKind::Ditto,
            &dataset,
            &TrainConfig::for_kind(ModelKind::Ditto),
        );
        let train_s = t.elapsed().as_secs_f64();
        (World { dataset, model }, generate_s, train_s)
    })
}

fn labeled_pairs(dataset: &Dataset) -> Vec<LabeledPair> {
    let mut pairs: Vec<LabeledPair> = dataset
        .split(Split::Train)
        .iter()
        .chain(dataset.split(Split::Test))
        .copied()
        .collect();
    pairs.sort_by_key(|lp| (lp.pair.left.0, lp.pair.right.0));
    pairs.dedup_by_key(|lp| lp.pair);
    pairs
}

/// One timed pass's measurements.
struct Pass {
    explain_ms: f64,
    pairs: usize,
    explanations: Vec<CertaExplanation>,
}

/// The matcher stack of one pass: a fresh memo under a fresh cache, with
/// the timing decorator between them when tracing.
fn fresh_stack(
    model: &ErModel,
    tracer: &Arc<Tracer>,
) -> (Arc<ErModel>, Arc<TimingMatcher>, Arc<CachingMatcher>) {
    let model = Arc::new(model.clone().with_feature_memo(true));
    let timed = TimingMatcher::new(Arc::clone(&model) as BoxedMatcher, Arc::clone(tracer));
    let below_cache: BoxedMatcher = if tracer.enabled() {
        Arc::clone(&timed) as BoxedMatcher
    } else {
        Arc::clone(&model) as BoxedMatcher
    };
    (model, timed, CachingMatcher::new(below_cache))
}

/// Explain every pair per thread with `Certa::explain` (workers = 1, the
/// work `explain_batch` does per pair), each pair its own span group.
fn explain_traced(
    tracer: &Tracer,
    certa: &Certa,
    matcher: &CachingMatcher,
    dataset: &Dataset,
    refs: &[(&Record, &Record)],
    first_group: u64,
) -> Vec<CertaExplanation> {
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<CertaExplanation>>> =
        refs.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|s| {
        for _ in 0..WORKERS.min(refs.len()) {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(&(u, v)) = refs.get(i) else { break };
                let e = common::explain_pair_traced(
                    tracer,
                    certa,
                    matcher,
                    dataset,
                    u,
                    v,
                    first_group + i as u64,
                );
                *slots[i].lock().expect("slot poisoned") = Some(e);
            });
        }
    });
    slots
        .into_iter()
        .map(|s| {
            s.into_inner()
                .expect("slot poisoned")
                .expect("every pair explained")
        })
        .collect()
}

/// Run passes until `seconds` are spent (at least one).
fn run_passes(
    world: &World,
    pairs: &[LabeledPair],
    plan: &Plan,
    seconds: f64,
    tracer: &Arc<Tracer>,
    models: &mut ModelTally,
) -> Vec<Pass> {
    let certa = Certa::new(
        CertaConfig::default()
            .with_triangles(TAU)
            .with_seed(WORLD_SEED)
            .with_workers(if tracer.enabled() { 1 } else { WORKERS }),
    );
    let budget = Duration::from_secs_f64(seconds);
    let mut spent = Duration::ZERO;
    let mut passes = Vec::new();
    for (k, chunk) in plan.order.chunks(PASS_PAIRS).enumerate() {
        if k > 0 && spent >= budget {
            break;
        }
        let refs: Vec<(&Record, &Record)> = chunk
            .iter()
            .map(|&i| world.dataset.expect_pair(pairs[i].pair))
            .collect();
        let (model, timed, cache) = fresh_stack(&world.model, tracer);
        let group = (k * PASS_PAIRS) as u64 + 1;
        let t = Instant::now();
        let explanations = if tracer.enabled() {
            explain_traced(tracer, &certa, &cache, &world.dataset, &refs, group)
        } else {
            certa.explain_batch(&cache, &world.dataset, &refs)
        };
        let explain_ms = t.elapsed().as_secs_f64() * 1e3;
        spent += Duration::from_secs_f64(explain_ms / 1e3);
        models.add(&model, &cache);
        if tracer.enabled() {
            models.add_counts(timed.counts());
        }
        passes.push(Pass {
            explain_ms,
            pairs: refs.len(),
            explanations,
        });
    }
    passes
}

pub fn run(seed: u64, seconds: f64, traced: bool) -> Outcome {
    let mut out = Outcome::default();
    let (world, setup) = setup();
    let pairs = labeled_pairs(&world.dataset);
    // Enough pair slots for passes far beyond any run length; the loop
    // stops on time, not on the plan.
    let plan = plan(seed, pairs.len(), 64);

    let untraced = Tracer::new(false);
    let mut models = ModelTally::default();
    let phase_seconds = if traced { seconds / 2.0 } else { seconds };
    let mut passes = run_passes(&world, &pairs, &plan, phase_seconds, &untraced, &mut models);
    let tracer = Tracer::new(true);
    if traced {
        let traced_models = {
            let mut m = ModelTally::default();
            let traced_passes = run_passes(&world, &pairs, &plan, phase_seconds, &tracer, &mut m);
            let rate = |ps: &[Pass]| {
                ps.iter().map(|p| p.pairs).sum::<usize>() as f64
                    / ps.iter().map(|p| p.explain_ms / 1e3).sum::<f64>()
            };
            common::overhead(&mut out, rate(&passes), rate(&traced_passes));
            passes = traced_passes;
            m
        };
        models = traced_models;
    }

    // ---- Correctness: sampled pairs equal sequential explain (workers = 1).
    let sequential = Certa::new(
        CertaConfig::default()
            .with_triangles(TAU)
            .with_seed(WORLD_SEED)
            .with_workers(1),
    );
    let mut mismatches = 0u64;
    for &pos in &plan.sample {
        let (u, v) = world.dataset.expect_pair(pairs[plan.order[pos]].pair);
        let (_, _, cache) = fresh_stack(&world.model, &untraced);
        let expected = sequential.explain(&cache, &world.dataset, u, v);
        if passes[0].explanations[pos] != expected {
            mismatches += 1;
        }
    }
    out.check(
        "explain_batch equals sequential explain on sampled pairs",
        mismatches == 0,
        format!("{} sampled, {mismatches} differ", plan.sample.len()),
    );

    // ---- End-to-end metrics.
    let n_pairs: usize = passes.iter().map(|p| p.pairs).sum();
    let explain_ms: Vec<f64> = passes.iter().map(|p| p.explain_ms).collect();
    let wall_s: f64 = explain_ms.iter().sum::<f64>() / 1e3;
    out.attempted = n_pairs as u64;
    out.failed = mismatches;
    setup.record(&mut out);
    out.e2e.insert("pairs_per_s", n_pairs as f64 / wall_s);
    out.e2e
        .insert("records_per_s", 2.0 * n_pairs as f64 / wall_s);
    out.e2e.insert("capacity_rps", passes.len() as f64 / wall_s);

    // ---- Workload properties and per-layer numbers.
    let mut tally = ExplainTally::default();
    for p in &passes {
        for e in &p.explanations {
            tally.add(e);
        }
    }
    tally.record(&mut out);
    models.record(&mut out);
    if traced {
        let spans = tracer.spans();
        common::record_explain_spans(&mut out, &spans);
        out.spans = spans;
    }
    out.layer.insert("explain.requests", n_pairs as f64);
    out.report.push((
        "workload",
        Json::obj([
            (
                "world",
                Json::str(format!("IA/default seed {WORLD_SEED}, Ditto")),
            ),
            ("labeled_pairs", Json::num(pairs.len() as f64)),
            ("pairs_per_call", Json::num(PASS_PAIRS as f64)),
            ("explain_batch_workers", Json::num(WORKERS as f64)),
            ("tau", Json::num(TAU as f64)),
            ("passes", Json::num(passes.len() as f64)),
            ("pairs_explained", Json::num(n_pairs as f64)),
            ("explain_calls", Json::num(explain_ms.len() as f64)),
            (
                "distinct_pair_share",
                Json::num(share(
                    {
                        let mut seen: Vec<usize> = plan.order[..n_pairs].to_vec();
                        seen.sort_unstable();
                        seen.dedup();
                        seen.len() as u64
                    },
                    n_pairs as u64,
                )),
            ),
        ]),
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_plan() {
        assert_eq!(plan(5, 64, 4), plan(5, 64, 4));
        assert_ne!(plan(5, 64, 4).order, plan(6, 64, 4).order);
        let p = plan(5, 64, 4);
        assert!(p.order.len() >= 4 * PASS_PAIRS);
        // Each pass of the first permutation holds distinct pairs.
        let mut first: Vec<usize> = p.order[..64].to_vec();
        first.sort_unstable();
        assert_eq!(first, (0..64).collect::<Vec<_>>());
        assert_eq!(p.sample.len(), CHECK_SAMPLE);
        assert!(p.sample.iter().all(|&s| s < PASS_PAIRS));
    }
}
