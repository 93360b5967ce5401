//! `resolve`: block → score → threshold → cluster over DS at paper scale
//! (2,614 × 6,000 records) with the DeepMatcher model.
//!
//! Every pass starts from a fresh feature memo, as a one-shot resolve
//! would, and runs the standard multi-pass blocker, `score_candidates`
//! (two workers, batches of 4096), `threshold_edges` and match-merge
//! clustering. No score cache sits in the path.

use crate::common::{timed_setups, ModelTally, Setup};
use crate::report::{num, Outcome};
use crate::stats::{mean, median};
use crate::timing::TimingMatcher;
use crate::trace::{totals_by_name, Tracer};
use certa_block::{cross_product, reduction_ratio, Blocker, MultiPass};
use certa_cluster::{
    pairwise_prf, score_candidates, threshold_edges, truth_partition, Clusterer, MatchMerge,
    Partition,
};
use certa_core::{BoxedMatcher, Dataset, Matcher, RecordPair, Split};
use certa_datagen::{generate, DatasetId, Scale};
use certa_models::{train_model, ErModel, ModelKind, TrainConfig};
use certa_serve::Json;
use std::collections::HashSet;
use std::sync::Arc;
use std::time::{Duration, Instant};

const THRESHOLD: f64 = 0.5;
const BATCH: usize = 4096;
const WORKERS: usize = 2;
/// Set-ups timed per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Quality floors, the ones `bench_block` and `bench_cluster` enforce.
const MIN_RECALL: f64 = 0.95;
const MIN_F1: f64 = 0.95;

struct World {
    dataset: Dataset,
    model: ErModel,
}

/// `resolve` has no traffic to draw: its input is the world itself, so the
/// seed generates the dataset (and the model trained on it).
fn setup(seed: u64) -> (World, Setup) {
    timed_setups(SETUPS, || {
        let t = Instant::now();
        let dataset = generate(DatasetId::DS, Scale::Paper, seed);
        let generate_s = t.elapsed().as_secs_f64();
        let t = Instant::now();
        let (model, _) = train_model(
            ModelKind::DeepMatcher,
            &dataset,
            &TrainConfig::for_kind(ModelKind::DeepMatcher),
        );
        (
            World { dataset, model },
            generate_s,
            t.elapsed().as_secs_f64(),
        )
    })
}

struct Pass {
    block_s: f64,
    score_s: f64,
    threshold_s: f64,
    cluster_s: f64,
    candidates: Vec<RecordPair>,
    edges: usize,
    partition: Partition,
}

impl Pass {
    fn wall_s(&self) -> f64 {
        self.block_s + self.score_s + self.threshold_s + self.cluster_s
    }
}

fn one_pass(world: &World, tracer: &Arc<Tracer>, group: u64, models: &mut ModelTally) -> Pass {
    let model = Arc::new(world.model.clone().with_feature_memo(true));
    let timed = TimingMatcher::new(Arc::clone(&model) as BoxedMatcher, Arc::clone(tracer));
    let matcher: &dyn Matcher = if tracer.enabled() { &*timed } else { &*model };
    let blocker = MultiPass::standard();
    let ds = &world.dataset;

    let _pass = tracer.span("resolve.pass", Some(group));
    let stage = |name: &'static str| tracer.span(name, None);
    let t = Instant::now();
    let candidates = {
        let _s = stage("block.candidates");
        blocker.candidates(ds.left(), ds.right())
    };
    let block_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let scored = {
        let _s = stage("cluster.score");
        let _ambient = tracer.ambient();
        score_candidates(ds, matcher, &candidates, BATCH, WORKERS)
    };
    let score_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let edges = {
        let _s = stage("cluster.threshold");
        threshold_edges(&scored, THRESHOLD)
    };
    let threshold_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let partition = {
        let _s = stage("cluster.cluster");
        MatchMerge.cluster(ds, matcher, &edges, THRESHOLD)
    };
    let cluster_s = t.elapsed().as_secs_f64();
    models.add_model(&model);
    if tracer.enabled() {
        models.add_counts(timed.counts());
    }
    Pass {
        block_s,
        score_s,
        threshold_s,
        cluster_s,
        candidates,
        edges: edges.len(),
        partition,
    }
}

fn run_passes(
    world: &World,
    seconds: f64,
    tracer: &Arc<Tracer>,
    models: &mut ModelTally,
) -> Vec<Pass> {
    let budget = Duration::from_secs_f64(seconds);
    let mut spent = Duration::ZERO;
    let mut passes: Vec<Pass> = Vec::new();
    while passes.is_empty() || spent < budget {
        let pass = one_pass(world, tracer, passes.len() as u64 + 1, models);
        spent += Duration::from_secs_f64(pass.wall_s());
        passes.push(pass);
    }
    passes
}

fn recall(candidates: &[RecordPair], dataset: &Dataset) -> (f64, usize) {
    let truth: HashSet<RecordPair> = [Split::Train, Split::Test]
        .iter()
        .flat_map(|&s| dataset.split(s))
        .filter(|lp| lp.label.is_match())
        .map(|lp| lp.pair)
        .collect();
    let hit = truth
        .iter()
        .filter(|p| {
            candidates
                .binary_search_by_key(&(p.left.0, p.right.0), |c| (c.left.0, c.right.0))
                .is_ok()
        })
        .count();
    (hit as f64 / truth.len().max(1) as f64, truth.len())
}

pub fn run(seed: u64, seconds: f64, traced: bool) -> Outcome {
    let mut out = Outcome::default();
    let (world, setup) = setup(seed);
    let ds = &world.dataset;
    let records = (ds.left().len() + ds.right().len()) as f64;
    let rate = |ps: &[Pass]| median(&ps.iter().map(|p| records / p.wall_s()).collect::<Vec<_>>());

    let mut models = ModelTally::default();
    let phase_seconds = if traced { seconds / 2.0 } else { seconds };
    let mut passes = run_passes(&world, phase_seconds, &Tracer::new(false), &mut models);
    let tracer = Tracer::new(true);
    if traced {
        let mut traced_models = ModelTally::default();
        let traced_passes = run_passes(&world, phase_seconds, &tracer, &mut traced_models);
        crate::common::overhead(&mut out, rate(&passes), rate(&traced_passes));
        passes = traced_passes;
        models = traced_models;
    }

    // ---- Correctness: blocking recall, clustering F1, and every pass
    // reproducing the first pass's partition.
    let first = &passes[0];
    let (block_recall, truth_pairs) = recall(&first.candidates, ds);
    out.check(
        "blocking recall",
        block_recall >= MIN_RECALL,
        format!("{block_recall:.4} over {truth_pairs} true pairs (floor {MIN_RECALL})"),
    );
    let prf = pairwise_prf(&first.partition, &truth_partition(ds));
    out.check(
        "pairwise F1",
        prf.f1 >= MIN_F1,
        format!(
            "{:.4} (precision {:.4}, recall {:.4}; floor {MIN_F1})",
            prf.f1, prf.precision, prf.recall
        ),
    );
    let diverged = passes
        .iter()
        .filter(|p| p.partition != first.partition || p.candidates != first.candidates)
        .count() as u64;
    out.check(
        "passes reproduce the first partition",
        diverged == 0,
        format!("{diverged} of {} passes differ", passes.len()),
    );
    out.attempted = passes.len() as u64;
    out.failed = diverged + u64::from(block_recall < MIN_RECALL || prf.f1 < MIN_F1);

    // ---- End-to-end metrics (medians over passes).
    let per_pass = |f: &dyn Fn(&Pass) -> f64| passes.iter().map(f).collect::<Vec<f64>>();
    setup.record(&mut out);
    out.e2e.insert("records_per_s", rate(&passes));
    out.e2e.insert(
        "pairs_per_s",
        median(&per_pass(&|p| p.candidates.len() as f64 / p.wall_s())),
    );
    out.e2e
        .insert("capacity_rps", median(&per_pass(&|p| 1.0 / p.wall_s())));

    // ---- Per-layer numbers (stage means per pass).
    let cross = cross_product(ds.left(), ds.right());
    out.layer.insert("block.s", mean(&per_pass(&|p| p.block_s)));
    out.layer
        .insert("block.candidates", first.candidates.len() as f64);
    out.layer.insert(
        "block.reduction",
        reduction_ratio(cross, first.candidates.len()),
    );
    out.layer
        .insert("cluster.score_s", mean(&per_pass(&|p| p.score_s)));
    out.layer
        .insert("cluster.cluster_s", mean(&per_pass(&|p| p.cluster_s)));
    out.layer.insert("cluster.edges", first.edges as f64);
    models.record(&mut out);
    if traced {
        let spans = tracer.spans();
        crate::common::record_model_spans(&mut out, &spans);
        let stage_self: Vec<(String, Json)> = totals_by_name(&spans)
            .into_iter()
            .map(|(name, (count, total, self_ns))| {
                (
                    name.to_string(),
                    Json::obj([
                        ("count", Json::num(count as f64)),
                        ("total_s", num(total as f64 / 1e9)),
                        ("self_s", num(self_ns as f64 / 1e9)),
                    ]),
                )
            })
            .collect();
        out.report.push(("spans", Json::Obj(stage_self)));
        out.spans = spans;
    }
    out.report.push((
        "workload",
        Json::obj([
            (
                "world",
                Json::str(format!("DS/paper seed {seed}, DeepMatcher")),
            ),
            ("records", Json::num(records)),
            ("cross_product", Json::num(cross as f64)),
            ("candidates", Json::num(first.candidates.len() as f64)),
            ("match_edges", Json::num(first.edges as f64)),
            ("entities", Json::num(first.partition.len() as f64)),
            ("passes", Json::num(passes.len() as f64)),
            ("score_workers", Json::num(WORKERS as f64)),
            ("batch", Json::num(BATCH as f64)),
            ("mean_block_s", num(mean(&per_pass(&|p| p.block_s)))),
            ("mean_score_s", num(mean(&per_pass(&|p| p.score_s)))),
            ("mean_threshold_s", num(mean(&per_pass(&|p| p.threshold_s)))),
            ("mean_cluster_s", num(mean(&per_pass(&|p| p.cluster_s)))),
        ]),
    ));
    out
}
