//! Pieces the workloads share: set-up timing, model and explain tallies,
//! the traced explain path, and span roll-ups.

use crate::report::{num, Outcome};
use crate::stats::{median, share};
use crate::timing::{ModelCounts, MODEL_SPAN};
use crate::trace::{totals_by_name, Span, Tracer};
use certa_core::{Dataset, MatchLabel, Matcher, Record};
use certa_explain::{find_triangles, Certa, CertaExplanation};
use certa_models::{CachingMatcher, ErModel};
use certa_serve::Json;

/// Seed of the generated datasets and trained models of `explain-wide` and
/// `serve-narrow`. Their `--seed` draws the traffic over this fixed world,
/// so figures from different seeds measure the same program on the same
/// data.
pub const WORLD_SEED: u64 = 7;

/// Timed set-ups of one run.
#[derive(Default)]
pub struct Setup {
    pub total_s: Vec<f64>,
    pub generate_s: Vec<f64>,
    pub train_s: Vec<f64>,
}

impl Setup {
    /// `setup_s` is the median of the timed set-ups; the generate and train
    /// parts go to the per-layer set.
    pub fn record(&self, out: &mut Outcome) {
        out.e2e.insert("setup_s", median(&self.total_s));
        out.layer
            .insert("setup.generate_s", median(&self.generate_s));
        out.layer.insert("setup.train_s", median(&self.train_s));
        let arr = |xs: &[f64]| Json::Arr(xs.iter().map(|&x| num(x)).collect());
        out.report.push((
            "setups",
            Json::obj([
                ("count", Json::num(self.total_s.len() as f64)),
                ("total_s", arr(&self.total_s)),
                ("generate_s", arr(&self.generate_s)),
                ("train_s", arr(&self.train_s)),
            ]),
        ));
    }
}

/// Run `setup` `n` times, timing each; keep the last result. `setup`
/// returns its product with its generate and train seconds.
pub fn timed_setups<W>(n: usize, mut setup: impl FnMut() -> (W, f64, f64)) -> (W, Setup) {
    let mut times = Setup::default();
    let mut last = None;
    for _ in 0..n.max(1) {
        drop(last.take());
        let t = std::time::Instant::now();
        let (w, generate_s, train_s) = setup();
        times.total_s.push(t.elapsed().as_secs_f64());
        times.generate_s.push(generate_s);
        times.train_s.push(train_s);
        last = Some(w);
    }
    (last.expect("at least one set-up"), times)
}

/// Score-cache, feature-memo and (traced) model-call totals over a run.
#[derive(Default)]
pub struct ModelTally {
    memo_hits: u64,
    memo_misses: u64,
    memo_entries: usize,
    cache_hits: u64,
    cache_misses: u64,
    cache_entries: usize,
    calls: Option<ModelCounts>,
}

impl ModelTally {
    /// Add one model + cache pair's lifetime counters.
    pub fn add(&mut self, model: &ErModel, cache: &CachingMatcher) {
        self.add_model(model);
        let c = cache.stats();
        self.cache_hits += c.hits;
        self.cache_misses += c.misses;
        self.cache_entries = self.cache_entries.max(cache.len());
    }

    /// Add the timing decorator's call counts.
    pub fn add_counts(&mut self, counts: ModelCounts) {
        let total = self.calls.get_or_insert_with(ModelCounts::default);
        total.calls += counts.calls;
        total.pairs += counts.pairs;
    }

    /// Add a model used without a score cache.
    pub fn add_model(&mut self, model: &ErModel) {
        let m = model.memo_stats();
        self.memo_hits += m.hits;
        self.memo_misses += m.misses;
        self.memo_entries = self.memo_entries.max(model.memo_len());
    }

    pub fn cache_hit_share(&self) -> (f64, u64) {
        let base = self.cache_hits + self.cache_misses;
        (share(self.cache_hits, base), base)
    }

    pub fn memo_hit_share(&self) -> (f64, u64) {
        let base = self.memo_hits + self.memo_misses;
        (share(self.memo_hits, base), base)
    }

    pub fn record(&self, out: &mut Outcome) {
        let (cache_rate, cache_base) = self.cache_hit_share();
        let (memo_rate, memo_base) = self.memo_hit_share();
        out.layer.insert("models.cache_hit_rate", cache_rate);
        out.layer.insert("models.cache_lookups", cache_base as f64);
        out.layer.insert("models.memo_hit_rate", memo_rate);
        out.layer.insert("models.memo_lookups", memo_base as f64);
        out.layer
            .insert("models.cache_entries", self.cache_entries as f64);
        out.layer
            .insert("models.memo_entries", self.memo_entries as f64);
        if let Some(c) = self.calls {
            out.layer.insert("models.calls", c.calls as f64);
            out.layer.insert("models.score_pairs", c.pairs as f64);
            out.layer
                .insert("models.pairs_per_call", share(c.pairs, c.calls));
        }
        out.report.push((
            "score_cache",
            Json::obj([
                ("hit_share", num(cache_rate)),
                ("lookups", Json::num(cache_base as f64)),
                ("max_entries", Json::num(self.cache_entries as f64)),
            ]),
        ));
        out.report.push((
            "feature_memo",
            Json::obj([
                ("hit_share", num(memo_rate)),
                ("lookups", Json::num(memo_base as f64)),
                ("max_entries", Json::num(self.memo_entries as f64)),
            ]),
        ));
    }
}

/// Work counts read off explanations.
#[derive(Default)]
pub struct ExplainTally {
    pairs: u64,
    candidates_scored: u64,
    natural: u64,
    augmented: u64,
    lattice_performed: u64,
    lattice_expected: u64,
}

impl ExplainTally {
    pub fn add(&mut self, e: &CertaExplanation) {
        self.pairs += 1;
        self.candidates_scored += e.triangle_stats.candidates_scored as u64;
        self.natural += e.triangle_stats.natural as u64;
        self.augmented += e.triangle_stats.augmented as u64;
        for l in &e.lattice_stats {
            self.lattice_performed += l.performed as u64;
            self.lattice_expected += l.expected as u64;
        }
    }

    pub fn record(&self, out: &mut Outcome) {
        let triangles = self.natural + self.augmented;
        // Scores requested above the cache: discovery candidates vs
        // lattice predictions (the one prediction per pair and the
        // counterfactual re-scores are left out of both).
        let requested = self.candidates_scored + self.lattice_performed;
        out.layer.insert("explain.pairs", self.pairs as f64);
        out.layer
            .insert("explain.candidates_scored", self.candidates_scored as f64);
        out.layer.insert("explain.triangles", triangles as f64);
        out.layer
            .insert("explain.augmented_share", share(self.augmented, triangles));
        out.layer
            .insert("explain.lattice_performed", self.lattice_performed as f64);
        out.layer
            .insert("explain.lattice_expected", self.lattice_expected as f64);
        out.layer.insert(
            "explain.discovery_call_share",
            share(self.candidates_scored, requested),
        );
        out.layer
            .insert("explain.requested_scores", requested as f64);
        out.report.push((
            "explain_work",
            Json::obj([
                ("pairs", Json::num(self.pairs as f64)),
                ("triangles", Json::num(triangles as f64)),
                ("augmented_share", num(share(self.augmented, triangles))),
                ("discovery_scores", Json::num(self.candidates_scored as f64)),
                ("lattice_scores", Json::num(self.lattice_performed as f64)),
                (
                    "discovery_share",
                    num(share(self.candidates_scored, requested)),
                ),
                ("lattice_expected", Json::num(self.lattice_expected as f64)),
            ]),
        ));
    }
}

/// Explain one pair with spans: `explain.pair` (group `group`) holding
/// `explain.triangles` around the benchmark's own `find_triangles` call and
/// `explain.certa` around `Certa::explain`. The discovery call fills the
/// score cache, so the discovery `Certa::explain` repeats inside reaches
/// the model no more: model spans of discovery sit under
/// `explain.triangles`, and those of the lattice under `explain.certa`.
pub fn explain_pair_traced(
    tracer: &Tracer,
    certa: &Certa,
    matcher: &CachingMatcher,
    dataset: &Dataset,
    u: &Record,
    v: &Record,
    group: u64,
) -> CertaExplanation {
    let _pair = tracer.span("explain.pair", Some(group));
    let y = MatchLabel::from_score(matcher.score(u, v));
    {
        let _t = tracer.span("explain.triangles", None);
        std::hint::black_box(find_triangles(matcher, dataset, u, v, y, certa.config()));
    }
    let _c = tracer.span("explain.certa", None);
    certa.explain(matcher, dataset, u, v)
}

/// Roll explain and model spans up into per-layer metrics.
///
/// `explain.triangles_s` is the self time of the discovery spans.
/// `explain.lattice_s` is the self time of `Certa::explain` less that of
/// discovery, which the explain repeats from the warm cache.
pub fn record_explain_spans(out: &mut Outcome, spans: &[Span]) {
    let totals = totals_by_name(spans);
    let get = |name: &str| totals.get(name).copied().unwrap_or_default();
    let (_, _, triangles_self) = get("explain.triangles");
    let (_, _, certa_self) = get("explain.certa");
    out.layer
        .insert("explain.triangles_s", triangles_self as f64 / 1e9);
    out.layer.insert(
        "explain.lattice_s",
        certa_self.saturating_sub(triangles_self) as f64 / 1e9,
    );
    record_model_spans(out, spans);
}

/// `models.busy_s` and `models.us_per_pair` from the timing decorator's
/// spans (needs `models.score_pairs` recorded first).
pub fn record_model_spans(out: &mut Outcome, spans: &[Span]) {
    let busy_ns: u64 = spans
        .iter()
        .filter(|s| s.name == MODEL_SPAN)
        .map(Span::dur_ns)
        .sum();
    out.layer.insert("models.busy_s", busy_ns as f64 / 1e9);
    let pairs = out.layer.get("models.score_pairs").copied().unwrap_or(0.0);
    if pairs > 0.0 {
        out.layer
            .insert("models.us_per_pair", busy_ns as f64 / 1e3 / pairs);
    }
    out.layer.insert("trace.spans", spans.len() as f64);
}

/// Tracing overhead: the primary throughput untraced vs traced in the same
/// process, as the share of the untraced figure lost.
pub fn overhead(out: &mut Outcome, untraced: f64, traced: f64) {
    out.layer.insert("trace.untraced_value", untraced);
    out.layer.insert("trace.traced_value", traced);
    out.layer
        .insert("trace.overhead_share", (untraced - traced) / untraced);
}
