//! `serve-narrow`: an in-process `Server` on loopback serving DS (4
//! attributes) with the DeepER model.
//!
//! A seeded sequence of about ¾ `POST /v1/explain` and ¼
//! `POST /v1/score_batch` requests runs once paced and [`FLOODS`] times
//! flooded, each time against a freshly bound server with a freshly
//! resolved registry:
//!
//! * `paced` — open loop at [`RATE_RPS`] over two keep-alive connections;
//! * `flood` — the same sequence on two pipelined connections held at
//!   [`FLOOD_DEPTH`] requests in flight each.
//!
//! Every response is then compared byte for byte with the bytes the router
//! produces in-process for the same request.

use crate::common::{explain_pair_traced, overhead, ExplainTally, ModelTally, Setup, WORLD_SEED};
use crate::loadgen::{self, Completion, Phase};
use crate::report::{num, Outcome};
use crate::rng::Rng;
use crate::stats::{mean, median, percentile, share};
use crate::timing::TimingMatcher;
use crate::trace::Tracer;
use certa_core::{BoxedMatcher, LabeledPair, Matcher, Split};
use certa_datagen::{generate, DatasetId, Scale};
use certa_explain::Certa;
use certa_models::{train_model, CachingMatcher, ModelKind, TrainConfig};
use certa_serve::router::{explain_response_bytes, handle};
use certa_serve::wire::dto;
use certa_serve::{Json, ModelEntry, Registry, Request, ServeConfig, Server, ServerMetrics};
use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Instant;

const MODEL: &str = "DS/DeepER";
/// Open-loop rate of `paced`: a constant, about a third of the capacity
/// `flood` measures on the reference machine (README.md says why not half).
pub const RATE_RPS: f64 = 150.0;
/// Requests in flight per connection in `flood`.
pub const FLOOD_DEPTH: usize = 4;
const CONNECTIONS: usize = 2;
const HTTP_WORKERS: usize = 2;
/// `flood` repetitions, each on a fresh server; its figures are medians.
const FLOODS: usize = 3;
/// Share of explain requests that repeat an earlier pair.
pub const REPEAT_SHARE: f64 = 0.25;
/// Zipf exponent over earlier pairs (in order of first use) for repeats.
const ZIPF_S: f64 = 1.0;
/// Share of requests that are `score_batch`.
const SCORE_SHARE: f64 = 0.25;
/// Candidate pairs per `score_batch` request.
const SCORE_PAIRS: (usize, usize) = (24, 48);
/// `paced` gets this share of the run's seconds; each `flood` replays the
/// same sequence in about a third of that.
const PACED_SHARE: f64 = 0.45;
/// Extra bind + resolve cycles timed before the phases, so `setup_s` is a
/// median over enough set-ups.
const EXTRA_SETUPS: usize = 4;
/// When `paced` wrote its requests later than this (p95), its latencies
/// are the generator's, not the server's, and the report marks them
/// invalid.
pub const LAG_BOUND_MS: f64 = 10.0;

/// One request of the sequence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Req {
    /// Explain labeled pair `i`; `repeat` when an earlier request named it.
    Explain { pair: usize, repeat: bool },
    /// Score these labeled pairs.
    Score(Vec<usize>),
}

/// The seeded request sequence over `n_pairs` labeled pairs.
pub fn sequence(seed: u64, n_pairs: usize, n_requests: usize) -> Vec<Req> {
    let mut rng = Rng::new(seed ^ 0x5E_12E0);
    let mut fresh: Vec<usize> = (0..n_pairs).collect();
    rng.shuffle(&mut fresh);
    let mut fresh = fresh.into_iter();
    let mut used: Vec<usize> = Vec::new();
    let mut cumulative: Vec<f64> = Vec::new();
    (0..n_requests)
        .map(|_| {
            if rng.unit() < SCORE_SHARE {
                let k = SCORE_PAIRS.0 + rng.below(SCORE_PAIRS.1 - SCORE_PAIRS.0 + 1);
                return Req::Score((0..k).map(|_| rng.below(n_pairs)).collect());
            }
            let repeat = !used.is_empty() && rng.unit() < REPEAT_SHARE;
            match (!repeat).then(|| fresh.next()).flatten() {
                Some(pair) => {
                    used.push(pair);
                    let w = 1.0 / (used.len() as f64).powf(ZIPF_S);
                    cumulative.push(cumulative.last().copied().unwrap_or(0.0) + w);
                    Req::Explain {
                        pair,
                        repeat: false,
                    }
                }
                // A repeat, or every pair already used: Zipf over earlier
                // pairs, the earliest the most popular.
                None => {
                    let total = cumulative.last().copied().unwrap_or(0.0);
                    let x = rng.unit() * total;
                    let rank = cumulative.partition_point(|&c| c <= x).min(used.len() - 1);
                    Req::Explain {
                        pair: used[rank],
                        repeat: true,
                    }
                }
            }
        })
        .collect()
}

fn labeled_pairs(registry_entry: &ModelEntry) -> Vec<LabeledPair> {
    let ds = &registry_entry.dataset;
    let mut pairs: Vec<LabeledPair> = ds
        .split(Split::Train)
        .iter()
        .chain(ds.split(Split::Test))
        .copied()
        .collect();
    pairs.sort_by_key(|lp| (lp.pair.left.0, lp.pair.right.0));
    pairs.dedup_by_key(|lp| lp.pair);
    pairs
}

fn pair_json(lp: &LabeledPair) -> String {
    format!(
        r#"{{"left_id":{},"right_id":{}}}"#,
        lp.pair.left.0, lp.pair.right.0
    )
}

/// `(path, body)` of one request.
fn encode(req: &Req, pairs: &[LabeledPair]) -> (&'static str, String) {
    match req {
        Req::Explain { pair, .. } => (
            "/v1/explain",
            format!(
                r#"{{"model":"{MODEL}","pair":{}}}"#,
                pair_json(&pairs[*pair])
            ),
        ),
        Req::Score(ps) => (
            "/v1/score_batch",
            format!(
                r#"{{"model":"{MODEL}","pairs":[{}]}}"#,
                ps.iter()
                    .map(|&i| pair_json(&pairs[i]))
                    .collect::<Vec<_>>()
                    .join(",")
            ),
        ),
    }
}

fn serve_config() -> ServeConfig {
    ServeConfig {
        scale: Scale::Default,
        seed: WORLD_SEED,
        tau: 100,
        explain_workers: 1,
        http_workers: HTTP_WORKERS,
        ..ServeConfig::default()
    }
}

/// Bind a server and resolve the model: one timed set-up.
fn start_server(setup: &mut Setup) -> Result<Server, String> {
    let t = Instant::now();
    let server =
        Server::bind(serve_config(), "127.0.0.1:0").map_err(|e| format!("bind loopback: {e}"))?;
    server
        .state()
        .registry
        .resolve(MODEL)
        .map_err(|e| format!("resolve {MODEL}: {}", e.message))?;
    setup.total_s.push(t.elapsed().as_secs_f64());
    Ok(server)
}

/// What one phase's server did.
struct ServerSide {
    handler_ms_mean: f64,
    rejected: u64,
    requests: u64,
    worker_panics: u64,
    models: ModelTally,
}

fn server_side(server: &Server) -> ServerSide {
    let state = server.state();
    let m = &state.metrics;
    let mut models = ModelTally::default();
    for entry in state.registry.loaded() {
        models.add(&entry.model, &entry.cache);
    }
    ServerSide {
        handler_ms_mean: m.latency.mean_micros() / 1e3,
        rejected: m.responses_in_class(4) + m.responses_in_class(5) + m.overload_rejections(),
        requests: m.requests_total(),
        worker_panics: m.worker_panics(),
        models,
    }
}

/// One phase and what its server did.
struct Run {
    phase: Phase,
    side: ServerSide,
}

/// `paced` once, then `flood` [`FLOODS`] times, each against a fresh
/// server.
fn run_phases(frames: &[Vec<u8>], setup: &mut Setup) -> Result<(Run, Vec<Run>), String> {
    let on_fresh_server = |setup: &mut Setup, drive: &dyn Fn(SocketAddr) -> Phase| {
        let server = start_server(setup)?;
        let phase = drive(server.addr());
        let side = server_side(&server);
        server.shutdown();
        Ok::<Run, String>(Run { phase, side })
    };
    let paced = on_fresh_server(setup, &|addr| {
        loadgen::paced(addr, frames, CONNECTIONS, RATE_RPS)
    })?;
    let floods = (0..FLOODS)
        .map(|_| {
            on_fresh_server(setup, &|addr| {
                loadgen::flood(addr, frames, CONNECTIONS, FLOOD_DEPTH)
            })
        })
        .collect::<Result<Vec<Run>, String>>()?;
    Ok((paced, floods))
}

fn ms(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Latency from the due time; a failed or wrong response is a miss.
fn latency_ms(c: &Completion, correct: bool) -> f64 {
    match c.done {
        Some(done) if correct && c.ok() => ms(done - c.due),
        _ => f64::INFINITY,
    }
}

pub fn run(seed: u64, seconds: f64, traced: bool) -> Outcome {
    let mut out = Outcome::default();
    let mut setup = Setup::default();

    // ---- Reference registry: the in-process world the bytes come from.
    let t = Instant::now();
    let reference = Registry::new(serve_config());
    let entry = match reference.resolve(MODEL) {
        Ok(e) => e,
        Err(e) => {
            out.check("resolve reference model", false, e.message);
            return out;
        }
    };
    setup.total_s.push(t.elapsed().as_secs_f64());
    for _ in 0..EXTRA_SETUPS {
        match start_server(&mut setup) {
            Ok(server) => server.shutdown(),
            Err(e) => {
                out.check("servers start", false, e);
                return out;
            }
        }
    }
    let pairs = labeled_pairs(&entry);

    let phase_seconds = if traced { seconds / 2.0 } else { seconds };
    let n_requests = ((RATE_RPS * phase_seconds * PACED_SHARE).round() as usize).max(1);
    let seq = sequence(seed, pairs.len(), n_requests);
    let encoded: Vec<(&str, String)> = seq.iter().map(|r| encode(r, &pairs)).collect();
    let frames: Vec<Vec<u8>> = encoded
        .iter()
        .map(|(path, body)| loadgen::frame(path, body))
        .collect();

    let phases = run_phases(&frames, &mut setup).and_then(|untraced| {
        if !traced {
            return Ok(untraced);
        }
        let traced_phases = run_phases(&frames, &mut setup)?;
        overhead(
            &mut out,
            median_capacity(&untraced.1),
            median_capacity(&traced_phases.1),
        );
        Ok(traced_phases)
    });
    let (paced_run, floods) = match phases {
        Ok(p) => p,
        Err(e) => {
            out.check("servers start", false, e);
            return out;
        }
    };
    let (paced, paced_side) = (&paced_run.phase, &paced_run.side);

    // ---- Correctness: every served body equals the in-process bytes.
    let t_ref = Instant::now();
    let mut distinct: Vec<(&Req, &str, &str)> = Vec::new();
    let mut seen = std::collections::HashSet::new();
    for (req, (path, body)) in seq.iter().zip(&encoded) {
        if seen.insert(body.as_str()) {
            distinct.push((req, *path, body.as_str()));
        }
    }
    let expected_bytes = |&(req, path, body): &(&Req, &str, &str)| -> Vec<u8> {
        match req {
            Req::Explain { pair, .. } => {
                let (u, v) = entry.dataset.expect_pair(pairs[*pair].pair);
                explain_response_bytes(&entry, u, v)
            }
            Req::Score(_) => {
                let request = Request {
                    method: "POST".into(),
                    path: path.into(),
                    query: String::new(),
                    headers: Vec::new(),
                    body: body.as_bytes().to_vec(),
                    keep_alive: true,
                    http11: true,
                };
                handle(&reference, &ServerMetrics::default(), &request)
                    .1
                    .body
            }
        }
    };
    // Two workers, each taking every other distinct request.
    let expected: HashMap<&str, Vec<u8>> = std::thread::scope(|s| {
        let halves: Vec<_> = (0..2)
            .map(|w| {
                let (distinct, expected_bytes) = (&distinct, &expected_bytes);
                s.spawn(move || {
                    distinct
                        .iter()
                        .skip(w)
                        .step_by(2)
                        .map(|d| (d.2, expected_bytes(d)))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        halves
            .into_iter()
            .flat_map(|h| h.join().expect("reference worker panicked"))
            .collect()
    });
    let reference_s = t_ref.elapsed().as_secs_f64();
    let verify = |phase: &Phase| -> Vec<bool> {
        phase
            .completions
            .iter()
            .map(|c| c.ok() && expected.get(encoded[c.index].1.as_str()) == Some(&c.body))
            .collect()
    };
    let paced_ok = verify(paced);
    let floods_ok: Vec<Vec<bool>> = floods.iter().map(|f| verify(&f.phase)).collect();
    let bad = |oks: &[bool]| oks.iter().filter(|ok| !**ok).count() as u64;
    let flood_bad: u64 = floods_ok.iter().map(|oks| bad(oks)).sum();
    let flood_sent: usize = floods_ok.iter().map(Vec::len).sum();
    let errors: Vec<&String> = paced
        .errors
        .iter()
        .chain(floods.iter().flat_map(|f| &f.phase.errors))
        .collect();
    out.check(
        "served bytes equal in-process bytes",
        bad(&paced_ok) + flood_bad == 0,
        format!(
            "paced {} of {} wrong or failed, flood {flood_bad} of {flood_sent}; errors: {errors:?}",
            bad(&paced_ok),
            paced_ok.len(),
        ),
    );
    let panics: u64 =
        paced_side.worker_panics + floods.iter().map(|f| f.side.worker_panics).sum::<u64>();
    out.check("no worker panics", panics == 0, format!("{panics}"));

    // ---- Load-generator honesty.
    let lag_ms: Vec<f64> = paced
        .completions
        .iter()
        .map(|c| ms(c.sent - c.due))
        .collect();
    // A generator that fell behind invalidates the paced latencies, not
    // the served bytes or the flood throughput: the latencies are marked
    // invalid in the report rather than failing the run.
    let lag_p95 = percentile(&lag_ms, 0.95).value;
    let paced_valid = lag_p95 <= LAG_BOUND_MS;

    // ---- End-to-end metrics.
    let is_explain = |c: &Completion| matches!(seq[c.index], Req::Explain { .. });
    let split = |want_explain: bool| -> Vec<f64> {
        paced
            .completions
            .iter()
            .zip(&paced_ok)
            .filter(|(c, _)| is_explain(c) == want_explain)
            .map(|(c, &ok)| latency_ms(c, ok))
            .collect()
    };
    let explain_lat = split(true);
    let score_lat = split(false);
    // Explained pairs per second, per flood.
    let explain_rates: Vec<f64> = floods
        .iter()
        .zip(&floods_ok)
        .map(|(f, oks)| {
            let explained = f
                .phase
                .completions
                .iter()
                .zip(oks)
                .filter(|(c, &ok)| ok && is_explain(c))
                .count();
            explained as f64 / f.phase.wall().as_secs_f64()
        })
        .collect();
    let attempted = (paced_ok.len() + flood_sent) as u64;
    out.attempted = attempted;
    out.failed = bad(&paced_ok) + flood_bad;
    // Set-ups: the reference registry, the extra cycles, and one server
    // per phase.
    setup.record(&mut out);
    out.e2e.insert("capacity_rps", median_capacity(&floods));
    let pairs_per_s = median(&explain_rates);
    out.e2e.insert("pairs_per_s", pairs_per_s);
    // Each explained pair is two records, as in `explain-wide`.
    out.e2e.insert("records_per_s", 2.0 * pairs_per_s);

    // ---- Workload properties.
    let explains = seq
        .iter()
        .filter(|r| matches!(r, Req::Explain { .. }))
        .count();
    let repeats = seq
        .iter()
        .filter(|r| matches!(r, Req::Explain { repeat: true, .. }))
        .count();
    out.layer.insert("explain.requests", explains as f64);
    out.layer.insert(
        "explain.repeat_share",
        share(repeats as u64, explains as u64),
    );
    let (paced_cache, paced_lookups) = paced_side.models.cache_hit_share();
    paced_side.models.record(&mut out);

    // ---- Per-layer numbers: server totals, client waits, generator.
    let served_ms: Vec<f64> = paced
        .completions
        .iter()
        .zip(&paced_ok)
        .filter(|(_, &ok)| ok)
        .filter_map(|(c, _)| c.done.map(|d| ms(d - c.sent)))
        .collect();
    // Paced latencies swing with the host's speed by more than any
    // end-to-end bound allows, so they are per-layer figures (README.md).
    out.latency("serve.explain_p50_ms", &explain_lat, 0.5, paced_valid);
    out.latency("serve.explain_p95_ms", &explain_lat, 0.95, paced_valid);
    out.latency("serve.score_p95_ms", &score_lat, 0.95, paced_valid);
    out.layer
        .insert("serve.requests", paced_side.requests as f64);
    out.layer
        .insert("serve.handler_ms_mean", paced_side.handler_ms_mean);
    out.layer.insert(
        "serve.wait_ms_mean",
        mean(&served_ms) - paced_side.handler_ms_mean,
    );
    out.layer.insert(
        "serve.rejected",
        (paced_side.rejected + floods.iter().map(|f| f.side.rejected).sum::<u64>()) as f64,
    );
    out.layer.insert("loadgen.lag_ms_p95", lag_p95);
    out.layer.insert("loadgen.sent", attempted as f64);
    out.layer.insert("loadgen.failed", out.failed as f64);

    // ---- Traced replay: the server's compute for the same sequence, in
    // process, with model spans below the cache and encode timing.
    if traced {
        let tracer = Tracer::new(true);
        for c in &paced.completions {
            if let Some(done) = c.done {
                tracer.record("serve.request", c.index as u64 + 1, c.sent, done);
            }
        }
        traced_replay(&mut out, &tracer, &entry, &seq, &pairs);
        out.spans = tracer.spans();
    }

    let phase_json = |name: &str, phase: &Phase, oks: &[bool]| {
        let sent = phase.completions.len();
        let succeeded = oks.iter().filter(|ok| **ok).count();
        Json::obj([
            ("phase", Json::str(name)),
            ("sent", Json::num(sent as f64)),
            ("succeeded", Json::num(succeeded as f64)),
            ("failed", Json::num((sent - succeeded) as f64)),
            ("wall_s", num(phase.wall().as_secs_f64())),
        ])
    };
    out.report.push((
        "workload",
        Json::obj([
            (
                "world",
                Json::str(format!("DS/default seed {WORLD_SEED}, DeepER")),
            ),
            ("labeled_pairs", Json::num(pairs.len() as f64)),
            ("requests", Json::num(seq.len() as f64)),
            ("explain_requests", Json::num(explains as f64)),
            ("repeat_explains", Json::num(repeats as f64)),
            ("repeat_share", num(share(repeats as u64, explains as u64))),
            ("paced_rate_rps", Json::Num(RATE_RPS)),
            ("connections", Json::num(CONNECTIONS as f64)),
            ("flood_depth", Json::num(FLOOD_DEPTH as f64)),
            ("http_workers", Json::num(HTTP_WORKERS as f64)),
            ("cache_hit_share", num(paced_cache)),
            ("cache_lookups", Json::num(paced_lookups as f64)),
            ("floods", Json::num(FLOODS as f64)),
            ("lag_ms_p95", num(lag_p95)),
            ("lag_bound_ms", Json::Num(LAG_BOUND_MS)),
            ("paced_latencies_valid", Json::Bool(paced_valid)),
            ("reference_s", num(reference_s)),
            (
                "phases",
                Json::Arr(
                    std::iter::once(phase_json("paced", paced, &paced_ok))
                        .chain(
                            floods
                                .iter()
                                .zip(&floods_ok)
                                .map(|(f, oks)| phase_json("flood", &f.phase, oks)),
                        )
                        .collect(),
                ),
            ),
        ]),
    ));
    out
}

/// Median over the floods of requests completed per second.
fn median_capacity(floods: &[Run]) -> f64 {
    let rates: Vec<f64> = floods
        .iter()
        .map(|f| {
            let ok = f.phase.completions.iter().filter(|c| c.ok()).count();
            ok as f64 / f.phase.wall().as_secs_f64()
        })
        .collect();
    median(&rates)
}

/// Replay the sequence in process through a traced stack: explains with
/// spans around discovery and `Certa::explain`, `score_batch` through the
/// same cache, and the time `dto` encoding takes per explanation.
fn traced_replay(
    out: &mut Outcome,
    tracer: &Arc<Tracer>,
    entry: &ModelEntry,
    seq: &[Req],
    pairs: &[LabeledPair],
) {
    let t = Instant::now();
    let (dataset, model) = {
        let dataset = generate(DatasetId::DS, Scale::Default, WORLD_SEED);
        let generate_s = t.elapsed().as_secs_f64();
        let t = Instant::now();
        let (model, _) = train_model(
            ModelKind::DeepEr,
            &dataset,
            &TrainConfig::for_kind(ModelKind::DeepEr),
        );
        out.layer.insert("setup.generate_s", generate_s);
        out.layer.insert("setup.train_s", t.elapsed().as_secs_f64());
        (dataset, Arc::new(model))
    };
    let timed = TimingMatcher::new(Arc::clone(&model) as BoxedMatcher, Arc::clone(tracer));
    let cache = CachingMatcher::new(Arc::clone(&timed) as BoxedMatcher);
    let certa = Certa::new(entry.certa.config().with_workers(1));
    let mut tally = ExplainTally::default();
    let mut encode_ms = Vec::new();
    for (i, req) in seq.iter().enumerate() {
        match req {
            Req::Explain { pair, .. } => {
                let (u, v) = dataset.expect_pair(pairs[*pair].pair);
                let e = explain_pair_traced(tracer, &certa, &cache, &dataset, u, v, i as u64 + 1);
                let t = Instant::now();
                let bytes = Json::obj([
                    ("model", Json::str(&entry.name)),
                    ("explanation", dto::explanation_to_json(&e)),
                ])
                .serialize();
                encode_ms.push(t.elapsed().as_secs_f64() * 1e3);
                std::hint::black_box(bytes.ok());
                tally.add(&e);
            }
            Req::Score(ps) => {
                let _span = tracer.span("serve.score_batch", Some(i as u64 + 1));
                let refs: Vec<_> = ps
                    .iter()
                    .map(|&p| dataset.expect_pair(pairs[p].pair))
                    .collect();
                std::hint::black_box(cache.score_batch(&refs));
            }
        }
    }
    tally.record(out);
    let counts = timed.counts();
    out.layer.insert("models.calls", counts.calls as f64);
    out.layer.insert("models.score_pairs", counts.pairs as f64);
    out.layer
        .insert("models.pairs_per_call", share(counts.pairs, counts.calls));
    out.layer.insert("serve.encode_ms_mean", mean(&encode_ms));
    crate::common::record_explain_spans(out, &tracer.spans());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_sequence() {
        let a = sequence(3, 1528, 2600);
        assert_eq!(a, sequence(3, 1528, 2600));
        assert_ne!(a, sequence(4, 1528, 2600));
        let explains: Vec<&Req> = a
            .iter()
            .filter(|r| matches!(r, Req::Explain { .. }))
            .collect();
        let scores = a.len() - explains.len();
        let score_share = scores as f64 / a.len() as f64;
        assert!((score_share - SCORE_SHARE).abs() < 0.03, "{score_share}");
        let repeats = explains
            .iter()
            .filter(|r| matches!(r, Req::Explain { repeat: true, .. }))
            .count();
        let repeat_share = repeats as f64 / explains.len() as f64;
        assert!((repeat_share - REPEAT_SHARE).abs() < 0.03, "{repeat_share}");
        // A repeat names a pair asked for earlier; a first-time pair never
        // appeared before.
        let mut seen = std::collections::HashSet::new();
        for r in &a {
            match r {
                Req::Explain { pair, repeat } => assert_eq!(*repeat, !seen.insert(*pair)),
                Req::Score(ps) => {
                    assert!((SCORE_PAIRS.0..=SCORE_PAIRS.1).contains(&ps.len()));
                    assert!(ps.iter().all(|&p| p < 1528));
                }
            }
        }
    }
}
