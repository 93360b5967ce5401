//! Metric names, the run outcome, and the result line.

use crate::stats::{percentile, Percentile};
use certa_serve::Json;
use std::collections::BTreeMap;

/// End-to-end metrics (tracing off): name and unit. Every workload reports
/// all of them; README.md defines each one per workload.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("pairs_per_s", "1/s"),
    ("records_per_s", "1/s"),
    ("capacity_rps", "1/s"),
];

/// Per-layer metrics (traced run): name and unit. A layer a workload does
/// not exercise reports 0.
pub const PER_LAYER: [(&str, &str); 46] = [
    ("setup.generate_s", "s"),
    ("setup.train_s", "s"),
    ("models.score_pairs", "count"),
    ("models.calls", "count"),
    ("models.busy_s", "s"),
    ("models.us_per_pair", "us"),
    ("models.pairs_per_call", "count"),
    ("models.memo_hit_rate", "share"),
    ("models.memo_lookups", "count"),
    ("models.cache_hit_rate", "share"),
    ("models.cache_lookups", "count"),
    ("models.memo_entries", "count"),
    ("models.cache_entries", "count"),
    ("explain.pairs", "count"),
    ("explain.triangles_s", "s"),
    ("explain.lattice_s", "s"),
    ("explain.candidates_scored", "count"),
    ("explain.triangles", "count"),
    ("explain.augmented_share", "share"),
    ("explain.lattice_performed", "count"),
    ("explain.lattice_expected", "count"),
    ("explain.discovery_call_share", "share"),
    ("explain.requested_scores", "count"),
    ("explain.repeat_share", "share"),
    ("explain.requests", "count"),
    ("serve.requests", "count"),
    ("serve.explain_p50_ms", "ms"),
    ("serve.explain_p95_ms", "ms"),
    ("serve.score_p95_ms", "ms"),
    ("serve.handler_ms_mean", "ms"),
    ("serve.wait_ms_mean", "ms"),
    ("serve.encode_ms_mean", "ms"),
    ("serve.rejected", "count"),
    ("loadgen.lag_ms_p95", "ms"),
    ("loadgen.sent", "count"),
    ("loadgen.failed", "count"),
    ("block.s", "s"),
    ("block.candidates", "count"),
    ("block.reduction", "ratio"),
    ("cluster.score_s", "s"),
    ("cluster.cluster_s", "s"),
    ("cluster.edges", "count"),
    ("trace.overhead_share", "share"),
    ("trace.untraced_value", "1/s"),
    ("trace.traced_value", "1/s"),
    ("trace.spans", "count"),
];

/// Everything one workload run produced.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted in the timed phases.
    pub attempted: u64,
    /// Operations that failed or returned a wrong output.
    pub failed: u64,
    /// Named correctness checks: `(name, passed, detail)`.
    pub checks: Vec<(String, bool, String)>,
    /// End-to-end metric values by name.
    pub e2e: BTreeMap<&'static str, f64>,
    /// Per-layer metric values by name (traced runs).
    pub layer: BTreeMap<&'static str, f64>,
    /// Free-form report fields: workload properties with their bases,
    /// per-phase counts, sample sizes.
    pub report: Vec<(&'static str, Json)>,
    /// Latency percentiles, with their sample counts and whether the
    /// load generator kept the schedule they are timed from.
    pub latencies: Vec<(&'static str, Percentile, bool)>,
    /// Spans of a traced run, written out when the run ends.
    pub spans: Vec<crate::trace::Span>,
}

impl Outcome {
    pub fn check(&mut self, name: impl Into<String>, passed: bool, detail: impl Into<String>) {
        self.checks.push((name.into(), passed, detail.into()));
    }

    pub fn all_checks_pass(&self) -> bool {
        self.checks.iter().all(|(_, ok, _)| *ok)
    }

    /// Report the `q` percentile of `samples` as per-layer metric `name`,
    /// keeping its sample count, support and validity for the report.
    pub fn latency(&mut self, name: &'static str, samples: &[f64], q: f64, valid: bool) {
        let p = percentile(samples, q);
        self.layer.insert(name, p.value);
        self.latencies.push((name, p, valid));
    }

    /// The latency percentiles as report entries.
    pub fn latencies_json(&self) -> Json {
        Json::Arr(
            self.latencies
                .iter()
                .map(|(name, p, valid)| {
                    Json::obj([
                        ("metric", Json::str(*name)),
                        ("value", num(p.value)),
                        ("samples", Json::num(p.n as f64)),
                        ("supported", Json::Bool(p.supported)),
                        ("valid", Json::Bool(*valid)),
                    ])
                })
                .collect(),
        )
    }
}

/// A report value: non-finite numbers become `null`.
pub fn num(v: f64) -> Json {
    if v.is_finite() {
        Json::Num(v)
    } else {
        Json::Null
    }
}

/// The last line of a run: `correct`, `attempted`, `failed` and the metric
/// set the trace mode selects. Returns the line and whether every metric
/// had a finite value.
pub fn result_line(outcome: &Outcome, traced: bool, correct: bool) -> (String, bool) {
    let (names, values): (&[(&str, &str)], _) = if traced {
        (&PER_LAYER, &outcome.layer)
    } else {
        (&END_TO_END, &outcome.e2e)
    };
    let mut complete = true;
    let metrics: Vec<(String, Json)> = names
        .iter()
        .map(|&(name, unit)| {
            let value = match values.get(name) {
                Some(v) if v.is_finite() => *v,
                // A layer the workload does not reach did no work.
                None if traced => 0.0,
                _ => {
                    complete = false;
                    0.0
                }
            };
            (
                name.to_string(),
                Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))]),
            )
        })
        .collect();
    let line = Json::obj([
        ("correct", Json::Bool(correct && complete)),
        ("attempted", Json::Num(outcome.attempted.max(1) as f64)),
        ("failed", Json::Num(outcome.failed as f64)),
        ("metrics", Json::Obj(metrics)),
    ])
    .serialize()
    .expect("result values are finite");
    (line, complete)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_selected_metrics() {
        let mut o = Outcome {
            attempted: 3,
            ..Outcome::default()
        };
        for (name, _) in END_TO_END {
            o.e2e.insert(name, 1.5);
        }
        let (line, complete) = result_line(&o, false, true);
        assert!(complete);
        let parsed = Json::parse(&line).unwrap();
        assert_eq!(parsed.get("correct"), Some(&Json::Bool(true)));
        let metrics = parsed.get("metrics").unwrap();
        for (name, unit) in END_TO_END {
            let m = metrics.get(name).unwrap();
            assert_eq!(m.get("value").unwrap().as_num(), Some(1.5));
            assert_eq!(m.get("unit").unwrap().as_str(), Some(unit));
        }
        assert!(metrics.get("models.busy_s").is_none());
        // A missing end-to-end metric makes the run incorrect; a missing
        // per-layer metric is a layer that did no work.
        o.e2e.remove("capacity_rps");
        assert!(!result_line(&o, false, true).1);
        let (traced, complete) = result_line(&o, true, true);
        assert!(complete);
        let parsed = Json::parse(&traced).unwrap();
        let Some(Json::Obj(fields)) = parsed.get("metrics") else {
            panic!("metrics is an object");
        };
        assert_eq!(fields.len(), PER_LAYER.len());
    }

    #[test]
    fn metric_names_are_unique() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .map(|(n, _)| *n)
            .collect();
        let before = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), before);
    }
}
