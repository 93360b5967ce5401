//! The certa-rs repository benchmark.
//!
//! ```text
//! perfbench --workload explain-wide|serve-narrow|resolve --seed N
//!           --seconds S --trace 0|1
//! ```
//!
//! Builds its inputs from `--seed`, measures for about `--seconds`, checks
//! the program's outputs, and prints as its last line one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
//! with `--trace 0`, the per-layer metrics with `--trace 1`. The line
//! before it is a report with the machine, the seed, the checks and the
//! workload's properties. README.md says what each workload and metric is.

mod common;
mod explain_wide;
mod loadgen;
mod machine;
mod report;
mod resolve;
mod rng;
mod serve_narrow;
mod stats;
mod timing;
mod trace;

use certa_serve::Json;
use report::{num, result_line};

const USAGE: &str = "usage: perfbench --workload explain-wide|serve-narrow|resolve --seed N --seconds S --trace 0|1";

#[derive(Debug, PartialEq)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.into_iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => match value.as_str() {
                "explain-wide" | "serve-narrow" | "resolve" => workload = Some(value),
                other => return Err(format!("unknown workload `{other}`")),
            },
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    eprintln!(
        "[perfbench] {} seed={} seconds={} trace={}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    let started = std::time::Instant::now();
    let mut outcome = match args.workload.as_str() {
        "explain-wide" => explain_wide::run(args.seed, args.seconds, args.trace),
        "serve-narrow" => serve_narrow::run(args.seed, args.seconds, args.trace),
        _ => resolve::run(args.seed, args.seconds, args.trace),
    };
    outcome.e2e.insert("peak_rss_mb", machine::peak_rss_mib());

    let correct = outcome.failed == 0 && outcome.all_checks_pass();
    let (line, complete) = result_line(&outcome, args.trace, correct);
    for (name, ok, detail) in &outcome.checks {
        eprintln!(
            "[perfbench] check {}: {name} — {detail}",
            if *ok { "ok" } else { "FAILED" }
        );
    }
    let checks = outcome
        .checks
        .iter()
        .map(|(name, ok, detail)| {
            Json::obj([
                ("name", Json::str(name.as_str())),
                ("passed", Json::Bool(*ok)),
                ("detail", Json::str(detail.as_str())),
            ])
        })
        .collect();
    let values = |m: &std::collections::BTreeMap<&str, f64>| {
        Json::Obj(m.iter().map(|(k, &v)| (k.to_string(), num(v))).collect())
    };
    let mut fields = vec![
        ("workload", Json::str(args.workload.as_str())),
        ("seed", Json::num(args.seed as f64)),
        ("seconds", Json::Num(args.seconds)),
        ("trace", Json::Bool(args.trace)),
        ("machine", machine::descriptor()),
        ("run_wall_s", num(started.elapsed().as_secs_f64())),
        ("checks", Json::Arr(checks)),
        ("metrics_complete", Json::Bool(complete)),
        ("end_to_end", values(&outcome.e2e)),
        ("per_layer", values(&outcome.layer)),
        ("latencies", outcome.latencies_json()),
    ];
    fields.append(&mut outcome.report);
    let report = Json::obj(fields)
        .serialize()
        .expect("report values are finite or null");
    let dir = std::path::Path::new(".bench_out");
    let file = dir.join(format!(
        "{}-seed{}-trace{}.json",
        args.workload, args.seed, args.trace as u8
    ));
    let spans = (!outcome.spans.is_empty()).then(|| trace::spans_tsv(&outcome.spans));
    let written = std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::write(&file, &report))
        .and_then(|()| match &spans {
            Some(s) => std::fs::write(file.with_extension("spans.tsv"), s),
            None => Ok(()),
        });
    if let Err(e) = written {
        eprintln!("[perfbench] could not write {}: {e}", file.display());
    }
    println!("{{\"report\":{report}}}");
    println!("{line}");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        parse_args(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_the_command_line() {
        let a = parse(&[
            "--workload",
            "resolve",
            "--seed",
            "3",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(
            a,
            Args {
                workload: "resolve".into(),
                seed: 3,
                seconds: 10.0,
                trace: true
            }
        );
        assert!(parse(&["--workload", "nope", "--seed", "1", "--seconds", "1"]).is_err());
        assert!(parse(&["--workload", "resolve", "--seconds", "1"]).is_err());
        assert!(parse(&["--workload", "resolve", "--seed", "1", "--seconds", "0"]).is_err());
        assert!(parse(&[
            "--workload",
            "resolve",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "2"
        ])
        .is_err());
        assert!(parse(&["--bogus"]).is_err());
    }
}
