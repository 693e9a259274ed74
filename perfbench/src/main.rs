//! `rage-perfbench`: the repository's benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     [--workload explain|serve|resolve] [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Three closed-loop workloads run against the release build:
//!
//! * `explain` — one analyst explains distinct affiliation questions end to
//!   end (retrieval, every explanation search, JSON render).
//! * `serve` — two keep-alive HTTP clients against an in-process
//!   `rage_server::Server`: seeded `/ask` lookups, cached report reads and one
//!   writer replaying the `live_updates` mutation script.
//! * `resolve` — two threads run batches of top-10 affiliation lookups against
//!   a 100k-record registry; the model is never called.
//!
//! With `--trace 0` a run prints every end-to-end metric; with `--trace 1` it
//! interleaves traced and untraced ops, prints every per-layer metric and
//! writes its spans to `.bench_out/`. Either way every output is checked
//! after the timed window, and the last line of standard output is one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`. The exit code is
//! 0 only when every check passed. Without `--workload` every workload runs
//! in its own child process and their results are printed one after another.

mod closed_loop;
mod explain;
mod host;
mod resolve;
mod serve;
mod stats;
mod trace;

use std::process::ExitCode;
use std::time::Instant;

/// Settings of one run, parsed from the command line.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// How many times each run sets its workload up; `setup_s` is the median.
pub const SETUP_REPEATS: usize = 5;

/// The end-to-end metrics every workload prints with `--trace 0`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("throughput_ops_s", "ops/s"),
    ("ok_share", "share"),
    ("hit_at_1", "share"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer metrics every workload prints with `--trace 1`. A layer a
/// workload does not reach reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("llm.forwards_per_op", "count"),
    ("llm.forward_ms", "ms"),
    ("llm.forward_share", "share"),
    ("llm.prompt_tokens", "count"),
    ("llm.prefix_cache_hit_rate", "share"),
    ("core.baseline.ms", "ms"),
    ("core.baseline.forwards", "count"),
    ("core.baseline.evaluations", "count"),
    ("core.top_down.ms", "ms"),
    ("core.top_down.forwards", "count"),
    ("core.top_down.evaluations", "count"),
    ("core.bottom_up.ms", "ms"),
    ("core.bottom_up.forwards", "count"),
    ("core.bottom_up.evaluations", "count"),
    ("core.permutation.ms", "ms"),
    ("core.permutation.forwards", "count"),
    ("core.permutation.evaluations", "count"),
    ("core.placements.ms", "ms"),
    ("core.placements.forwards", "count"),
    ("core.placements.evaluations", "count"),
    ("core.insights.ms", "ms"),
    ("core.insights.forwards", "count"),
    ("core.insights.evaluations", "count"),
    ("core.self_ms", "ms"),
    ("core.memo_hit_rate", "share"),
    ("core.flip_share", "share"),
    ("retrieval.search_ms", "ms"),
    ("retrieval.searches_per_op", "count"),
    ("retrieval.build_s", "s"),
    ("retrieval.index_mb", "MB"),
    ("report.render_ms", "ms"),
    ("report.cached_read_ms", "ms"),
    ("report.cached_read_registry_ms", "ms"),
    ("report.fresh_report_ms", "ms"),
    ("report.write_ms", "ms"),
    ("report.cache_hit_rate", "share"),
    ("server.ask.ms", "ms"),
    ("server.ask.overhead_ms", "ms"),
    ("server.fresh_report.ms", "ms"),
    ("server.fresh_report.overhead_ms", "ms"),
    ("server.cached_read.ms", "ms"),
    ("server.cached_read.overhead_ms", "ms"),
    ("server.write.ms", "ms"),
    ("server.write.overhead_ms", "ms"),
    ("server.ask_batch_size", "count"),
    ("server.connections_per_request", "share"),
    ("setup.corpus_s", "s"),
    ("setup.build_s", "s"),
    ("setup.warmup_s", "s"),
    ("host.calib_ms", "ms"),
    ("trace.overhead_share", "share"),
    ("trace.coverage", "share"),
];

/// One metric value with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// What a workload run produced: its op counts and one value per metric of
/// the table it was asked for.
#[derive(Debug, Clone)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

/// Metric values keyed by name, filled by a workload and checked against one
/// of the tables above when it is turned into an [`Outcome`].
#[derive(Debug, Default)]
pub struct Values(Vec<(&'static str, f64)>);

impl Values {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.retain(|(n, _)| *n != name);
        self.0.push((name, value));
    }

    /// One metric per entry of `table`, in table order. Metrics the workload
    /// did not set read 0; a set name outside the table is a bug.
    pub fn into_metrics(self, table: &[(&str, &'static str)]) -> Vec<Metric> {
        for (name, _) in &self.0 {
            assert!(
                table.iter().any(|(n, _)| n == name),
                "metric {name} is not in the table"
            );
        }
        table
            .iter()
            .map(|&(name, unit)| Metric {
                name: name.to_string(),
                value: self
                    .0
                    .iter()
                    .find(|(n, _)| *n == name)
                    .map_or(0.0, |(_, v)| *v),
                unit,
            })
            .collect()
    }
}

/// The inputs of the end-to-end table that every workload measures the same way.
#[derive(Debug, Default)]
pub struct Measured {
    /// Duration of each set-up, in seconds.
    pub setup_s: Vec<f64>,
    /// Latency of each completed op in the timed window, in ms.
    pub latencies_ms: Vec<f64>,
    /// Wall time of the timed window, in seconds.
    pub wall_s: f64,
    pub peak_rss_mb: f64,
    pub attempted: u64,
    pub failed: u64,
    /// Lookups whose top-ranked record was the expected one, of `lookups`.
    pub hits: u64,
    pub lookups: u64,
}

impl Measured {
    /// The timed latencies and wall time of a run, and every op it attempted;
    /// the workload adds failures and hits from its checks.
    pub fn new<R>(setup_s: Vec<f64>, window: &closed_loop::Window<R>) -> Measured {
        Measured {
            setup_s,
            latencies_ms: window.timed_latencies_ms(),
            wall_s: window.wall_s,
            peak_rss_mb: window.peak_rss_mb,
            attempted: window.ops.len() as u64,
            ..Measured::default()
        }
    }

    pub fn end_to_end(&self, values: &mut Values) {
        let mut sorted = self.latencies_ms.clone();
        sorted.sort_by(f64::total_cmp);
        values.set("setup_s", stats::median(&self.setup_s));
        values.set(
            "latency_p50_ms",
            stats::percentile(&sorted, 50).unwrap_or(0.0),
        );
        values.set(
            "latency_p90_ms",
            stats::percentile(&sorted, 90).unwrap_or(0.0),
        );
        values.set(
            "throughput_ops_s",
            stats::ratio(self.latencies_ms.len() as f64, self.wall_s),
        );
        values.set("ok_share", stats::ok_share(self.attempted, self.failed));
        values.set(
            "hit_at_1",
            stats::ratio(self.hits as f64, self.lookups as f64),
        );
        values.set("peak_rss_mb", self.peak_rss_mb);
    }
}

/// Seconds a set-up spent per phase.
#[derive(Debug, Clone, Copy, Default)]
pub struct Phases {
    pub corpus_s: f64,
    pub build_s: f64,
    pub warmup_s: f64,
}

/// A workload set up [`SETUP_REPEATS`] times. Each instance is dropped before
/// the next is built, so peak memory is that of one instance; the last one is
/// kept for the timed window.
pub struct Setup<T> {
    pub instance: T,
    /// Wall time of each set-up, in seconds.
    pub seconds: Vec<f64>,
    /// Median of each phase over the set-ups.
    pub phases: Phases,
}

impl<T> Setup<T> {
    pub fn repeat(mut build: impl FnMut() -> Result<(T, Phases), String>) -> Result<Self, String> {
        let mut instance = None;
        let mut seconds = Vec::new();
        let mut phases = Vec::new();
        for _ in 0..SETUP_REPEATS {
            drop(instance.take());
            let start = Instant::now();
            let (built, phase) = build()?;
            seconds.push(start.elapsed().as_secs_f64());
            phases.push(phase);
            instance = Some(built);
        }
        let median_of =
            |f: fn(&Phases) -> f64| stats::median(&phases.iter().map(f).collect::<Vec<_>>());
        Ok(Setup {
            instance: instance.expect("at least one set-up"),
            seconds,
            phases: Phases {
                corpus_s: median_of(|p| p.corpus_s),
                build_s: median_of(|p| p.build_s),
                warmup_s: median_of(|p| p.warmup_s),
            },
        })
    }

    /// Record the set-up phases as per-layer values.
    pub fn report_phases(&self, values: &mut Values) {
        values.set("setup.corpus_s", self.phases.corpus_s);
        values.set("setup.build_s", self.phases.build_s);
        values.set("setup.warmup_s", self.phases.warmup_s);
    }
}

/// Write a traced run's spans to `.bench_out/` in the working directory.
pub fn write_spans(workload: &str, seed: u64, spans: &[trace::Span]) {
    let path = std::path::PathBuf::from(format!(".bench_out/spans-{workload}-seed{seed}.jsonl"));
    match trace::write_jsonl(&path, spans) {
        Ok(()) => eprintln!(
            "{workload}: wrote {} spans to {}",
            spans.len(),
            path.display()
        ),
        Err(err) => eprintln!("{workload}: cannot write {}: {err}", path.display()),
    }
}

/// Seconds since `start`.
pub fn secs_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

const WORKLOADS: &[&str] = &["explain", "serve", "resolve"];

fn usage() -> &'static str {
    "usage: rage-perfbench [--workload explain|serve|resolve] [--seed N] [--seconds S] [--trace 0|1]\n\
     Runs one workload (every workload, each in its own process, when --workload\n\
     is omitted) and prints its metrics; the last line is the JSON result.\n"
}

fn parse_args(args: &[String]) -> Result<(Option<String>, Options), String> {
    let mut workload = None;
    let mut options = Options {
        seed: 1,
        seconds: 30.0,
        trace: false,
    };
    let mut i = 0;
    while i < args.len() {
        let value = args
            .get(i + 1)
            .ok_or_else(|| format!("{} needs a value", args[i]))?;
        match args[i].as_str() {
            "--workload" => {
                if !WORKLOADS.contains(&value.as_str()) {
                    return Err(format!("unknown workload {value:?}"));
                }
                workload = Some(value.clone());
            }
            "--seed" => {
                options.seed = value
                    .parse()
                    .map_err(|_| format!("--seed needs an integer, got {value:?}"))?
            }
            "--seconds" => {
                options.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0 && s.is_finite())
                    .ok_or_else(|| format!("--seconds needs a positive number, got {value:?}"))?
            }
            "--trace" => {
                options.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace needs 0 or 1, got {value:?}")),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
        i += 2;
    }
    Ok((workload, options))
}

/// The result line: the JSON object the last line of standard output carries.
fn result_json(outcome: &Outcome) -> String {
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                r#""{}": {{"value": {value}, "unit": "{}"}}"#,
                m.name, m.unit
            )
        })
        .collect();
    format!(
        r#"{{"correct": {}, "attempted": {}, "failed": {}, "metrics": {{{}}}}}"#,
        outcome.failed == 0 && outcome.attempted > 0,
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    )
}

/// Run one workload. Workloads return their per-layer values (filled only
/// when tracing) and the measurements behind the end-to-end table.
fn run_one(workload: &str, options: &Options) -> Result<Outcome, String> {
    let mut calib = host::calibrate(15);
    let (mut values, measured) = match workload {
        "explain" => explain::run(options)?,
        "serve" => serve::run(options)?,
        "resolve" => resolve::run(options)?,
        other => return Err(format!("unknown workload {other:?}")),
    };
    calib.extend(host::calibrate(15));
    let calib_ms = stats::median(&calib);
    eprintln!("{workload}: host calibration {calib_ms:.4} ms per fib(27)");
    let table = if options.trace {
        values.set("host.calib_ms", calib_ms);
        PER_LAYER
    } else {
        measured.end_to_end(&mut values);
        END_TO_END
    };
    Ok(Outcome {
        attempted: measured.attempted,
        failed: measured.failed,
        metrics: values.into_metrics(table),
    })
}

fn print_outcome(workload: &str, outcome: &Outcome) {
    for m in &outcome.metrics {
        println!("{workload:8} {:34} {:>14.4} {}", m.name, m.value, m.unit);
    }
    println!(
        "{workload:8} ops attempted {}, failed {}",
        outcome.attempted, outcome.failed
    );
}

/// Every workload, each in a child process of this binary so that peak
/// memory and caches stay per workload. Metric names get the workload as a
/// prefix in the combined result.
fn run_all(options: &Options) -> Result<Outcome, String> {
    let exe = std::env::current_exe().map_err(|err| format!("cannot locate self: {err}"))?;
    let mut combined = Outcome {
        attempted: 0,
        failed: 0,
        metrics: Vec::new(),
    };
    for workload in WORKLOADS {
        let output = std::process::Command::new(&exe)
            .args(["--workload", workload])
            .args(["--seed", &options.seed.to_string()])
            .args(["--seconds", &options.seconds.to_string()])
            .args(["--trace", if options.trace { "1" } else { "0" }])
            .stderr(std::process::Stdio::inherit())
            .output()
            .map_err(|err| format!("cannot run {workload}: {err}"))?;
        let stdout = String::from_utf8_lossy(&output.stdout);
        let last = stdout.lines().last().unwrap_or_default();
        let parsed = rage_json::JsonValue::parse(last)
            .map_err(|err| format!("{workload}: unreadable result line {last:?}: {err}"))?;
        let count = |key: &str| parsed.get(key).and_then(|v| v.as_f64()).unwrap_or(0.0) as u64;
        combined.attempted += count("attempted");
        combined.failed += count("failed");
        let table = if options.trace { PER_LAYER } else { END_TO_END };
        let mut metrics = Vec::new();
        for &(name, unit) in table {
            let value = parsed
                .get("metrics")
                .and_then(|m| m.get(name))
                .and_then(|m| m.get("value"))
                .and_then(|v| v.as_f64())
                .ok_or_else(|| format!("{workload}: result lacks {name}"))?;
            metrics.push(Metric {
                name: name.to_string(),
                value,
                unit,
            });
        }
        let outcome = Outcome {
            attempted: count("attempted"),
            failed: count("failed"),
            metrics,
        };
        print_outcome(workload, &outcome);
        if !output.status.success() {
            combined.failed = combined.failed.max(1);
        }
        combined
            .metrics
            .extend(outcome.metrics.into_iter().map(|m| Metric {
                name: format!("{workload}.{}", m.name),
                ..m
            }));
    }
    Ok(combined)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if matches!(args.first().map(String::as_str), Some("--help" | "-h")) {
        print!("{}", usage());
        return ExitCode::SUCCESS;
    }
    let (workload, options) = match parse_args(&args) {
        Ok(parsed) => parsed,
        Err(message) => {
            eprintln!("rage-perfbench: {message}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let started = Instant::now();
    let result = match &workload {
        Some(workload) => run_one(workload, &options).inspect(|o| print_outcome(workload, o)),
        None => run_all(&options),
    };
    match result {
        Ok(outcome) => {
            eprintln!(
                "rage-perfbench: done in {:.1} s",
                started.elapsed().as_secs_f64()
            );
            println!("{}", result_json(&outcome));
            if outcome.failed == 0 && outcome.attempted > 0 {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(message) => {
            eprintln!("rage-perfbench: {message}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(json: &rage_json::JsonValue, key: &str) -> Vec<(String, String)> {
        json.get(key)
            .and_then(|v| v.as_array())
            .expect("metric list")
            .iter()
            .map(|m| {
                let field = |f: &str| m.get(f).and_then(|v| v.as_str()).unwrap().to_string();
                (field("name"), field("unit"))
            })
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_the_printed_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        let json = rage_json::JsonValue::parse(&text).expect("BENCHMARK.json parses");
        let expect = |table: &[(&str, &str)]| -> Vec<(String, String)> {
            table
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(names(&json, "end_to_end"), expect(END_TO_END));
        assert_eq!(names(&json, "per_layer"), expect(PER_LAYER));
        let workloads: Vec<String> = json
            .get("workloads")
            .and_then(|v| v.as_array())
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(|v| v.as_str()).unwrap().to_string())
            .collect();
        assert_eq!(workloads, WORKLOADS);
    }

    #[test]
    fn metrics_json_maps_every_per_layer_metric_to_end_to_end_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/metrics.json");
        let text = std::fs::read_to_string(path).expect("metrics.json");
        let json = rage_json::JsonValue::parse(&text).expect("metrics.json parses");
        let list = |key: &str| {
            json.get(key)
                .and_then(|v| v.as_array())
                .expect(key)
                .to_vec()
        };
        let name =
            |m: &rage_json::JsonValue| m.get("name").and_then(|v| v.as_str()).unwrap().to_string();
        let workloads: Vec<String> = list("workloads").iter().map(name).collect();
        assert_eq!(workloads, WORKLOADS);
        let per_layer = list("per_layer");
        let names: Vec<String> = per_layer.iter().map(name).collect();
        let expected: Vec<&str> = PER_LAYER.iter().map(|(n, _)| *n).collect();
        assert_eq!(names, expected);
        for metric in &per_layer {
            let rage_json::JsonValue::Object(moves) = metric.get("moves").expect("moves") else {
                panic!("{}: moves is an object", name(metric));
            };
            for (workload, targets) in moves {
                assert!(WORKLOADS.contains(&workload.as_str()), "{workload}");
                for target in targets.as_array().expect("a list of metrics") {
                    let target = target.as_str().expect("a metric name");
                    assert!(END_TO_END.iter().any(|(n, _)| *n == target), "{target}");
                }
            }
        }
    }

    #[test]
    fn unset_metrics_read_zero_and_follow_table_order() {
        let mut values = Values::default();
        values.set("ok_share", 1.0);
        values.set("setup_s", 0.5);
        values.set("setup_s", 0.25);
        let metrics = values.into_metrics(END_TO_END);
        assert_eq!(metrics.len(), END_TO_END.len());
        assert_eq!(metrics[0].name, "setup_s");
        assert_eq!(metrics[0].value, 0.25);
        assert_eq!(metrics[4].value, 1.0);
        assert_eq!(metrics[1].value, 0.0);
    }

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let outcome = Outcome {
            attempted: 3,
            failed: 0,
            metrics: vec![Metric {
                name: "latency_p50_ms".into(),
                value: 1.25,
                unit: "ms",
            }],
        };
        let json = rage_json::JsonValue::parse(&result_json(&outcome)).unwrap();
        let rage_json::JsonValue::Object(members) = &json else {
            panic!("object expected");
        };
        let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(json.get("correct").and_then(|v| v.as_bool()), Some(true));
        let value = json
            .get("metrics")
            .and_then(|m| m.get("latency_p50_ms"))
            .and_then(|m| m.get("value"))
            .and_then(|v| v.as_f64());
        assert_eq!(value, Some(1.25));
    }

    #[test]
    fn arguments_parse_and_reject_bad_values() {
        let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let (workload, options) =
            parse_args(&args("--workload serve --seed 9 --seconds 2.5 --trace 1")).unwrap();
        assert_eq!(workload.as_deref(), Some("serve"));
        assert_eq!(options.seed, 9);
        assert_eq!(options.seconds, 2.5);
        assert!(options.trace);
        assert!(parse_args(&args("--workload nope")).is_err());
        assert!(parse_args(&args("--trace 2")).is_err());
        assert!(parse_args(&args("--seconds 0")).is_err());
        assert!(parse_args(&args("--seed")).is_err());
    }
}
