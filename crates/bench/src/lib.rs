//! # rage-bench
//!
//! A dependency-free micro-benchmark harness for the RAGE workspace.
//!
//! The environment has no access to `criterion`, so the bench targets use this
//! small harness instead. It provides the three things CI needs to track
//! performance over time:
//!
//! * **warm-up calibration** — instead of a fixed warm-up count, each case is
//!   warmed up until a wall-clock target is met (so fast cases warm caches and
//!   branch predictors properly while multi-second cases don't waste minutes);
//! * **outlier rejection** — per-iteration samples are recorded and the slow
//!   tail above the Tukey fence (`Q3 + 1.5·IQR`) is discarded before the mean
//!   is computed, which makes run-to-run numbers comparable on noisy machines;
//! * **a `--json` output mode** — pass `--json <path>` to a bench binary (or
//!   set `RAGE_BENCH_JSON=<path>`) and a [`Runner`] writes every result and
//!   every derived ratio to a machine-readable file that `bench_diff` can
//!   compare against a checked-in baseline.
//!
//! Absolute numbers are indicative only; the interesting outputs are the
//! *ratios* the paper's experiments compare (pruned vs exhaustive search,
//! `O(s·k³)` vs `O(k!)` placements, `O(k·s)` vs `O(k!)` sampling) and
//! report cost at fan-out width 1 vs a wider evaluator.
//!
//! Run everything with `cargo bench`, or one target with
//! `cargo bench --bench optimal_permutations`. The `RAGE_BENCH_FAST=1`
//! environment variable shrinks iteration counts for smoke runs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::time::{Duration, Instant};

use rage_json::JsonValue;

pub use std::hint::black_box;

/// Timing result of one benchmark case.
#[derive(Debug, Clone)]
pub struct BenchResult {
    /// Label of the case.
    pub name: String,
    /// Number of timed iterations.
    pub iters: u64,
    /// Number of calibrated warm-up iterations that preceded the timing.
    pub warmup_iters: u64,
    /// Total elapsed wall-clock time over the timed iterations.
    pub total: Duration,
    /// Fastest single iteration (over *all* samples).
    pub min: Duration,
    /// Mean per-iteration time after outlier rejection.
    pub mean: Duration,
    /// Median per-iteration time (robust to outliers by construction).
    pub median: Duration,
    /// Samples above the Tukey fence that were excluded from the mean.
    pub outliers_rejected: usize,
}

impl BenchResult {
    /// Mean time per iteration over the retained (non-outlier) samples.
    pub fn mean(&self) -> Duration {
        self.mean
    }
}

/// Whether `RAGE_BENCH_FAST=1` asked for a smoke run.
pub fn fast_mode() -> bool {
    std::env::var("RAGE_BENCH_FAST")
        .map(|v| v == "1")
        .unwrap_or(false)
}

/// Scale an iteration count down in fast mode (but never to zero).
pub fn scaled(iters: u64) -> u64 {
    if fast_mode() {
        (iters / 10).max(1)
    } else {
        iters
    }
}

/// Wall-clock warm-up target: enough to stabilise caches without dominating
/// the run (smaller in fast mode).
fn warmup_target() -> Duration {
    if fast_mode() {
        Duration::from_millis(2)
    } else {
        Duration::from_millis(25)
    }
}

/// Upper bound on warm-up iterations: large enough that microsecond-scale
/// cases genuinely reach the wall-clock target (which is what bounds slow
/// cases — they exit after their first iteration crosses it), small enough to
/// cap pathological nanosecond-scale loops.
const MAX_WARMUP_ITERS: u64 = 100_000;

/// Calibrated warm-up: run `f` until the warm-up target elapses (at least
/// once, at most [`MAX_WARMUP_ITERS`] times). Returns the number of warm-up
/// runs.
fn calibrated_warmup<F: FnMut()>(f: &mut F) -> u64 {
    let target = warmup_target();
    let start = Instant::now();
    let mut count = 0u64;
    while count < MAX_WARMUP_ITERS {
        f();
        count += 1;
        if start.elapsed() >= target {
            break;
        }
    }
    count
}

/// Robust summary of per-iteration samples: `(mean, median, rejected)` where
/// the mean excludes samples above the Tukey fence `Q3 + 1.5·IQR`. Slow-tail
/// outliers (scheduler preemption, page faults) say nothing about the code
/// under test; fast samples are never rejected.
fn robust_summary(samples: &[Duration]) -> (Duration, Duration, usize) {
    debug_assert!(!samples.is_empty());
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let median = sorted[sorted.len() / 2];
    let quartile = |fraction: f64| -> Duration {
        let idx = ((sorted.len() - 1) as f64 * fraction).round() as usize;
        sorted[idx]
    };
    let q1 = quartile(0.25);
    let q3 = quartile(0.75);
    let iqr = q3.saturating_sub(q1);
    let fence = q3 + iqr.mul_f64(1.5);
    let retained: Vec<Duration> = sorted.iter().copied().filter(|&s| s <= fence).collect();
    let rejected = sorted.len() - retained.len();
    let total: Duration = retained.iter().sum();
    let mean = total / retained.len().max(1) as u32;
    (mean, median, rejected)
}

/// Time `f` for `iters` iterations after a calibrated warm-up, with
/// per-iteration sampling and outlier-rejected statistics.
pub fn bench<F: FnMut()>(name: &str, iters: u64, mut f: F) -> BenchResult {
    let warmup_iters = calibrated_warmup(&mut f);
    let mut samples = Vec::with_capacity(iters as usize);
    let start = Instant::now();
    for _ in 0..iters {
        let iteration = Instant::now();
        f();
        samples.push(iteration.elapsed());
    }
    let total = start.elapsed();
    let min = samples.iter().copied().min().unwrap_or_default();
    let (mean, median, outliers_rejected) = robust_summary(&samples);
    let result = BenchResult {
        name: name.to_string(),
        iters,
        warmup_iters,
        total,
        min,
        mean,
        median,
        outliers_rejected,
    };
    print_result(&result);
    result
}

fn print_result(result: &BenchResult) {
    println!(
        "{:<48} {:>8} iters  mean {:>12?}  median {:>12?}  min {:>12?}  ({} outliers)",
        result.name, result.iters, result.mean, result.median, result.min, result.outliers_rejected
    );
}

/// Print a section header.
pub fn section(title: &str) {
    println!("\n== {title} ==");
}

/// A benchmark session: runs cases, tracks results and derived ratios, and
/// writes them as JSON when `--json <path>` (or `RAGE_BENCH_JSON=<path>`) was
/// given — the output `bench_diff` consumes for regression checks.
#[derive(Debug, Default)]
pub struct Runner {
    json_path: Option<String>,
    results: Vec<BenchResult>,
    ratios: Vec<(String, f64)>,
    counters: Vec<(String, f64)>,
}

impl Runner {
    /// Build a runner from the process arguments (`--json <path>`, with the
    /// `RAGE_BENCH_JSON` environment variable as fallback).
    ///
    /// Cargo's libtest shim flags (`--bench`, filters) are ignored, so bench
    /// binaries remain runnable both via `cargo bench` and directly.
    pub fn from_args() -> Self {
        let args: Vec<String> = std::env::args().collect();
        let mut json_path = std::env::var("RAGE_BENCH_JSON")
            .ok()
            .filter(|p| !p.is_empty());
        let mut i = 0;
        while i < args.len() {
            if args[i] == "--json" {
                if let Some(path) = args.get(i + 1) {
                    json_path = Some(path.clone());
                    i += 1;
                }
            }
            i += 1;
        }
        Self {
            json_path,
            ..Self::default()
        }
    }

    /// A runner that always writes to `path` (used by tests).
    pub fn with_json_path(path: impl Into<String>) -> Self {
        Self {
            json_path: Some(path.into()),
            ..Self::default()
        }
    }

    /// Run and record one case (see the free [`bench()`] function).
    pub fn bench<F: FnMut()>(&mut self, name: &str, iters: u64, f: F) -> BenchResult {
        let result = bench(name, iters, f);
        self.results.push(result.clone());
        result
    }

    /// Record a derived ratio `numerator.mean / denominator.mean` — e.g. a
    /// sequential-over-parallel speedup — and print it.
    pub fn ratio(&mut self, name: &str, numerator: &BenchResult, denominator: &BenchResult) -> f64 {
        let denom = denominator.mean.as_secs_f64();
        let value = if denom > 0.0 {
            numerator.mean.as_secs_f64() / denom
        } else {
            0.0
        };
        println!("{name:<48} {value:>8.2}x");
        self.ratios.push((name.to_string(), value));
        value
    }

    /// Record a named scalar alongside the timings — cache hit/miss counts,
    /// sizes, whatever explains the latency numbers. Counters land in the
    /// JSON document under `counters` and are report-only: `bench_diff`
    /// never gates on them, but their drift is visible in the artifacts.
    pub fn counter(&mut self, name: &str, value: f64) {
        println!("{name:<48} {value:>10.3}");
        self.counters.push((name.to_string(), value));
    }

    /// Record a [`CacheStats`](rage_llm::CacheStats) triple under a prefix:
    /// `<prefix>/hits`, `<prefix>/misses` and `<prefix>/hit_rate`.
    pub fn cache_counters(&mut self, prefix: &str, stats: rage_llm::CacheStats) {
        self.counter(&format!("{prefix}/hits"), stats.hits as f64);
        self.counter(&format!("{prefix}/misses"), stats.misses as f64);
        self.counter(&format!("{prefix}/hit_rate"), stats.hit_rate());
    }

    /// Results recorded so far.
    pub fn results(&self) -> &[BenchResult] {
        &self.results
    }

    /// Serialise every recorded result and ratio as the `rage-bench/v1` JSON
    /// document.
    pub fn to_json(&self) -> JsonValue {
        let benches = self
            .results
            .iter()
            .map(|r| {
                JsonValue::Object(vec![
                    ("name".into(), JsonValue::String(r.name.clone())),
                    ("iters".into(), JsonValue::Number(r.iters as f64)),
                    (
                        "warmup_iters".into(),
                        JsonValue::Number(r.warmup_iters as f64),
                    ),
                    (
                        "total_ns".into(),
                        JsonValue::Number(r.total.as_nanos() as f64),
                    ),
                    ("min_ns".into(), JsonValue::Number(r.min.as_nanos() as f64)),
                    (
                        "mean_ns".into(),
                        JsonValue::Number(r.mean.as_nanos() as f64),
                    ),
                    (
                        "median_ns".into(),
                        JsonValue::Number(r.median.as_nanos() as f64),
                    ),
                    (
                        "outliers_rejected".into(),
                        JsonValue::Number(r.outliers_rejected as f64),
                    ),
                ])
            })
            .collect();
        let named_numbers = |pairs: &[(String, f64)]| {
            pairs
                .iter()
                .map(|(name, value)| {
                    JsonValue::Object(vec![
                        ("name".into(), JsonValue::String(name.clone())),
                        ("value".into(), JsonValue::Number(*value)),
                    ])
                })
                .collect::<Vec<_>>()
        };
        JsonValue::Object(vec![
            (
                "schema".into(),
                JsonValue::String("rage-bench/v1".to_string()),
            ),
            ("fast_mode".into(), JsonValue::Bool(fast_mode())),
            ("benches".into(), JsonValue::Array(benches)),
            (
                "ratios".into(),
                JsonValue::Array(named_numbers(&self.ratios)),
            ),
            (
                "counters".into(),
                JsonValue::Array(named_numbers(&self.counters)),
            ),
        ])
    }

    /// Write the JSON document if a path was requested; call once at the end
    /// of a bench binary's `main`.
    pub fn finish(self) {
        if let Some(path) = &self.json_path {
            let rendered = self.to_json().render();
            std::fs::write(path, rendered + "\n")
                .unwrap_or_else(|err| panic!("failed to write bench JSON to {path}: {err}"));
            println!("\nwrote bench JSON: {path}");
        }
    }
}

/// Shared benchmark workloads (pipelines and evaluators over the scenarios).
pub mod workloads {
    use std::sync::Arc;

    use rage_core::explanation::ReportConfig;
    use rage_core::{Evaluator, RagPipeline};
    use rage_datasets::synthetic::{ranking_scenario, RankingConfig};
    use rage_datasets::Scenario;
    use rage_llm::cache::PrefixCache;
    use rage_llm::model::{SimLlm, SimLlmConfig};
    use rage_retrieval::Searcher;

    /// A pipeline over a scenario's corpus, with its prior knowledge attached.
    pub fn pipeline_for(scenario: &Scenario) -> RagPipeline {
        let searcher = Searcher::from_corpus(&scenario.corpus, 1);
        let llm = SimLlm::new(SimLlmConfig::default().with_prior(scenario.prior.clone()));
        RagPipeline::new(searcher, Arc::new(llm))
    }

    /// Like [`pipeline_for`] but with a shared [`PrefixCache`] attached to the
    /// model, so forwards reuse per-`(token, position)` state. The cache
    /// handle is returned alongside the pipeline so callers can report
    /// [`rage_llm::CacheStats`] next to their timings.
    pub fn cached_pipeline_and_cache_for(scenario: &Scenario) -> (RagPipeline, Arc<PrefixCache>) {
        let cache = Arc::new(PrefixCache::default());
        let searcher = Searcher::from_corpus(&scenario.corpus, 1);
        let llm = SimLlm::new(SimLlmConfig::default().with_prior(scenario.prior.clone()))
            .with_prefix_cache(Arc::clone(&cache));
        (RagPipeline::new(searcher, Arc::new(llm)), cache)
    }

    /// [`cached_pipeline_and_cache_for`] without the stats handle.
    pub fn cached_pipeline_for(scenario: &Scenario) -> RagPipeline {
        cached_pipeline_and_cache_for(scenario).0
    }

    /// A fresh evaluator (empty cache) over a scenario's retrieved context.
    pub fn evaluator_for(scenario: &Scenario) -> Evaluator {
        let pipeline = pipeline_for(scenario);
        let (_, evaluator) = pipeline
            .ask_and_explain(&scenario.question, scenario.retrieval_k)
            .expect("scenario question retrieves a context");
        evaluator
    }

    /// A fresh evaluator at fan-out `width` (empty cache, prefix-cached model)
    /// over a scenario's retrieved context, with the model's prefix cache
    /// handle for stats reporting.
    pub fn cached_evaluator_and_cache_for(
        scenario: &Scenario,
        width: usize,
    ) -> (Evaluator, Arc<PrefixCache>) {
        let (pipeline, cache) = cached_pipeline_and_cache_for(scenario);
        let response = pipeline
            .ask(&scenario.question, scenario.retrieval_k)
            .expect("scenario question retrieves a context");
        (
            pipeline.evaluator(response.context).with_width(width),
            cache,
        )
    }

    /// [`cached_evaluator_and_cache_for`] without the stats handle.
    pub fn cached_evaluator_for(scenario: &Scenario, width: usize) -> Evaluator {
        cached_evaluator_and_cache_for(scenario, width).0
    }

    /// A synthetic ranking scenario with `k` sources.
    pub fn synthetic(k: usize) -> Scenario {
        ranking_scenario(RankingConfig {
            num_sources: k,
            ..RankingConfig::default()
        })
    }

    /// The trimmed report configuration the report benches use: every search
    /// is exercised but budgets are bounded so one report costs tens of
    /// evaluations rather than hundreds.
    pub fn bench_report_config() -> ReportConfig {
        ReportConfig {
            num_optimal_orders: 2,
            combination_budget: Some(48),
            permutation_budget: Some(32),
            insight_samples: 12,
            seed: 7,
            ..ReportConfig::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_runs_and_reports() {
        let mut count = 0u64;
        let result = bench("noop", 10, || {
            count += 1;
            black_box(count);
        });
        assert_eq!(result.iters, 10);
        // 10 timed + at least 1 warm-up.
        assert!(count >= 11);
        assert!(result.warmup_iters >= 1);
        assert!(result.mean() >= result.min);
        assert!(result.median >= result.min);
    }

    #[test]
    fn scaled_never_reaches_zero() {
        assert!(scaled(1) >= 1);
        assert!(scaled(1000) >= 1);
    }

    #[test]
    fn outlier_rejection_discards_the_slow_tail() {
        let mut samples = vec![Duration::from_micros(100); 20];
        samples.push(Duration::from_millis(50)); // scheduler hiccup
        let (mean, median, rejected) = robust_summary(&samples);
        assert_eq!(rejected, 1);
        assert_eq!(median, Duration::from_micros(100));
        assert_eq!(mean, Duration::from_micros(100));
    }

    #[test]
    fn uniform_samples_reject_nothing() {
        let samples = vec![Duration::from_micros(500); 16];
        let (mean, _, rejected) = robust_summary(&samples);
        assert_eq!(rejected, 0);
        assert_eq!(mean, Duration::from_micros(500));
    }

    #[test]
    fn runner_records_results_ratios_and_writes_json() {
        let path = std::env::temp_dir().join("rage_bench_runner_test.json");
        let path_str = path.to_string_lossy().to_string();
        let mut runner = Runner::with_json_path(&path_str);
        let a = runner.bench("case/a", 5, || {
            black_box(fibonacci(12));
        });
        let b = runner.bench("case/b", 5, || {
            black_box(fibonacci(12));
        });
        let speedup = runner.ratio("case/speedup", &a, &b);
        assert!(speedup > 0.0);
        assert_eq!(runner.results().len(), 2);
        runner.counter("case/a/cache_hits", 17.0);
        runner.cache_counters(
            "case/b/cache",
            rage_llm::CacheStats {
                hits: 3,
                misses: 1,
                evictions: 0,
            },
        );

        runner.finish();
        let raw = std::fs::read_to_string(&path).unwrap();
        let parsed = JsonValue::parse(raw.trim()).unwrap();
        assert_eq!(
            parsed.get("schema").and_then(|s| s.as_str()),
            Some("rage-bench/v1")
        );
        let benches = match parsed.get("benches") {
            Some(JsonValue::Array(items)) => items,
            other => panic!("benches missing: {other:?}"),
        };
        assert_eq!(benches.len(), 2);
        assert_eq!(
            benches[0].get("name").and_then(|n| n.as_str()),
            Some("case/a")
        );
        assert!(matches!(
            benches[0].get("mean_ns"),
            Some(JsonValue::Number(n)) if *n > 0.0
        ));
        let ratios = match parsed.get("ratios") {
            Some(JsonValue::Array(items)) => items,
            other => panic!("ratios missing: {other:?}"),
        };
        assert_eq!(
            ratios[0].get("name").and_then(|n| n.as_str()),
            Some("case/speedup")
        );
        let counters = match parsed.get("counters") {
            Some(JsonValue::Array(items)) => items,
            other => panic!("counters missing: {other:?}"),
        };
        assert_eq!(counters.len(), 4);
        assert_eq!(
            counters[0].get("name").and_then(|n| n.as_str()),
            Some("case/a/cache_hits")
        );
        assert!(matches!(
            counters[0].get("value"),
            Some(JsonValue::Number(n)) if *n == 17.0
        ));
        assert_eq!(
            counters[3].get("name").and_then(|n| n.as_str()),
            Some("case/b/cache/hit_rate")
        );
        assert!(matches!(
            counters[3].get("value"),
            Some(JsonValue::Number(n)) if (*n - 0.75).abs() < 1e-12
        ));
        let _ = std::fs::remove_file(&path);
    }

    fn fibonacci(n: u64) -> u64 {
        if n < 2 {
            n
        } else {
            fibonacci(n - 1) + fibonacci(n - 2)
        }
    }
}
