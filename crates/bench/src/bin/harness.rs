//! Smoke harness: run a full explanation over every demonstration scenario —
//! at fan-out width 1 and through a width-4 evaluator — check that the two
//! reports are equal, and print the summaries plus cost accounting and
//! speedups.
//!
//! `cargo run -p rage-bench --bin harness [--fast] [--width N] [--json PATH]`
//!
//! With `--json PATH` a machine-readable summary is written: per scenario the
//! width-1 and wide wall-clock, the `speedup@N` ratio, the LLM-call counts and
//! the answers, so CI can diff explanation cost across commits.

use std::time::Instant;

use rage_bench::workloads::{cached_evaluator_and_cache_for, evaluator_for};
use rage_core::explanation::ReportConfig;
use rage_core::RageReport;
use rage_datasets::{big_three, timeline, us_open};
use rage_json::JsonValue;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let fast = args.iter().any(|a| a == "--fast");
    let width = args
        .iter()
        .position(|a| a == "--width")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse::<usize>().ok())
        .unwrap_or(4);
    let json_path = args
        .iter()
        .position(|a| a == "--json")
        .and_then(|i| args.get(i + 1))
        .cloned();

    let mut config = ReportConfig::default();
    if fast {
        config.insight_samples = 8;
        config.permutation_budget = Some(32);
    }

    let mut scenario_values = Vec::new();
    let mut failures = 0usize;
    for scenario in [
        big_three::scenario(),
        us_open::scenario(),
        timeline::scenario(),
    ] {
        println!("=== scenario: {} ===", scenario.name);

        // Width-1 baseline.
        let sequential = evaluator_for(&scenario).with_width(1);
        let seq_start = Instant::now();
        let seq_report = match RageReport::generate(&sequential, &config) {
            Ok(report) => report,
            Err(err) => {
                println!("error: {err}\n");
                failures += 1;
                continue;
            }
        };
        let seq_elapsed = seq_start.elapsed();

        // The same explanation fanned out, over a prefix-cached model.
        let (parallel, prefix_cache) = cached_evaluator_and_cache_for(&scenario, width);
        let par_start = Instant::now();
        let par_report = match RageReport::generate(&parallel, &config) {
            Ok(report) => report,
            Err(err) => {
                println!("error: {err}\n");
                failures += 1;
                continue;
            }
        };
        let par_elapsed = par_start.elapsed();
        let speedup = seq_elapsed.as_secs_f64() / par_elapsed.as_secs_f64().max(1e-9);

        assert_eq!(
            seq_report, par_report,
            "fan-out must not change a report, cost counters included"
        );

        let cache_stats = prefix_cache.stats();
        print!("{}", seq_report.summary());
        println!(
            "expected answer: {} | width 1: {seq_elapsed:?} | width {width}: \
             {par_elapsed:?} | speedup@{width}: {speedup:.2}x | prefix cache: \
             {} hits / {} misses ({:.1}% hit rate)\n",
            scenario.expected_full_context_answer,
            cache_stats.hits,
            cache_stats.misses,
            cache_stats.hit_rate() * 100.0
        );

        scenario_values.push(JsonValue::Object(vec![
            ("name".into(), JsonValue::String(scenario.name.clone())),
            (
                "answer".into(),
                JsonValue::String(seq_report.full_context_answer.clone()),
            ),
            (
                "sequential_ns".into(),
                JsonValue::Number(seq_elapsed.as_nanos() as f64),
            ),
            (
                "parallel_ns".into(),
                JsonValue::Number(par_elapsed.as_nanos() as f64),
            ),
            ("width".into(), JsonValue::Number(width as f64)),
            ("speedup".into(), JsonValue::Number(speedup)),
            (
                "sequential_llm_calls".into(),
                JsonValue::Number(seq_report.llm_calls as f64),
            ),
            (
                "parallel_llm_calls".into(),
                JsonValue::Number(par_report.llm_calls as f64),
            ),
            // The evaluator's perturbation-memo hit rate.
            (
                "parallel_memo_hit_rate".into(),
                JsonValue::Number(parallel.cache_stats().hit_rate()),
            ),
            // The SimLlm prefix cache's own counters: reuse of per-(token,
            // position) embedding/projection state across perturbed forwards.
            (
                "prefix_cache_hits".into(),
                JsonValue::Number(cache_stats.hits as f64),
            ),
            (
                "prefix_cache_misses".into(),
                JsonValue::Number(cache_stats.misses as f64),
            ),
            (
                "prefix_cache_hit_rate".into(),
                JsonValue::Number(cache_stats.hit_rate()),
            ),
        ]));
    }

    if let Some(path) = json_path {
        let document = JsonValue::Object(vec![
            (
                "schema".into(),
                JsonValue::String("rage-harness/v1".to_string()),
            ),
            ("width".into(), JsonValue::Number(width as f64)),
            ("fast".into(), JsonValue::Bool(fast)),
            ("scenarios".into(), JsonValue::Array(scenario_values)),
        ]);
        std::fs::write(&path, document.render() + "\n")
            .unwrap_or_else(|err| panic!("failed to write harness JSON to {path}: {err}"));
        println!("wrote harness JSON: {path}");
    }

    // A scenario that cannot be explained is a failed smoke run — exit
    // non-zero so the CI step goes red instead of green-with-errors.
    if failures > 0 {
        eprintln!("harness: {failures} scenario run(s) failed");
        std::process::exit(1);
    }
}
