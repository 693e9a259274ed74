//! The CI regression-tracking bench: the two hot paths only, fast enough to
//! run on every pull request.
//!
//! Intended invocation (see `.github/workflows/ci.yml`):
//!
//! ```text
//! RAGE_BENCH_FAST=1 cargo bench --bench hot -- --json BENCH_pr.json
//! cargo run -p rage-bench --bin bench_diff -- \
//!     crates/bench/baselines/BENCH_baseline.json BENCH_pr.json \
//!     --threshold 0.20 --require "ask/k=10" --require "top-down/k=8"
//! ```
//!
//! The width-1-vs-width-4 report cases also run here so the fan-out speedup
//! ratio lands in `BENCH_pr.json` as a tracked artifact.

use rage_bench::workloads::{
    bench_report_config, cached_evaluator_and_cache_for, cached_evaluator_for, evaluator_for,
    pipeline_for, synthetic,
};
use rage_bench::{black_box, scaled, section, Runner};
use rage_core::counterfactual::{find_combination_counterfactual, CounterfactualConfig};
use rage_core::scoring::ScoringMethod;
use rage_core::{Deadline, RageReport};

fn main() {
    let mut runner = Runner::from_args();

    section("hot: pipeline ask");
    {
        let scenario = synthetic(10);
        let pipeline = pipeline_for(&scenario);
        // Gated in CI: keep the fast-mode sample count high enough (10+) that
        // one scheduler hiccup cannot shift the mean past the 20% fence.
        runner.bench("ask/k=10", scaled(100), || {
            black_box(
                pipeline
                    .ask(&scenario.question, scenario.retrieval_k)
                    .unwrap(),
            );
        });
    }

    section("hot: top-down counterfactual search");
    {
        let scenario = synthetic(8);
        let config = CounterfactualConfig::top_down()
            .with_scoring(ScoringMethod::RetrievalScore)
            .with_budget(512);
        // Gated in CI: see the sample-count note above.
        runner.bench("top-down/k=8", scaled(50), || {
            let evaluator = evaluator_for(&scenario);
            black_box(find_combination_counterfactual(&evaluator, &config).unwrap());
        });
    }

    section("hot: report, width 1 vs width 4");
    {
        let scenario = synthetic(8);
        let config = bench_report_config();
        let seq = runner.bench("report/k=8/seq", scaled(10), || {
            let evaluator = evaluator_for(&scenario).with_width(1);
            black_box(RageReport::generate(&evaluator, &config).unwrap());
        });
        let par = runner.bench("report/k=8/par4", scaled(10), || {
            let evaluator = cached_evaluator_for(&scenario, 4);
            black_box(RageReport::generate(&evaluator, &config).unwrap());
        });
        runner.ratio("report/k=8/speedup@4", &seq, &par);

        // One instrumented run so the SimLlm prefix cache's effectiveness on
        // this workload lands in the JSON next to the timings — a cache
        // regression (hit rate collapse) shows up in BENCH_pr.json even when
        // wall-clock noise hides it.
        let (evaluator, cache) = cached_evaluator_and_cache_for(&scenario, 4);
        black_box(RageReport::generate(&evaluator, &config).unwrap());
        runner.cache_counters("report/k=8/prefix_cache", cache.stats());
    }

    section("anytime: deadline-bounded report");
    {
        // How much explanation fits under each served SLO: the wall-clock per
        // deadline tier, plus two tracked counters per tier — did the bounded
        // run still find a flip, and did every section finish exactly? Both
        // come from one instrumented run (counters inside `bench` would count
        // warm-up iterations too).
        let scenario = synthetic(8);
        let config = bench_report_config();
        for deadline_ms in [5u64, 20, 50, 200] {
            let name = format!("anytime/report/k=8/{deadline_ms}ms");
            runner.bench(&name, scaled(10), || {
                let evaluator = evaluator_for(&scenario);
                black_box(
                    RageReport::generate_with_deadline(
                        &evaluator,
                        &config,
                        Some(Deadline::after_ms(deadline_ms)),
                    )
                    .unwrap(),
                );
            });
            let evaluator = evaluator_for(&scenario);
            let report = RageReport::generate_with_deadline(
                &evaluator,
                &config,
                Some(Deadline::after_ms(deadline_ms)),
            )
            .unwrap();
            let flip_found = report.top_down.counterfactual.is_some()
                || report.bottom_up.counterfactual.is_some();
            runner.counter(&format!("{name}/flip_found"), flip_found as u64 as f64);
            runner.counter(
                &format!("{name}/sections_exact"),
                report.all_sections_exact() as u64 as f64,
            );
        }
    }

    runner.finish();
}
