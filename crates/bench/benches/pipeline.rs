//! End-to-end RAG round trip and full-report cost, at fan-out width 1 and
//! wider.
//!
//! The `report/k=*/par{2,4}` vs `report/k=*/seq` ratios are the headline
//! numbers for the evaluation subsystem. Only the lists a report knows up
//! front (baselines, placements, insights) fan out, so the ratio stays below
//! the width. A single core shows ~1×; the bench host has 2 vCPUs, so `par4`
//! gains little over `par2` there. The ratio is recorded in the `--json`
//! output either way. The wide side is the *whole* subsystem —
//! fan-out **plus** prefix cache — measured against the uncached width-1
//! baseline; it is a subsystem speedup, not a pure thread-scaling number.

use rage_bench::workloads::{
    bench_report_config, cached_evaluator_for, evaluator_for, pipeline_for, synthetic,
};
use rage_bench::{black_box, scaled, section, Runner};
use rage_core::RageReport;

fn main() {
    let mut runner = Runner::from_args();

    section("pipeline: ask");
    for k in [3usize, 6, 10] {
        let scenario = synthetic(k);
        let pipeline = pipeline_for(&scenario);
        runner.bench(&format!("ask/k={k}"), scaled(50), || {
            black_box(
                pipeline
                    .ask(&scenario.question, scenario.retrieval_k)
                    .unwrap(),
            );
        });
    }

    section("pipeline: full report, width 1 vs wider");
    let config = bench_report_config();
    for k in [6usize, 10] {
        let scenario = synthetic(k);
        let seq = runner.bench(&format!("report/k={k}/seq"), scaled(10), || {
            let evaluator = evaluator_for(&scenario).with_width(1);
            black_box(RageReport::generate(&evaluator, &config).unwrap());
        });
        for width in [2usize, 4] {
            let par = runner.bench(&format!("report/k={k}/par{width}"), scaled(10), || {
                let evaluator = cached_evaluator_for(&scenario, width);
                black_box(RageReport::generate(&evaluator, &config).unwrap());
            });
            runner.ratio(&format!("report/k={k}/speedup@{width}"), &seq, &par);
        }
    }

    runner.finish();
}
