//! E7: counterfactual search cost under the pruned enumeration, at fan-out
//! width 1 and width 4. The searches evaluate one candidate at a time, so the
//! width-4 legs differ from width 1 only by their prefix-cached model.
//!
//! Each iteration runs on a fresh evaluator so the LLM-call cache does not
//! flatter the numbers.

use rage_bench::workloads::{cached_evaluator_for, evaluator_for, synthetic};
use rage_bench::{black_box, scaled, section, Runner};
use rage_core::counterfactual::{find_combination_counterfactual, CounterfactualConfig};
use rage_core::scoring::ScoringMethod;

fn main() {
    let mut runner = Runner::from_args();

    section("counterfactual: top-down combination search");
    for k in [4usize, 6, 8] {
        let scenario = synthetic(k);
        let config = CounterfactualConfig::top_down()
            .with_scoring(ScoringMethod::RetrievalScore)
            .with_budget(512);
        runner.bench(&format!("top-down/k={k}"), scaled(20), || {
            let evaluator = evaluator_for(&scenario);
            black_box(find_combination_counterfactual(&evaluator, &config).unwrap());
        });
    }

    section("counterfactual: bottom-up combination search");
    for k in [4usize, 6, 8] {
        let scenario = synthetic(k);
        let config = CounterfactualConfig::bottom_up()
            .with_scoring(ScoringMethod::RetrievalScore)
            .with_budget(512);
        runner.bench(&format!("bottom-up/k={k}"), scaled(20), || {
            let evaluator = evaluator_for(&scenario);
            black_box(find_combination_counterfactual(&evaluator, &config).unwrap());
        });
    }

    section("counterfactual: top-down, width 1 vs width 4");
    for k in [6usize, 8] {
        let scenario = synthetic(k);
        let config = CounterfactualConfig::top_down()
            .with_scoring(ScoringMethod::RetrievalScore)
            .with_budget(512);
        let seq = runner.bench(&format!("top-down/k={k}/seq"), scaled(10), || {
            let evaluator = evaluator_for(&scenario).with_width(1);
            black_box(find_combination_counterfactual(&evaluator, &config).unwrap());
        });
        let par = runner.bench(&format!("top-down/k={k}/par4"), scaled(10), || {
            let evaluator = cached_evaluator_for(&scenario, 4);
            black_box(find_combination_counterfactual(&evaluator, &config).unwrap());
        });
        runner.ratio(&format!("top-down/k={k}/speedup@4"), &seq, &par);
    }

    runner.finish();
}
