//! Full explanation reports over the three paper use cases (§III), at fan-out
//! width 1 and width 4.

use rage_bench::workloads::{cached_evaluator_for, evaluator_for};
use rage_bench::{black_box, scaled, section, Runner};
use rage_core::explanation::ReportConfig;
use rage_core::RageReport;
use rage_datasets::{big_three, timeline, us_open};

fn main() {
    let mut runner = Runner::from_args();

    section("use cases: full RageReport");
    for scenario in [
        big_three::scenario(),
        us_open::scenario(),
        timeline::scenario(),
    ] {
        let config = ReportConfig::default();
        let seq = runner.bench(&format!("report/{}", scenario.name), scaled(10), || {
            let evaluator = evaluator_for(&scenario).with_width(1);
            black_box(RageReport::generate(&evaluator, &config).unwrap());
        });
        let par = runner.bench(
            &format!("report/{}/par4", scenario.name),
            scaled(10),
            || {
                let evaluator = cached_evaluator_for(&scenario, 4);
                black_box(RageReport::generate(&evaluator, &config).unwrap());
            },
        );
        runner.ratio(&format!("report/{}/speedup@4", scenario.name), &seq, &par);
    }

    runner.finish();
}
