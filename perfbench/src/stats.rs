//! Sample statistics shared by every workload: nearest-rank percentiles,
//! medians, the `ok_share` rule, span self time and the request-mix check.

use std::time::Duration;

/// Nearest-rank percentile of an ascending-sorted sample: the value at rank
/// `⌈p·n/100⌉` (1-based), so p90 of 100 samples is the 90th. `None` when empty.
pub fn percentile(sorted: &[f64], p: u64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let n = sorted.len() as u64;
    let rank = (p.clamp(1, 100) * n).div_ceil(100).max(1);
    Some(sorted[rank as usize - 1])
}

/// Median of an unsorted sample (the mean of the two middle values when even).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Share of attempted operations that returned and passed their correctness
/// check. A failed or refused operation never passes, so it counts as a miss.
pub fn ok_share(attempted: u64, failed: u64) -> f64 {
    if attempted == 0 {
        return 0.0;
    }
    attempted.saturating_sub(failed) as f64 / attempted as f64
}

/// `numerator / denominator`, or 0 when nothing was counted.
pub fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator == 0.0 {
        0.0
    } else {
        numerator / denominator
    }
}

/// Milliseconds of a duration.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// A half-open time interval `[start, end)` in nanoseconds.
pub type Interval = (u64, u64);

/// Self time of a span: its length minus the part of it that the union of its
/// children's intervals covers. Children may nest inside each other or overlap
/// (parallel work), and parts of a child outside the parent are ignored.
pub fn self_time(parent: Interval, children: &[Interval]) -> u64 {
    let mut clipped: Vec<Interval> = children
        .iter()
        .map(|&(s, e)| (s.max(parent.0), e.min(parent.1)))
        .filter(|&(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut covered = 0;
    let mut run: Option<Interval> = None;
    for (s, e) in clipped {
        match run {
            Some((rs, re)) if s <= re => run = Some((rs, re.max(e))),
            Some((rs, re)) => {
                covered += re - rs;
                run = Some((s, e));
            }
            None => run = Some((s, e)),
        }
    }
    if let Some((rs, re)) = run {
        covered += re - rs;
    }
    parent.1.saturating_sub(parent.0) - covered
}

/// A request class of a workload mix: its share of requests by count and the
/// latency band its requests fall in.
#[derive(Debug, Clone, Copy)]
pub struct MixClass {
    pub name: &'static str,
    pub share: f64,
    pub latency_ms: f64,
}

/// The class holding the nearest-rank percentile `p` when requests are sorted
/// by latency, and how far (in share of all requests) that rank sits from the
/// nearer edge of the class. A mix whose p50 and p90 each sit well inside one
/// class reports the same class from run to run; a percentile near an edge
/// flips between two classes with every small change of the mix.
pub fn percentile_class(classes: &[MixClass], p: f64) -> (&'static str, f64) {
    let mut sorted = classes.to_vec();
    sorted.sort_by(|a, b| a.latency_ms.total_cmp(&b.latency_ms));
    let total: f64 = sorted.iter().map(|c| c.share).sum();
    let q = p / 100.0;
    let mut low = 0.0;
    for class in &sorted {
        let high = low + class.share / total;
        if q < high || class.name == sorted[sorted.len() - 1].name {
            return (class.name, (q - low).min(high - q));
        }
        low = high;
    }
    unreachable!("classes are non-empty")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p90_of_100_samples_is_the_90th() {
        let sorted: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&sorted, 90), Some(90.0));
        assert_eq!(percentile(&sorted, 50), Some(50.0));
        assert_eq!(percentile(&sorted, 100), Some(100.0));
    }

    #[test]
    fn nearest_rank_rounds_up_and_handles_small_samples() {
        let sorted: Vec<f64> = (1..=95).map(f64::from).collect();
        // ⌈90 · 95 / 100⌉ = ⌈85.5⌉ = 86.
        assert_eq!(percentile(&sorted, 90), Some(86.0));
        assert_eq!(percentile(&[7.0], 90), Some(7.0));
        assert_eq!(percentile(&[], 50), None);
    }

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn failed_and_refused_ops_are_misses() {
        // 100 attempted: 3 failed their check, 2 were refused — 5 misses.
        assert_eq!(ok_share(100, 5), 0.95);
        assert_eq!(ok_share(10, 0), 1.0);
        assert_eq!(ok_share(10, 10), 0.0);
        assert_eq!(ok_share(0, 0), 0.0);
    }

    #[test]
    fn self_time_without_children_is_the_span() {
        assert_eq!(self_time((10, 50), &[]), 40);
    }

    #[test]
    fn self_time_subtracts_nested_children_once() {
        // A child nested inside another child covers nothing new.
        assert_eq!(self_time((0, 100), &[(10, 40), (20, 30)]), 70);
        // Disjoint children add up.
        assert_eq!(self_time((0, 100), &[(10, 20), (50, 70)]), 70);
    }

    #[test]
    fn self_time_merges_overlapping_children_and_clips_to_the_parent() {
        // [10, 40) ∪ [30, 60) = [10, 60): 50 covered.
        assert_eq!(self_time((0, 100), &[(30, 60), (10, 40)]), 50);
        // Parts outside the parent do not count; a child fully outside is ignored.
        assert_eq!(self_time((20, 80), &[(0, 30), (70, 120), (90, 95)]), 40);
        // Children covering everything leave no self time.
        assert_eq!(self_time((0, 10), &[(0, 6), (5, 10)]), 0);
    }

    #[test]
    fn percentile_class_reports_the_class_and_its_margin() {
        let classes = [
            MixClass {
                name: "slow",
                share: 0.2,
                latency_ms: 60.0,
            },
            MixClass {
                name: "fast",
                share: 0.3,
                latency_ms: 1.0,
            },
            MixClass {
                name: "mid",
                share: 0.5,
                latency_ms: 15.0,
            },
        ];
        let (class, margin) = percentile_class(&classes, 50.0);
        assert_eq!(class, "mid");
        assert!((margin - 0.2).abs() < 1e-12);
        let (class, margin) = percentile_class(&classes, 90.0);
        assert_eq!(class, "slow");
        assert!((margin - 0.1).abs() < 1e-12);
    }
}
