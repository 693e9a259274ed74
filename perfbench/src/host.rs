//! Host probes: process memory from `/proc/self/status` and a fixed
//! pure-compute calibration loop.

use std::hint::black_box;
use std::time::Instant;

use crate::stats;

/// A `kB` field of `/proc/self/status` in MB (0 where the file is unavailable).
fn status_mb(field: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status.lines().find_map(|line| {
                let value = line.strip_prefix(field)?.strip_prefix(':')?;
                value.trim().strip_suffix("kB")?.trim().parse::<f64>().ok()
            })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Peak resident set of this process so far (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    status_mb("VmHWM")
}

/// Current resident set of this process (`VmRSS`), in MB.
pub fn rss_mb() -> f64 {
    status_mb("VmRSS")
}

fn fib(n: u32) -> u64 {
    if n < 2 {
        n as u64
    } else {
        fib(n - 1) + fib(n - 2)
    }
}

/// Times in ms of `samples` runs of a fixed recursive `fib(27)` (about a
/// millisecond each). The loop never changes with the program, so a slow host
/// phase shows here and a slower program does not.
pub fn calibrate(samples: usize) -> Vec<f64> {
    (0..samples)
        .map(|_| {
            let start = Instant::now();
            black_box(fib(black_box(27)));
            stats::ms(start.elapsed())
        })
        .collect()
}
