//! The closed loop every workload runs: each client sends its next op only
//! after the previous one returned.
//!
//! A run has two windows. The timed window lasts `--seconds`; only ops that
//! start inside it give latencies and throughput. The exact window is every
//! client's first `exact` ops, whatever the host speed: the exact metrics
//! (`hit_at_1`, flip and forward counts) are computed over it, so they repeat
//! exactly for a seed. A client keeps going after the timed window until it
//! has run its exact window; those late ops are checked but not timed.

use std::time::{Duration, Instant};

use crate::{host, stats, trace};

/// One op a client ran.
#[derive(Debug)]
pub struct Op<R> {
    pub client: usize,
    /// Position in the client's own sequence of ops.
    pub index: usize,
    /// Whether the op started inside the timed window.
    pub timed: bool,
    pub latency_ms: f64,
    pub result: R,
}

impl<R> Op<R> {
    /// Whether the op is inside the exact window of `exact` ops per client.
    pub fn exact(&self, exact: usize) -> bool {
        self.index < exact
    }
}

/// The trace op id of a client's op, unique across clients.
pub fn trace_id(client: usize, index: usize) -> u64 {
    ((client as u64) << 32) | index as u64
}

/// Every op of a run, ordered by client and then index, with the wall time
/// of the timed window: from its start until the last timed op returned.
#[derive(Debug)]
pub struct Window<R> {
    pub ops: Vec<Op<R>>,
    pub wall_s: f64,
    /// Peak resident set once every client finished its exact window. That
    /// is a fixed amount of work, so the results a faster run keeps for its
    /// checks do not raise it.
    pub peak_rss_mb: f64,
}

impl<R> Window<R> {
    pub fn timed_latencies_ms(&self) -> Vec<f64> {
        self.ops
            .iter()
            .filter(|op| op.timed)
            .map(|op| op.latency_ms)
            .collect()
    }
}

/// Run `clients` clients, each on its own thread with the state `init`
/// gives it, calling `op(state, client, index)` for index 0, 1, 2, … until
/// `seconds` have passed and it has run at least `exact` ops.
pub fn run<S, R: Send>(
    clients: usize,
    seconds: f64,
    exact: usize,
    init: impl Fn(usize) -> S + Sync,
    op: impl Fn(&mut S, usize, usize) -> R + Sync,
) -> Window<R> {
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let per_client: Vec<(Vec<Op<R>>, Option<Instant>, f64)> = std::thread::scope(|scope| {
        let threads: Vec<_> = (0..clients)
            .map(|client| {
                let (init, op) = (&init, &op);
                scope.spawn(move || {
                    let mut state = init(client);
                    let mut ops = Vec::new();
                    let mut last_timed_end = None;
                    let mut peak_rss_mb = 0.0;
                    loop {
                        let index = ops.len();
                        let op_start = Instant::now();
                        let timed = op_start < deadline;
                        if !timed && index >= exact {
                            break;
                        }
                        let result = op(&mut state, client, index);
                        let end = Instant::now();
                        if timed {
                            last_timed_end = Some(end);
                        }
                        ops.push(Op {
                            client,
                            index,
                            timed,
                            latency_ms: stats::ms(end - op_start),
                            result,
                        });
                        if ops.len() == exact {
                            peak_rss_mb = host::peak_rss_mb();
                        }
                    }
                    trace::flush();
                    (ops, last_timed_end, peak_rss_mb)
                })
            })
            .collect();
        threads
            .into_iter()
            .map(|t| t.join().expect("benchmark client panicked"))
            .collect()
    });
    let wall_end = per_client.iter().filter_map(|(_, end, _)| *end).max();
    Window {
        wall_s: wall_end.map_or(0.0, |end| (end - start).as_secs_f64()),
        peak_rss_mb: per_client.iter().map(|(_, _, mb)| *mb).fold(0.0, f64::max),
        ops: per_client.into_iter().flat_map(|(ops, _, _)| ops).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_client_runs_its_exact_window_even_after_the_timed_one() {
        let window = run(
            2,
            0.0,
            5,
            |client| client * 100,
            |base, client, index| *base + index + client,
        );
        for client in 0..2 {
            let ops: Vec<&Op<usize>> = window.ops.iter().filter(|o| o.client == client).collect();
            assert_eq!(ops.len(), 5);
            assert!(ops.iter().enumerate().all(|(i, o)| o.index == i));
            assert!(ops.iter().all(|o| o.result == client * 101 + o.index));
        }
        // A window that closed at once times nothing.
        assert!(window.ops.iter().all(|o| !o.timed));
        assert_eq!(window.wall_s, 0.0);
    }

    #[test]
    fn clients_run_past_the_exact_window_while_the_timed_one_is_open() {
        let window = run(
            1,
            0.2,
            1,
            |_| (),
            |_, _, _| std::thread::sleep(Duration::from_millis(2)),
        );
        let timed = window.timed_latencies_ms();
        assert!(timed.len() > 1, "only {} timed ops", timed.len());
        assert!(window.ops.iter().all(|o| o.timed));
        assert!(window.wall_s >= 0.2);
        assert!(window.peak_rss_mb > 0.0);
        assert!(timed.iter().all(|&ms| ms >= 2.0));
    }
}
