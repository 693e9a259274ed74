//! `loadtest`: drive the `rage-server` HTTP service and record latency
//! percentiles.
//!
//! ```text
//! loadtest [--addr HOST:PORT] [--clients N] [--requests N]
//!          [--scenario NAME] [--out PATH] [--mode close|keep-alive|both]
//!          [--keep-alive]
//! ```
//!
//! Without `--addr` the bin boots an in-process [`rage_server::Server`] on an
//! ephemeral port (the CI path — no separate process to babysit); with
//! `--addr` it targets an already-running server. `--clients` concurrent
//! client threads each issue `--requests` requests in a fixed rotation of the
//! serving endpoints (`GET /scenarios`, `GET /report?format=json`, the
//! same report with `deadline_ms=50` — the anytime SLO path, measured as its
//! own `report_anytime` bucket — and `POST /ask`), plus an `entity_resolve`
//! bucket: batch entity-resolution lookups (`POST /ask` against the
//! `entity_registry` scenario, rotating through the three affiliation query
//! forms), the workload whose pruned retrieval path the retrieval benchmark
//! gates.
//!
//! Two connection disciplines are measured (both by default, so one
//! `SERVER_pr.json` records the connection-churn cost side by side):
//!
//! * **close** — every request on a fresh connection with
//!   `Connection: close`, the pre-keep-alive behaviour;
//! * **keep_alive** — each client holds one persistent connection and frames
//!   responses by `Content-Length`, reconnecting only when the server closes
//!   (idle timeout or per-connection request cap).
//!
//! Per-endpoint latencies are aggregated into p50/p95/p99 (nearest-rank) per
//! mode and written as JSON to `--out` (default `SERVER_pr.json`).
//!
//! Caveat that also lives in the server crate docs: the bench host has 2
//! vCPUs, so at most two workers run at once and these percentiles
//! understate a deployment with more cores.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use rage_datasets::entity_registry::{self, EntityRegistryConfig};
use rage_json::JsonValue;
use rage_report::Service;
use rage_server::{Server, ServerConfig};

fn usage() -> &'static str {
    "usage: loadtest [--addr HOST:PORT] [--clients N] [--requests N] \
     [--scenario NAME] [--out PATH] [--mode close|keep-alive|both] [--keep-alive]\n\
     \n\
     Drives the rage-server HTTP service (an in-process one unless --addr is\n\
     given) and writes p50/p95/p99 latencies per endpoint and connection\n\
     mode to --out (default SERVER_pr.json). --mode picks the connection\n\
     discipline (default both); --keep-alive is shorthand for\n\
     --mode keep-alive.\n"
}

/// Connection discipline of one measurement pass.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// Fresh connection per request, `Connection: close`.
    Close,
    /// One persistent connection per client, `Content-Length`-framed reads.
    KeepAlive,
}

impl Mode {
    fn label(self) -> &'static str {
        match self {
            Mode::Close => "close",
            Mode::KeepAlive => "keep_alive",
        }
    }
}

#[derive(Clone)]
struct LoadConfig {
    addr: Option<String>,
    clients: usize,
    requests_per_client: usize,
    scenario: String,
    out: String,
    modes: Vec<Mode>,
}

impl Default for LoadConfig {
    fn default() -> Self {
        Self {
            addr: None,
            clients: 4,
            requests_per_client: 25,
            scenario: "us_open".to_string(),
            out: "SERVER_pr.json".to_string(),
            modes: vec![Mode::Close, Mode::KeepAlive],
        }
    }
}

/// One timed request: endpoint label + latency.
struct Sample {
    endpoint: &'static str,
    latency: Duration,
    status: u16,
}

/// Issue one request on a fresh connection and read the full response.
fn timed_request(addr: SocketAddr, raw: &[u8], endpoint: &'static str) -> Result<Sample, String> {
    let start = Instant::now();
    let mut stream =
        TcpStream::connect(addr).map_err(|err| format!("{endpoint}: connect: {err}"))?;
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .map_err(|err| format!("{endpoint}: timeout: {err}"))?;
    stream
        .write_all(raw)
        .map_err(|err| format!("{endpoint}: write: {err}"))?;
    let mut response = Vec::new();
    stream
        .read_to_end(&mut response)
        .map_err(|err| format!("{endpoint}: read: {err}"))?;
    let latency = start.elapsed();
    let status: u16 = std::str::from_utf8(&response)
        .ok()
        .and_then(|text| text.split_whitespace().nth(1))
        .and_then(|code| code.parse().ok())
        .ok_or_else(|| format!("{endpoint}: unreadable response"))?;
    Ok(Sample {
        endpoint,
        latency,
        status,
    })
}

/// One persistent connection: read one `Content-Length`-framed response,
/// returning `(status, server_keeps_alive)`.
fn read_framed(reader: &mut BufReader<TcpStream>) -> Result<(u16, bool), String> {
    let mut head = String::new();
    loop {
        let mut line = String::new();
        let n = reader
            .read_line(&mut line)
            .map_err(|err| format!("framed read: {err}"))?;
        if n == 0 {
            return Err("connection closed mid-response".to_string());
        }
        if line == "\r\n" || line == "\n" {
            break;
        }
        head.push_str(&line);
    }
    let status: u16 = head
        .split_whitespace()
        .nth(1)
        .and_then(|code| code.parse().ok())
        .ok_or_else(|| format!("unreadable status line: {head:?}"))?;
    let mut keeps_alive = false;
    let mut content_length = 0usize;
    for line in head.lines() {
        if let Some((name, value)) = line.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value
                    .trim()
                    .parse()
                    .map_err(|_| format!("bad Content-Length: {line:?}"))?;
            } else if name.eq_ignore_ascii_case("connection") {
                keeps_alive = value.trim().eq_ignore_ascii_case("keep-alive");
            }
        }
    }
    let mut body = vec![0u8; content_length];
    reader
        .read_exact(&mut body)
        .map_err(|err| format!("framed body read: {err}"))?;
    Ok((status, keeps_alive))
}

/// One client's requests over a persistent connection, reconnecting only when
/// the server closes it. Increments `connections` per connect.
fn keep_alive_client(
    addr: SocketAddr,
    requests: &[(&'static str, Vec<u8>)],
    count: usize,
    offset: usize,
    connections: &AtomicU64,
) -> Result<Vec<Sample>, String> {
    let mut samples = Vec::with_capacity(count);
    let mut reader: Option<BufReader<TcpStream>> = None;
    for i in 0..count {
        let (endpoint, raw) = &requests[(offset + i) % requests.len()];
        let mut conn = match reader.take() {
            Some(conn) => conn,
            None => {
                let stream = TcpStream::connect(addr)
                    .map_err(|err| format!("{endpoint}: connect: {err}"))?;
                stream
                    .set_read_timeout(Some(Duration::from_secs(60)))
                    .map_err(|err| format!("{endpoint}: timeout: {err}"))?;
                connections.fetch_add(1, Ordering::Relaxed);
                BufReader::new(stream)
            }
        };
        let start = Instant::now();
        conn.get_ref()
            .write_all(raw)
            .map_err(|err| format!("{endpoint}: write: {err}"))?;
        let (status, keeps_alive) = read_framed(&mut conn)?;
        samples.push(Sample {
            endpoint,
            latency: start.elapsed(),
            status,
        });
        if keeps_alive {
            reader = Some(conn);
        }
    }
    Ok(samples)
}

/// Nearest-rank percentile over sorted `samples`.
///
/// Pure integer math: the nearest-rank definition is `rank = ⌈p·n/100⌉`
/// (1-based), which `(p · n).div_ceil(100)` computes exactly — no float
/// rounding at the `p·n/100` boundaries where `ceil` on a binary-float
/// product can land one rank off (e.g. `29·0.35` style artifacts). `p` is
/// clamped to `1..=100`; `p = 100` is the maximum by construction.
fn percentile(sorted: &[Duration], p: u64) -> Duration {
    if sorted.is_empty() {
        return Duration::ZERO;
    }
    let n = sorted.len() as u64;
    let rank = (p.clamp(1, 100) * n).div_ceil(100).max(1);
    sorted[rank as usize - 1]
}

/// Whether the nearest-rank percentile `p` saturates to the sample maximum
/// for `n` samples — i.e. `⌈p·n/100⌉ == n` while `p < 100`.
///
/// With few samples the upper percentiles silently collapse onto the max
/// (p99 equals the max for every `n < 100`), which reads like a tail
/// latency measurement but is really just `max_us`. The summary carries
/// this flag so dashboards can grey the value out instead of plotting it.
fn percentile_saturated(n: usize, p: u64) -> bool {
    n > 0 && p < 100 && (p.clamp(1, 100) * n as u64).div_ceil(100) == n as u64
}

fn micros(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Percentile summary of one endpoint's samples, as a JSON object.
fn summarise(latencies: &mut [Duration]) -> JsonValue {
    latencies.sort();
    let total: Duration = latencies.iter().sum();
    let mean = if latencies.is_empty() {
        Duration::ZERO
    } else {
        total / latencies.len() as u32
    };
    JsonValue::Object(vec![
        ("requests".into(), JsonValue::Number(latencies.len() as f64)),
        (
            "p50_us".into(),
            JsonValue::Number(micros(percentile(latencies, 50))),
        ),
        (
            "p95_us".into(),
            JsonValue::Number(micros(percentile(latencies, 95))),
        ),
        (
            "p99_us".into(),
            JsonValue::Number(micros(percentile(latencies, 99))),
        ),
        (
            "p95_saturated".into(),
            JsonValue::Bool(percentile_saturated(latencies.len(), 95)),
        ),
        (
            "p99_saturated".into(),
            JsonValue::Bool(percentile_saturated(latencies.len(), 99)),
        ),
        ("mean_us".into(), JsonValue::Number(micros(mean))),
        (
            "min_us".into(),
            JsonValue::Number(micros(latencies.first().copied().unwrap_or(Duration::ZERO))),
        ),
        (
            "max_us".into(),
            JsonValue::Number(micros(latencies.last().copied().unwrap_or(Duration::ZERO))),
        ),
    ])
}

fn parse_args(args: &[String]) -> Result<LoadConfig, String> {
    let mut config = LoadConfig::default();
    let mut i = 0;
    let value = |args: &[String], i: usize, flag: &str| -> Result<String, String> {
        args.get(i + 1)
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    while i < args.len() {
        match args[i].as_str() {
            "--addr" => config.addr = Some(value(args, i, "--addr")?),
            "--clients" => {
                config.clients = value(args, i, "--clients")?
                    .parse()
                    .map_err(|_| "--clients needs a positive integer".to_string())?;
                if config.clients == 0 {
                    return Err("--clients needs a positive integer".to_string());
                }
            }
            "--requests" => {
                config.requests_per_client = value(args, i, "--requests")?
                    .parse()
                    .map_err(|_| "--requests needs a positive integer".to_string())?;
                if config.requests_per_client == 0 {
                    return Err("--requests needs a positive integer".to_string());
                }
            }
            "--scenario" => config.scenario = value(args, i, "--scenario")?,
            "--out" => config.out = value(args, i, "--out")?,
            "--keep-alive" => {
                config.modes = vec![Mode::KeepAlive];
                i += 1;
                continue;
            }
            "--mode" => {
                config.modes = match value(args, i, "--mode")?.as_str() {
                    "close" => vec![Mode::Close],
                    "keep-alive" | "keep_alive" => vec![Mode::KeepAlive],
                    "both" => vec![Mode::Close, Mode::KeepAlive],
                    other => {
                        return Err(format!(
                            "--mode must be close, keep-alive or both (got {other:?})"
                        ))
                    }
                };
            }
            other => return Err(format!("unknown argument {other:?}\n{}", usage())),
        }
        i += 2;
    }
    Ok(config)
}

fn run(config: LoadConfig) -> Result<(), String> {
    // Target: an external server, or an in-process one on an ephemeral port.
    let (addr, in_process) = match &config.addr {
        Some(addr) => (
            addr.to_socket_addrs()
                .map_err(|err| format!("cannot resolve {addr}: {err}"))?
                .next()
                .ok_or_else(|| format!("cannot resolve {addr}"))?,
            None,
        ),
        None => {
            let server = Server::start(
                "127.0.0.1:0",
                Arc::new(Service::new()),
                ServerConfig {
                    threads: config.clients.max(2),
                    ..ServerConfig::default()
                },
            )
            .map_err(|err| format!("cannot start in-process server: {err}"))?;
            (server.addr(), Some(server))
        }
    };

    let scenario = &config.scenario;
    let ask_body = format!(
        r#"{{"scenario": "{scenario}", "query": "who won the championship final", "k": 3}}"#
    );
    // Close-mode requests carry an explicit `Connection: close`; keep-alive
    // requests rely on the HTTP/1.1 default so the connection persists.
    let build_requests = |close: bool| -> Vec<(&'static str, Vec<u8>)> {
        let connection = if close { "Connection: close\r\n" } else { "" };
        let mut requests = vec![
            (
                "scenarios",
                format!("GET /scenarios HTTP/1.1\r\nHost: loadtest\r\n{connection}\r\n")
                    .into_bytes(),
            ),
            (
                "report_json",
                format!(
                    "GET /report?scenario={scenario}&format=json HTTP/1.1\r\nHost: loadtest\r\n{connection}\r\n"
                )
                .into_bytes(),
            ),
            (
                "report_anytime",
                format!(
                    "GET /report?scenario={scenario}&format=json&deadline_ms=50 HTTP/1.1\r\nHost: loadtest\r\n{connection}\r\n"
                )
                .into_bytes(),
            ),
            (
                "ask",
                format!(
                    "POST /ask HTTP/1.1\r\nHost: loadtest\r\nContent-Length: {}\r\n{connection}\r\n{ask_body}",
                    ask_body.len()
                )
                .into_bytes(),
            ),
        ];
        // Batch entity-resolution lookups: one request per affiliation query
        // form (acronym+city, alias, registry id+city), all aggregated into a
        // single `entity_resolve` latency bucket. These exercise the pruned
        // retrieval hot path against the registry corpus.
        for lookup in entity_registry::resolution_queries(EntityRegistryConfig::default(), 3) {
            let body = format!(
                r#"{{"scenario": "entity_registry", "query": "{}", "k": 10}}"#,
                lookup.query
            );
            requests.push((
                "entity_resolve",
                format!(
                    "POST /ask HTTP/1.1\r\nHost: loadtest\r\nContent-Length: {}\r\n{connection}\r\n{body}",
                    body.len()
                )
                .into_bytes(),
            ));
        }
        requests
    };

    // Pre-flight: one of each, so cold-start cost (index + pipeline build on
    // the first /report) never skews a concurrent percentile, and failures
    // surface before the fan-out.
    for (endpoint, raw) in &build_requests(true) {
        let sample = timed_request(addr, raw, endpoint)?;
        if sample.status != 200 {
            return Err(format!("{endpoint}: pre-flight answered {}", sample.status));
        }
    }

    eprintln!(
        "loadtest: {} clients x {} requests against {addr}{}",
        config.clients,
        config.requests_per_client,
        if in_process.is_some() {
            " (in-process server)"
        } else {
            ""
        }
    );

    let mut mode_sections: Vec<(String, JsonValue)> = Vec::new();
    for &mode in &config.modes {
        let requests = Arc::new(build_requests(mode == Mode::Close));
        let connections = Arc::new(AtomicU64::new(0));
        let started = Instant::now();
        let handles: Vec<_> = (0..config.clients)
            .map(|client| {
                let requests = Arc::clone(&requests);
                let connections = Arc::clone(&connections);
                let count = config.requests_per_client;
                std::thread::spawn(move || -> Result<Vec<Sample>, String> {
                    match mode {
                        Mode::KeepAlive => {
                            // Stagger the rotation per client so endpoints
                            // overlap; one persistent connection per client.
                            keep_alive_client(addr, &requests, count, client, &connections)
                        }
                        Mode::Close => {
                            let mut samples = Vec::with_capacity(count);
                            for i in 0..count {
                                let (endpoint, raw) = &requests[(client + i) % requests.len()];
                                connections.fetch_add(1, Ordering::Relaxed);
                                samples.push(timed_request(addr, raw, endpoint)?);
                            }
                            Ok(samples)
                        }
                    }
                })
            })
            .collect();

        let mut samples: Vec<Sample> = Vec::new();
        for handle in handles {
            samples.extend(handle.join().map_err(|_| "client thread panicked")??);
        }
        let wall = started.elapsed();

        let failures = samples.iter().filter(|s| s.status != 200).count();
        if failures > 0 {
            return Err(format!(
                "{} mode: {failures} of {} requests failed",
                mode.label(),
                samples.len()
            ));
        }

        let mut per_endpoint: Vec<(&'static str, Vec<Duration>)> = Vec::new();
        let mut all: Vec<Duration> = Vec::new();
        for sample in &samples {
            all.push(sample.latency);
            match per_endpoint
                .iter_mut()
                .find(|(name, _)| *name == sample.endpoint)
            {
                Some((_, bucket)) => bucket.push(sample.latency),
                None => per_endpoint.push((sample.endpoint, vec![sample.latency])),
            }
        }
        let mut endpoints: Vec<(String, JsonValue)> = Vec::new();
        for (name, mut latencies) in per_endpoint {
            endpoints.push((name.to_string(), summarise(&mut latencies)));
        }

        let section = JsonValue::Object(vec![
            ("total".into(), summarise(&mut all)),
            ("endpoints".into(), JsonValue::Object(endpoints)),
            ("wall_seconds".into(), JsonValue::Number(wall.as_secs_f64())),
            (
                "throughput_rps".into(),
                JsonValue::Number(samples.len() as f64 / wall.as_secs_f64()),
            ),
            (
                "connections".into(),
                JsonValue::Number(connections.load(Ordering::Relaxed) as f64),
            ),
        ]);

        eprintln!(
            "  mode {} — {} requests over {} connections in {:.2}s",
            mode.label(),
            samples.len(),
            connections.load(Ordering::Relaxed),
            wall.as_secs_f64()
        );
        for (name, summary) in section
            .get("endpoints")
            .and_then(|v| match v {
                JsonValue::Object(members) => Some(members.as_slice()),
                _ => None,
            })
            .unwrap_or(&[])
        {
            eprintln!(
                "    {name:12} p50 {:8.0}us  p95 {:8.0}us  p99 {:8.0}us",
                summary
                    .get("p50_us")
                    .and_then(JsonValue::as_f64)
                    .unwrap_or(0.0),
                summary
                    .get("p95_us")
                    .and_then(JsonValue::as_f64)
                    .unwrap_or(0.0),
                summary
                    .get("p99_us")
                    .and_then(JsonValue::as_f64)
                    .unwrap_or(0.0),
            );
        }

        mode_sections.push((mode.label().to_string(), section));
    }

    let batch = in_process
        .as_ref()
        .map(|server| server.batch_stats())
        .unwrap_or_default();

    let doc = JsonValue::Object(vec![
        ("schema".into(), JsonValue::String("rage-loadtest/2".into())),
        (
            "config".into(),
            JsonValue::Object(vec![
                ("clients".into(), JsonValue::Number(config.clients as f64)),
                (
                    "requests_per_client".into(),
                    JsonValue::Number(config.requests_per_client as f64),
                ),
                ("scenario".into(), JsonValue::String(scenario.clone())),
                (
                    "in_process_server".into(),
                    JsonValue::Bool(in_process.is_some()),
                ),
                (
                    "modes".into(),
                    JsonValue::Array(
                        config
                            .modes
                            .iter()
                            .map(|mode| JsonValue::String(mode.label().to_string()))
                            .collect(),
                    ),
                ),
            ]),
        ),
        ("modes".into(), JsonValue::Object(mode_sections)),
        (
            "ask_batching".into(),
            JsonValue::Object(vec![
                ("requests".into(), JsonValue::Number(batch.requests as f64)),
                ("batches".into(), JsonValue::Number(batch.batches as f64)),
                (
                    "max_batch".into(),
                    JsonValue::Number(batch.max_batch as f64),
                ),
            ]),
        ),
    ]);

    let mut rendered = doc.render();
    rendered.push('\n');
    std::fs::write(&config.out, &rendered)
        .map_err(|err| format!("cannot write {}: {err}", config.out))?;
    eprintln!("loadtest: wrote {}", config.out);

    if let Some(server) = in_process {
        server.shutdown();
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if matches!(
        args.first().map(String::as_str),
        Some("--help" | "-h" | "help")
    ) {
        print!("{}", usage());
        return ExitCode::SUCCESS;
    }
    match parse_args(&args).and_then(run) {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("loadtest: {message}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn durations(micros: &[u64]) -> Vec<Duration> {
        micros.iter().map(|&u| Duration::from_micros(u)).collect()
    }

    #[test]
    fn percentile_n1_every_p_is_the_single_sample() {
        let sorted = durations(&[42]);
        for p in [1u64, 50, 95, 99, 100] {
            assert_eq!(percentile(&sorted, p), Duration::from_micros(42), "p={p}");
        }
    }

    #[test]
    fn percentile_n2_splits_at_the_median() {
        let sorted = durations(&[10, 20]);
        // rank = ceil(p·2/100): p ≤ 50 → rank 1, p > 50 → rank 2.
        assert_eq!(percentile(&sorted, 50), Duration::from_micros(10));
        assert_eq!(percentile(&sorted, 51), Duration::from_micros(20));
        assert_eq!(percentile(&sorted, 95), Duration::from_micros(20));
        assert_eq!(percentile(&sorted, 99), Duration::from_micros(20));
        assert_eq!(percentile(&sorted, 100), Duration::from_micros(20));
    }

    #[test]
    fn percentile_n10_nearest_rank_boundaries() {
        let sorted = durations(&[1, 2, 3, 4, 5, 6, 7, 8, 9, 10]);
        // Exact boundary: ceil(50·10/100) = 5 — the nearest-rank median of
        // an even-sized sample is the LOWER of the two middle values.
        assert_eq!(percentile(&sorted, 50), Duration::from_micros(5));
        // ceil(95·10/100) = ceil(9.5) = 10, ceil(99·10/100) = 10.
        assert_eq!(percentile(&sorted, 95), Duration::from_micros(10));
        assert_eq!(percentile(&sorted, 99), Duration::from_micros(10));
        assert_eq!(percentile(&sorted, 10), Duration::from_micros(1));
        assert_eq!(percentile(&sorted, 11), Duration::from_micros(2));
    }

    #[test]
    fn percentile_n99_and_n100_p99_boundary() {
        let n99: Vec<u64> = (1..=99).collect();
        let sorted = durations(&n99);
        // n = 99: ceil(99·99/100) = ceil(98.01) = 99 → still the max.
        assert_eq!(percentile(&sorted, 99), Duration::from_micros(99));
        assert!(percentile_saturated(99, 99));

        let n100: Vec<u64> = (1..=100).collect();
        let sorted = durations(&n100);
        // n = 100: ceil(99·100/100) = 99 → first rank where p99 detaches
        // from the max.
        assert_eq!(percentile(&sorted, 99), Duration::from_micros(99));
        assert_eq!(percentile(&sorted, 100), Duration::from_micros(100));
        assert!(!percentile_saturated(100, 99));
    }

    #[test]
    fn percentile_empty_and_clamps() {
        assert_eq!(percentile(&[], 99), Duration::ZERO);
        let sorted = durations(&[5, 6, 7]);
        // p = 0 clamps to 1 (rank 1); p > 100 clamps to the max.
        assert_eq!(percentile(&sorted, 0), Duration::from_micros(5));
        assert_eq!(percentile(&sorted, 1000), Duration::from_micros(7));
    }

    #[test]
    fn saturation_flags_track_sample_count() {
        // p95 detaches from the max at n = 20, p99 at n = 100.
        assert!(percentile_saturated(19, 95));
        assert!(!percentile_saturated(20, 95));
        assert!(percentile_saturated(99, 99));
        assert!(!percentile_saturated(100, 99));
        // Degenerate inputs never flag.
        assert!(!percentile_saturated(0, 99));
        assert!(!percentile_saturated(50, 100));
    }

    #[test]
    fn summarise_emits_saturation_fields() {
        let mut latencies = durations(&[10, 20, 30]);
        let summary = summarise(&mut latencies);
        assert_eq!(
            summary.get("requests").and_then(JsonValue::as_f64),
            Some(3.0)
        );
        assert_eq!(
            summary.get("p99_us").and_then(JsonValue::as_f64),
            Some(30.0)
        );
        assert_eq!(summary.get("p95_saturated"), Some(&JsonValue::Bool(true)));
        assert_eq!(summary.get("p99_saturated"), Some(&JsonValue::Bool(true)));

        let mut many = durations(&(1..=200).collect::<Vec<u64>>());
        let summary = summarise(&mut many);
        assert_eq!(
            summary.get("p99_us").and_then(JsonValue::as_f64),
            Some(198.0)
        );
        assert_eq!(summary.get("p95_saturated"), Some(&JsonValue::Bool(false)));
        assert_eq!(summary.get("p99_saturated"), Some(&JsonValue::Bool(false)));
    }
}
