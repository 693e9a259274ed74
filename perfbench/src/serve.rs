//! `serve`: two keep-alive HTTP clients against an in-process `rage_server::Server`.
//!
//! Closed loop, 2 clients over loopback. Both send seeded `POST /ask`
//! affiliation lookups against `entity_registry` and cached `GET /report`
//! reads of `us_open`, `big_three`, `multi_hop` and `entity_registry` in
//! json, md and html. The writer client also replays `live_updates`'
//! mutation script through `POST /corpus/docs` and
//! `DELETE /corpus/docs/{id}`, reading the fresh report after each write.
//! This is the only workload through `rage-server` and `Service`: each write
//! invalidates the report cache and clears the prefix cache, and the two
//! clients make the `/ask` batcher coalesce.
//!
//! The mix ([`WRITER`], [`READER`]) keeps p50 and p90 inside the ask class,
//! away from the fast reads below it and the fresh reports above it (see the
//! mix tests). The exact window is each client's first [`EXACT_REQUESTS`]
//! requests: whole cycles of both clients, so its class counts are fixed.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use rage_datasets::entity_registry::{self, EntityRegistryConfig, ResolutionQuery};
use rage_datasets::live_updates::{self, Mutation, ScriptStep};
use rage_json::JsonValue;
use rage_report::{ReportFormat, Service};
use rage_retrieval::Document;
use rage_server::{Server, ServerConfig};

use crate::closed_loop::{self, Op};
use crate::stats::MixClass;
use crate::trace;
use crate::{secs_since, stats, Measured, Options, Phases, Setup, Values};

/// Request classes of the mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    Ask,
    CachedRead,
    Write,
    FreshReport,
}

impl Class {
    fn name(self) -> &'static str {
        match self {
            Class::Ask => "ask",
            Class::CachedRead => "cached_read",
            Class::Write => "write",
            Class::FreshReport => "fresh_report",
        }
    }

    fn span(self) -> &'static str {
        match self {
            Class::Ask => "http.ask",
            Class::CachedRead => "http.cached_read",
            Class::Write => "http.write",
            Class::FreshReport => "http.fresh_report",
        }
    }
}

use Class::{Ask, CachedRead, FreshReport, Write as Mutate};

/// The writer's request cycle: one script step, the fresh report it
/// invalidated, then lookups and one cached read.
pub const WRITER: &[Class] = &[
    Mutate,
    FreshReport,
    Ask,
    Ask,
    Ask,
    Ask,
    Ask,
    Ask,
    Ask,
    Ask,
    CachedRead,
];
/// The reader's request cycle.
pub const READER: &[Class] = &[Ask, Ask, Ask, Ask, Ask, Ask, Ask, Ask, CachedRead];

/// Cached reads the clients rotate through.
const CACHED: &[(&str, &str)] = &[
    ("us_open", "json"),
    ("big_three", "md"),
    ("multi_hop", "html"),
    ("entity_registry", "json"),
    ("us_open", "md"),
    ("big_three", "html"),
    ("multi_hop", "json"),
    ("entity_registry", "md"),
    ("us_open", "html"),
    ("big_three", "json"),
    ("multi_hop", "md"),
    ("entity_registry", "html"),
];

/// Requests per client in the exact window: 9 writer cycles and 11 reader
/// cycles.
const EXACT_REQUESTS: usize = 99;

const REGISTRY: &str = "entity_registry";
const LIVE: &str = "live_updates";

/// Requests on one keep-alive connection; reconnects when the server closes it.
struct Conn {
    addr: SocketAddr,
    reader: Option<BufReader<TcpStream>>,
}

impl Conn {
    fn new(addr: SocketAddr) -> Self {
        Conn { addr, reader: None }
    }

    /// Send one request and read its `Content-Length`-framed response.
    fn request(&mut self, raw: &[u8]) -> Result<(u16, Vec<u8>), String> {
        let mut reader = match self.reader.take() {
            Some(reader) => reader,
            None => {
                let stream =
                    TcpStream::connect(self.addr).map_err(|err| format!("connect: {err}"))?;
                stream
                    .set_read_timeout(Some(Duration::from_secs(60)))
                    .map_err(|err| format!("timeout: {err}"))?;
                stream
                    .set_nodelay(true)
                    .map_err(|err| format!("nodelay: {err}"))?;
                BufReader::new(stream)
            }
        };
        reader
            .get_mut()
            .write_all(raw)
            .map_err(|err| format!("write: {err}"))?;
        let mut head = String::new();
        loop {
            let mut line = String::new();
            if reader
                .read_line(&mut line)
                .map_err(|err| format!("read: {err}"))?
                == 0
            {
                return Err("connection closed mid-response".into());
            }
            if line == "\r\n" {
                break;
            }
            head.push_str(&line);
        }
        let status = head
            .split_whitespace()
            .nth(1)
            .and_then(|code| code.parse().ok())
            .ok_or_else(|| format!("bad status line {head:?}"))?;
        let mut length = 0usize;
        let mut keep_alive = false;
        for line in head.lines().skip(1) {
            let Some((name, value)) = line.split_once(':') else {
                continue;
            };
            if name.eq_ignore_ascii_case("content-length") {
                length = value
                    .trim()
                    .parse()
                    .map_err(|_| format!("bad length {line:?}"))?;
            } else if name.eq_ignore_ascii_case("connection") {
                keep_alive = value.trim().eq_ignore_ascii_case("keep-alive");
            }
        }
        let mut body = vec![0u8; length];
        reader
            .read_exact(&mut body)
            .map_err(|err| format!("body: {err}"))?;
        if keep_alive {
            self.reader = Some(reader);
        }
        Ok((status, body))
    }
}

fn get(path: &str) -> Vec<u8> {
    format!("GET {path} HTTP/1.1\r\nHost: perfbench\r\n\r\n").into_bytes()
}

fn with_body(method: &str, path: &str, body: &JsonValue) -> Vec<u8> {
    let body = body.render();
    format!(
        "{method} {path} HTTP/1.1\r\nHost: perfbench\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

fn string(value: &str) -> JsonValue {
    JsonValue::String(value.to_string())
}

fn ask_request(query: &str) -> Vec<u8> {
    with_body(
        "POST",
        "/ask",
        &JsonValue::Object(vec![
            ("scenario".into(), string(REGISTRY)),
            ("query".into(), string(query)),
        ]),
    )
}

fn document_json(doc: &Document) -> JsonValue {
    JsonValue::Object(vec![
        ("id".into(), string(&doc.id)),
        ("title".into(), string(&doc.title)),
        ("text".into(), string(&doc.text)),
        (
            "fields".into(),
            JsonValue::Object(
                doc.fields
                    .iter()
                    .map(|(k, v)| (k.clone(), string(v)))
                    .collect(),
            ),
        ),
    ])
}

fn mutation_request(mutation: &Mutation) -> Vec<u8> {
    let upsert = |doc: &Document, mode: &str| {
        with_body(
            "POST",
            "/corpus/docs",
            &JsonValue::Object(vec![
                ("scenario".into(), string(LIVE)),
                ("doc".into(), document_json(doc)),
                ("mode".into(), string(mode)),
            ]),
        )
    };
    match mutation {
        Mutation::Add(doc) => upsert(doc, "add"),
        Mutation::Update(doc) => upsert(doc, "update"),
        Mutation::Remove(id) => {
            let raw = format!(
                "DELETE /corpus/docs/{id}?scenario={LIVE} HTTP/1.1\r\nHost: perfbench\r\n\r\n"
            );
            raw.into_bytes()
        }
    }
}

/// The answer `live_updates` must give at corpus version `version`: the seed
/// answer at version 1, then the script step that produced the version (the
/// writer replays the script in a loop).
fn expected_live_answer(version: u64) -> Option<&'static str> {
    match version {
        0 => None,
        1 => Some(live_updates::SEED_CHAMPIONS.last()?.1),
        v => {
            let script = live_updates::mutation_script();
            Some(script[(v as usize - 2) % script.len()].expected_answer)
        }
    }
}

struct Runtime {
    service: Arc<Service>,
    server: Server,
    /// Expected bytes of each cached read, rendered directly by the service.
    cached: Vec<(Vec<u8>, Vec<u8>)>,
}

fn cached_path(scenario: &str, format: &str) -> String {
    format!("/report?scenario={scenario}&format={format}")
}

fn build(probe: &str) -> Result<(Runtime, Phases), String> {
    let fail = |err: rage_report::ServiceError| err.to_string();
    let start = Instant::now();
    let service = Arc::new(Service::new());
    let server = Server::start("127.0.0.1:0", Arc::clone(&service), ServerConfig::default())
        .map_err(|err| format!("cannot start the server: {err}"))?;
    let build_s = secs_since(start);

    let start = Instant::now();
    for scenario in [REGISTRY, LIVE, "us_open", "big_three", "multi_hop"] {
        service.corpus_provenance(scenario).map_err(fail)?;
    }
    let corpus_s = secs_since(start);

    // Warm-up: build every runtime the mix touches and cache the reports the
    // clients read. The service builds them on this thread, so the large
    // allocations of every set-up land in the same allocator arena and peak
    // memory does not depend on which worker thread happened to build them.
    let start = Instant::now();
    for &(scenario, _) in CACHED {
        service.report(scenario, None).map_err(fail)?;
    }
    service.report(LIVE, None).map_err(fail)?;
    service.ask(REGISTRY, probe, None).map_err(fail)?;
    let mut conn = Conn::new(server.addr());
    let mut cached = Vec::new();
    for &(scenario, format) in CACHED {
        let path = cached_path(scenario, format);
        let (status, _) = conn.request(&get(&path))?;
        if status != 200 {
            return Err(format!("warm-up {path} answered {status}"));
        }
        let parsed = ReportFormat::parse(format).map_err(fail)?;
        let expected = service
            .render_report(scenario, parsed, None)
            .map_err(fail)?;
        cached.push((get(&path), expected.into_bytes()));
    }
    for raw in [ask_request(probe), get(&cached_path(LIVE, "json"))] {
        let (status, _) = conn.request(&raw)?;
        if status != 200 {
            return Err(format!("warm-up request answered {status}"));
        }
    }
    let warmup_s = secs_since(start);
    Ok((
        Runtime {
            service,
            server,
            cached,
        },
        Phases {
            corpus_s,
            build_s,
            warmup_s,
        },
    ))
}

/// What one request returned.
struct Reply {
    class: Class,
    traced: bool,
    status: u16,
    /// The response body where the check needs it (asks, writes, fresh reports).
    body: Vec<u8>,
    /// Expected record of an ask; expected corpus version of a write or fresh read.
    expected: Expected,
    /// Cached reads are compared on the spot: whether the bytes matched.
    bytes_match: bool,
    error: Option<String>,
}

enum Expected {
    None,
    Record(String),
    Version(u64),
}

/// One client's connection and its place in the ask list, the cached reads
/// and the mutation script.
struct Client<'a> {
    conn: Conn,
    cycle: &'static [Class],
    asks: &'a [ResolutionQuery],
    /// The writer starts from version 1 and is the only one to move it.
    version: u64,
    next_ask: usize,
    next_read: usize,
    next_step: usize,
}

impl<'a> Client<'a> {
    fn new(rt: &Runtime, client: usize, asks: &'a [ResolutionQuery]) -> Self {
        Client {
            conn: Conn::new(rt.server.addr()),
            cycle: [WRITER, READER][client],
            asks,
            version: 1,
            next_ask: 0,
            next_read: client * 5,
            next_step: 0,
        }
    }

    /// Send request `index` of the client's cycle.
    fn send(
        &mut self,
        rt: &Runtime,
        script: &[ScriptStep],
        op: u64,
        index: usize,
        trace_on: bool,
    ) -> Reply {
        let class = self.cycle[index % self.cycle.len()];
        let (raw, expected, cached) = match class {
            Ask => {
                let query = &self.asks[self.next_ask % self.asks.len()];
                self.next_ask += 1;
                (
                    ask_request(&query.query),
                    Expected::Record(query.expected_doc_id.clone()),
                    None,
                )
            }
            CachedRead => {
                let (raw, expected) = &rt.cached[self.next_read % rt.cached.len()];
                self.next_read += 1;
                (raw.clone(), Expected::None, Some(expected))
            }
            Mutate => {
                let step = &script[self.next_step % script.len()];
                self.next_step += 1;
                self.version += 1;
                (
                    mutation_request(&step.mutation),
                    Expected::Version(self.version),
                    None,
                )
            }
            FreshReport => (
                get(&cached_path(LIVE, "json")),
                Expected::Version(self.version),
                None,
            ),
        };
        let traced = trace_on && index % 2 == 1;
        let response = {
            let _op = traced.then(|| trace::op(op));
            let _span = trace::span(class.span());
            self.conn.request(&raw)
        };
        let (status, body, error) = match response {
            Ok((status, body)) => (status, body, None),
            Err(err) => {
                self.conn = Conn::new(rt.server.addr());
                (0, Vec::new(), Some(err))
            }
        };
        Reply {
            class,
            traced,
            status,
            bytes_match: cached.is_some_and(|expected| *expected == body),
            body: if cached.is_some() { Vec::new() } else { body },
            expected,
            error,
        }
    }
}

/// Check one reply; `Ok(Some(hit))` for asks, `Ok(None)` otherwise. An error
/// or refusal (any status but 200) fails the check.
fn check(reply: &Reply) -> Result<Option<bool>, String> {
    if let Some(error) = &reply.error {
        return Err(error.clone());
    }
    if reply.status != 200 {
        return Err(format!("status {}", reply.status));
    }
    let json = || -> Result<JsonValue, String> {
        let text = std::str::from_utf8(&reply.body).map_err(|err| err.to_string())?;
        JsonValue::parse(text).map_err(|err| err.to_string())
    };
    match (&reply.class, &reply.expected) {
        (CachedRead, _) => reply
            .bytes_match
            .then_some(None)
            .ok_or_else(|| "cached read differs from the service's rendering".into()),
        (Ask, Expected::Record(expected)) => {
            let doc = json()?;
            let answer = doc.get("answer").and_then(JsonValue::as_str).unwrap_or("");
            if answer.is_empty() {
                return Err("ask returned no answer".into());
            }
            let top = doc
                .get("sources")
                .and_then(JsonValue::as_array)
                .and_then(|s| s.first())
                .and_then(|s| s.get("doc_id"))
                .and_then(JsonValue::as_str);
            Ok(Some(top == Some(expected.as_str())))
        }
        (Mutate, Expected::Version(version)) => {
            let got = json()?
                .get("corpus")
                .and_then(|c| c.get("version"))
                .and_then(JsonValue::as_usize);
            (got == Some(*version as usize))
                .then_some(None)
                .ok_or_else(|| format!("write answered version {got:?}, expected {version}"))
        }
        (FreshReport, Expected::Version(version)) => {
            let report = rage_report::from_json(&json()?).map_err(|err| err.to_string())?;
            let named = report.corpus.map(|c| c.version);
            let expected = expected_live_answer(*version);
            if named != Some(*version) || Some(report.full_context_answer.as_str()) != expected {
                return Err(format!(
                    "fresh report names version {named:?} with answer {:?}; expected version \
                     {version} with answer {expected:?}",
                    report.full_context_answer
                ));
            }
            Ok(None)
        }
        _ => Err("request without an expectation".into()),
    }
}

/// The class holding the nearest-rank p50 and p90 of the timed requests, and
/// how far each sits from that class's edge, from the observed class shares
/// and median latencies.
fn observed_mix(window: &closed_loop::Window<Reply>) -> Vec<MixClass> {
    let timed: Vec<&Op<Reply>> = window.ops.iter().filter(|o| o.timed).collect();
    [Ask, CachedRead, Mutate, FreshReport]
        .into_iter()
        .map(|class| {
            let latencies: Vec<f64> = timed
                .iter()
                .filter(|o| o.result.class == class)
                .map(|o| o.latency_ms)
                .collect();
            MixClass {
                name: class.name(),
                share: stats::ratio(latencies.len() as f64, timed.len() as f64),
                latency_ms: stats::median(&latencies),
            }
        })
        .collect()
}

pub fn run(options: &Options) -> Result<(Values, Measured), String> {
    let registry = EntityRegistryConfig::default();
    let mut asks = entity_registry::resolution_queries(registry, registry.num_orgs);
    asks.shuffle(&mut StdRng::seed_from_u64(options.seed));
    let probe = asks.pop().expect("non-empty registry").query;
    let setup = Setup::repeat(|| build(&probe))?;
    let rt = &setup.instance;
    // Each client asks its own half of the seeded questions.
    let halves = asks.split_at(asks.len() / 2);
    let halves = [halves.0, halves.1];
    let script = live_updates::mutation_script();

    let report_before = rt.service.report_cache_stats();
    let batch_before = rt.server.batch_stats();
    let connections_before = rt.server.connections_accepted();
    let window = closed_loop::run(
        2,
        options.seconds,
        EXACT_REQUESTS,
        |client| Client::new(rt, client, halves[client]),
        |client, id, index| {
            let op = closed_loop::trace_id(id, index);
            client.send(rt, &script, op, index, options.trace)
        },
    );
    let report_after = rt.service.report_cache_stats();
    let batch_after = rt.server.batch_stats();
    let connections = rt.server.connections_accepted() - connections_before;

    // Checks, outside the timed window.
    let mut measured = Measured::new(setup.seconds.clone(), &window);
    let (mut fresh, mut fresh_flips, mut forwards, mut exact_requests) = (0u64, 0u64, 0u64, 0u64);
    for op in &window.ops {
        let reply = &op.result;
        let exact = op.exact(EXACT_REQUESTS);
        exact_requests += u64::from(exact);
        if exact && reply.class == Ask {
            measured.lookups += 1;
        }
        match check(reply) {
            Ok(hit) if exact => {
                measured.hits += u64::from(hit == Some(true));
                forwards += u64::from(reply.class == Ask);
                if reply.class == FreshReport {
                    let report = std::str::from_utf8(&reply.body)
                        .ok()
                        .and_then(|text| JsonValue::parse(text).ok())
                        .and_then(|json| rage_report::from_json(&json).ok());
                    if let Some(report) = report {
                        fresh += 1;
                        fresh_flips += u64::from(report.top_down.counterfactual.is_some());
                        forwards += report.llm_calls as u64;
                    }
                }
            }
            Ok(_) => {}
            Err(message) => {
                measured.failed += 1;
                eprintln!("serve: {} request failed: {message}", reply.class.name());
            }
        }
    }
    let mix = observed_mix(&window);
    for class in &mix {
        eprintln!(
            "serve: {:13} share {:.3}, median {:.3} ms",
            class.name, class.share, class.latency_ms
        );
    }
    for p in [50.0, 90.0] {
        let (class, margin) = stats::percentile_class(&mix, p);
        eprintln!("serve: p{p} falls in {class}, {margin:.3} from its edge");
    }

    let mut values = Values::default();
    if options.trace {
        let spans = trace::drain();
        let count = |class: Class| {
            window
                .ops
                .iter()
                .filter(|o| o.exact(EXACT_REQUESTS) && o.result.class == class)
                .count() as f64
        };
        let exact_requests = exact_requests as f64;
        values.set(
            "llm.forwards_per_op",
            stats::ratio(forwards as f64, exact_requests),
        );
        let prefix = [REGISTRY, LIVE]
            .iter()
            .filter_map(|name| rt.service.prefix_cache_stats(name, None))
            .fold((0, 0), |(h, l), s| (h + s.hits, l + s.lookups()));
        values.set(
            "llm.prefix_cache_hit_rate",
            stats::ratio(prefix.0 as f64, prefix.1 as f64),
        );
        values.set(
            "core.flip_share",
            stats::ratio(fresh_flips as f64, fresh as f64),
        );
        values.set(
            "retrieval.searches_per_op",
            stats::ratio(count(Ask) + count(FreshReport), exact_requests),
        );
        values.set(
            "report.cache_hit_rate",
            stats::ratio(
                (report_after.hits - report_before.hits) as f64,
                (report_after.hits + report_after.misses
                    - report_before.hits
                    - report_before.misses) as f64,
            ),
        );
        values.set(
            "server.ask_batch_size",
            stats::ratio(
                (batch_after.requests - batch_before.requests) as f64,
                (batch_after.batches - batch_before.batches) as f64,
            ),
        );
        values.set(
            "server.connections_per_request",
            stats::ratio(connections as f64, window.ops.len() as f64),
        );
        let direct = replay_direct(rt, halves[0])?;
        for class in [Ask, CachedRead, Mutate, FreshReport] {
            let client: Vec<f64> = spans
                .iter()
                .filter(|s| s.name == class.span())
                .map(trace::Span::ms)
                .collect();
            let client_ms = stats::median(&client);
            let direct_ms = direct.of(class);
            let (ms, overhead) = match class {
                Ask => ("server.ask.ms", "server.ask.overhead_ms"),
                CachedRead => ("server.cached_read.ms", "server.cached_read.overhead_ms"),
                Mutate => ("server.write.ms", "server.write.overhead_ms"),
                FreshReport => ("server.fresh_report.ms", "server.fresh_report.overhead_ms"),
            };
            values.set(ms, client_ms);
            values.set(overhead, client_ms - direct_ms);
        }
        values.set("report.render_ms", direct.render_ms);
        values.set("report.cached_read_ms", direct.cached_paper_ms);
        values.set("report.cached_read_registry_ms", direct.cached_registry_ms);
        values.set("report.fresh_report_ms", direct.fresh_ms);
        values.set("report.write_ms", direct.write_ms);
        let latencies = |traced: bool| -> Vec<f64> {
            window
                .ops
                .iter()
                .filter(|o| o.timed && o.result.traced == traced)
                .map(|o| o.latency_ms)
                .collect()
        };
        values.set(
            "trace.overhead_share",
            stats::ratio(
                stats::median(&latencies(true)),
                stats::median(&latencies(false)),
            ) - 1.0,
        );
        let coverage = trace::op_coverage(&spans);
        let covered: Vec<f64> = coverage.values().copied().collect();
        values.set("trace.coverage", stats::median(&covered));
        setup.report_phases(&mut values);
        crate::write_spans("serve", options.seed, &spans);
    }
    Ok((values, measured))
}

/// Median times of serve's request classes called directly on the shared
/// `Service`, without HTTP.
struct Direct {
    ask_ms: f64,
    cached_ms: f64,
    cached_paper_ms: f64,
    cached_registry_ms: f64,
    render_ms: f64,
    write_ms: f64,
    fresh_ms: f64,
}

impl Direct {
    fn of(&self, class: Class) -> f64 {
        match class {
            Ask => self.ask_ms,
            CachedRead => self.cached_ms,
            Mutate => self.write_ms,
            FreshReport => self.fresh_ms,
        }
    }
}

/// Repetitions of each directly replayed class.
const DIRECT_REPEATS: usize = 24;

fn timed<T>(f: impl FnOnce() -> Result<T, String>) -> Result<f64, String> {
    let start = Instant::now();
    f()?;
    Ok(stats::ms(start.elapsed()))
}

fn replay_direct(rt: &Runtime, asks: &[ResolutionQuery]) -> Result<Direct, String> {
    let service = &rt.service;
    let fail = |err: rage_report::ServiceError| err.to_string();
    let mut ask = Vec::new();
    for query in asks.iter().rev().take(DIRECT_REPEATS) {
        ask.push(timed(|| {
            service
                .ask_many(REGISTRY, &[query.query.as_str()], None)
                .map_err(fail)
        })?);
    }
    let (mut cached, mut paper, mut registry, mut render) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for i in 0..DIRECT_REPEATS {
        let (scenario, format) = CACHED[i % CACHED.len()];
        let format = ReportFormat::parse(format).map_err(fail)?;
        let ms = timed(|| service.render_report(scenario, format, None).map_err(fail))?;
        cached.push(ms);
        if scenario == REGISTRY {
            registry.push(ms);
        } else {
            paper.push(ms);
        }
        let report = service.report(scenario, None).map_err(fail)?;
        render.push(timed(|| {
            Ok(match format {
                ReportFormat::Json => rage_report::to_json(&report).render(),
                ReportFormat::Markdown => rage_report::render_markdown(&report),
                ReportFormat::Html => rage_report::render_html(&report),
            })
        })?);
    }
    let (mut write, mut fresh) = (Vec::new(), Vec::new());
    let script = live_updates::mutation_script();
    // Continue the script where the writer left off, so every step applies.
    let version = service.corpus_provenance(LIVE).map_err(fail)?.version;
    for i in 0..DIRECT_REPEATS {
        let step = &script[(version as usize - 1 + i) % script.len()];
        write.push(timed(|| {
            match &step.mutation {
                Mutation::Add(doc) => service.add_document(LIVE, doc.clone()),
                Mutation::Update(doc) => service.update_document(LIVE, doc.clone()),
                Mutation::Remove(id) => service.remove_document(LIVE, id),
            }
            .map_err(fail)
        })?);
        fresh.push(timed(|| {
            service
                .render_report(LIVE, ReportFormat::Json, None)
                .map_err(fail)
        })?);
    }
    Ok(Direct {
        ask_ms: stats::median(&ask),
        cached_ms: stats::median(&cached),
        cached_paper_ms: stats::median(&paper),
        cached_registry_ms: stats::median(&registry),
        render_ms: stats::median(&render),
        write_ms: stats::median(&write),
        fresh_ms: stats::median(&fresh),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::percentile_class;

    /// Latency of each class measured on a 2-vCPU host with both clients
    /// running, used to predict where p50 and p90 fall in the mix.
    const MIX: &[(Class, f64)] = &[
        (Ask, 23.0),
        (CachedRead, 1.0),
        (Mutate, 0.8),
        (FreshReport, 105.0),
    ];

    /// Share of requests per class when both clients run their cycles at the
    /// latencies of [`MIX`].
    fn predicted_mix(latency: impl Fn(Class) -> f64) -> Vec<MixClass> {
        let rate = |cycle: &[Class]| 1.0 / cycle.iter().map(|&c| latency(c)).sum::<f64>();
        let (writer, reader) = (rate(WRITER), rate(READER));
        [Ask, CachedRead, Mutate, FreshReport]
            .into_iter()
            .map(|class| {
                let count = |cycle: &[Class]| cycle.iter().filter(|&&c| c == class).count() as f64;
                MixClass {
                    name: class.name(),
                    share: writer * count(WRITER) + reader * count(READER),
                    latency_ms: latency(class),
                }
            })
            .collect()
    }

    fn nominal(class: Class) -> f64 {
        MIX.iter()
            .find(|(c, _)| *c == class)
            .expect("class latency")
            .1
    }

    #[test]
    fn p50_and_p90_sit_inside_the_ask_class() {
        let mix = predicted_mix(nominal);
        for p in [50.0, 90.0] {
            let (class, margin) = percentile_class(&mix, p);
            assert_eq!(class, "ask", "p{p}");
            assert!(margin >= 0.04, "p{p} only {margin:.3} from a class edge");
        }
    }

    #[test]
    fn the_mix_holds_when_any_class_runs_twice_as_fast_or_slow() {
        for scaled in [Ask, CachedRead, Mutate, FreshReport] {
            for factor in [0.5, 2.0] {
                let mix = predicted_mix(|c| nominal(c) * if c == scaled { factor } else { 1.0 });
                for p in [50.0, 90.0] {
                    assert_eq!(
                        percentile_class(&mix, p).0,
                        "ask",
                        "p{p} with {} at {factor}x",
                        scaled.name()
                    );
                }
            }
        }
    }

    #[test]
    fn refused_and_broken_requests_fail_their_check_and_count_as_misses() {
        let reply = |status: u16, error: Option<&str>| Reply {
            class: Ask,
            traced: false,
            status,
            body:
                br#"{"answer": "Lumen Physics Institute", "sources": [{"doc_id": "org-000007"}]}"#
                    .to_vec(),
            expected: Expected::Record("org-000007".into()),
            bytes_match: false,
            error: error.map(String::from),
        };
        let replies = [
            reply(200, None),
            reply(503, None),
            reply(0, Some("connection closed mid-response")),
            reply(200, None),
        ];
        assert_eq!(check(&replies[0]), Ok(Some(true)));
        let failed = replies.iter().filter(|r| check(r).is_err()).count() as u64;
        assert_eq!(failed, 2);
        assert_eq!(stats::ok_share(replies.len() as u64, failed), 0.5);
    }

    #[test]
    fn live_answers_follow_the_script_for_every_version() {
        assert_eq!(expected_live_answer(1), Some("Qinwen Zheng"));
        assert_eq!(expected_live_answer(2), Some("Mirra Andreeva"));
        assert_eq!(expected_live_answer(3), Some("Emma Navarro"));
        assert_eq!(expected_live_answer(4), Some("Qinwen Zheng"));
        assert_eq!(expected_live_answer(5), Some("Mirra Andreeva"));
        assert_eq!(expected_live_answer(0), None);
    }
}
