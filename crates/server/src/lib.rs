//! # rage-server
//!
//! The RAGE explanation service: the paper's interactive demo (§III) as an
//! HTTP server, built — like every other substrate in this workspace — with
//! no external dependencies: HTTP/1.1 over [`std::net`] (see [`http`]), a
//! fixed worker pool of `std::thread`s fed over an mpsc channel (the PR 2
//! evaluator pattern), and the shared [`rage_report::Service`] layer, which
//! is the *same* code path the `report` CLI renders through — so
//! `GET /report?scenario=S&format=json` is byte-identical to
//! `report --scenario S --format json` (pinned by `tests/endpoints.rs`).
//!
//! ## Endpoints
//!
//! | Method & path       | Description                                          |
//! |---------------------|------------------------------------------------------|
//! | `GET /`             | HTML index: every scenario, linked to its HTML view  |
//! | `GET /scenarios`    | JSON list of registry scenarios (name + summary)     |
//! | `GET /report?scenario=S[&format=md\|json\|html][&shards=N][&deadline_ms=MS]` | one rendered explanation report (default `json`); the `html` format is the self-contained interactive page; `deadline_ms` serves an *anytime* report whose searches stop at the wall-clock deadline, with explicit completeness markers on truncated sections (a cached exact report answers at once; a truncated one is never cached); a report whose prompt would exceed [`rage_report::MAX_PROMPT_TOKENS`] answers 400 before the model runs (a second line of defence: `POST /corpus/docs` already refuses a document longer than its share of the bound) |
//! | `POST /ask`         | JSON body `{"scenario": S, "query": Q[, "k": N][, "deadline_ms": MS]}` — one RAG round trip over the scenario's corpus, answered on the worker that parsed it; `k` sizes nothing (retrieval clamps it to the corpus size); a prompt (question plus retrieved sources) longer than [`rage_report::MAX_PROMPT_TOKENS`] answers 400 before the model runs; `deadline_ms` starts when the body is parsed: an ask already past it answers 408 before any retrieval or forward runs, and one that finishes past it answers 408, so the caller waits at most the deadline plus one ask |
//! | `POST /diff`        | JSON body `{"a": <report>, "b": <report>}` (two report documents, schema v1 or v2) — their [`rage_report::ReportDiff`] |
//! | `GET /diff?scenario=S&from=N&to=N[&shards=N]` | diff the scenario's reports at two corpus versions (the `to` side may be the live version; older sides come from the service's bounded version cache) |
//! | `POST /corpus/docs` | JSON body `{"scenario": S, "doc": {"id", "text"[, "title"][, "fields"]}[, "mode": "add"\|"update"\|"upsert"]}` — mutate the scenario's live corpus; answers the new corpus provenance; a document that would add more than `(MAX_PROMPT_TOKENS − question tokens) / retrieval_k` tokens to the scenario's prompt answers 400 and changes nothing |
//! | `DELETE /corpus/docs/{id}?scenario=S` | remove one document from the scenario's live corpus |
//! | `GET /stats`        | JSON counters: report cache (hits, misses, entries), `/ask` requests (`ask_batching`), connections, per-scenario corpus versions |
//!
//! Errors come back as `{"error":{"status":N,"message":...}}` with the status
//! mirrored in the HTTP status line. Caller mistakes are always 4xx — unknown
//! scenarios 404, malformed bodies/parameters 400 (including `k = 0`, which
//! the engine reports as an invalid argument, *not* as an empty retrieval,
//! `shards` beyond [`rage_report::MAX_SHARDS`], which is rejected before it
//! can size any allocation or thread pool, and a prompt beyond
//! [`rage_report::MAX_PROMPT_TOKENS`], which is rejected before a forward
//! sizes its attention buffers from it), adding a document whose id is
//! already live 409, a known path with the wrong method 405 with an `Allow`
//! header, and a request that trickles past the configured wall-clock
//! deadline 408. Malformed HTTP never panics a worker (see [`http`] for the
//! limits), and if a handler *does* panic the worker catches the unwind and
//! answers 500 — the fixed-size pool never loses a thread to hostile input.
//!
//! ## Live corpora and versions
//!
//! `POST /corpus/docs` and `DELETE /corpus/docs/{id}` mutate a scenario's
//! corpus *in place* through [`Service`]'s incremental index: every mutation
//! bumps the scenario's corpus version, and the report cache is keyed on the
//! version, so a later `GET /report` is regenerated against the new corpus.
//! A report's `"corpus"` provenance member names the version and corpus
//! fingerprint its retrieval read. A write waits for a report's retrieval,
//! never for its generation, and a report finished after a write keeps the
//! version it read. `GET /stats` lists every materialised corpus's current
//! version, and `GET /diff` turns two versions of one scenario into a
//! structured report diff.
//!
//! ## Connection persistence
//!
//! Connections are HTTP/1.1 persistent: a worker keeps answering requests on
//! one connection until the client asks for `Connection: close` (or is
//! HTTP/1.0 without `keep-alive`), the connection idles past
//! [`ServerConfig::keep_alive_timeout`], or
//! [`ServerConfig::max_requests_per_connection`] requests have been served —
//! the cap bounds how long one client can pin a worker of the fixed pool.
//! Responses are always `Content-Length`-framed and advertise the decision in
//! their `Connection` header. Parse failures and handler panics close the
//! connection (framing can no longer be trusted); an idle timeout between
//! requests closes it silently.
//!
//! ## One worker per ask
//!
//! Each `POST /ask` is answered through [`Service::ask`] by the worker that
//! parsed it. Asks are not batched across requests: the simulated model has
//! no batched forward (`LanguageModel` answers one prompt per `generate`
//! call), so coalescing concurrent asks would save no work, while a shared
//! dispatcher would add an admission wait and run every served forward on
//! one thread. Answered on their own workers, concurrent asks run
//! their forwards on as many cores as there are busy workers, and nothing
//! sleeps. The `ask_batching` block of `GET /stats` ([`BatchStats`]) keeps
//! its shape: every ask that reaches the service is a batch of size one.
//!
//! ## Cores
//!
//! The repository benchmark's `serve` workload and the `loadtest` bin run on
//! a 2-vCPU host, where two clients' asks run their forwards at the same
//! time. On a single core the workers can only interleave, but answering on
//! the worker still saves the admission wait a dispatcher would add. Beyond
//! two cores the gain is unmeasured.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod http;

use std::io::{BufReader, BufWriter};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::num::NonZeroU64;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use rage_core::{CorpusProvenance, Deadline};
use rage_json::JsonValue;
use rage_report::service::ErrorKind;
use rage_report::{diff, from_json, Document, ReportFormat, Service, ServiceError};

use http::{parse_request, HttpRequest, HttpResponse};

/// Configuration of a [`Server`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Number of connection-handling worker threads. A worker answers the
    /// requests it parses itself, `/ask` included, so this also bounds how
    /// many forwards the server runs at once.
    pub threads: usize,
    /// Per-read socket timeout (bounds a fully silent peer; each blocking
    /// `read` returns within this long).
    pub read_timeout: Duration,
    /// Overall wall-clock budget for reading one request. The per-read
    /// timeout alone cannot stop a slow-loris client that trickles one byte
    /// per timeout window; this deadline bounds the whole request and
    /// answers 408 when exceeded.
    pub request_deadline: Duration,
    /// How long a persistent connection may sit idle between requests before
    /// the server closes it. Only applies after the first request (the first
    /// read is bounded by `read_timeout`); the idle close is silent, not an
    /// error response.
    pub keep_alive_timeout: Duration,
    /// Upper bound on requests served over one persistent connection before
    /// the server closes it — with a fixed worker pool, the cap bounds how
    /// long one client can pin a worker.
    pub max_requests_per_connection: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            threads: 4,
            read_timeout: Duration::from_secs(10),
            request_deadline: Duration::from_secs(30),
            keep_alive_timeout: Duration::from_secs(5),
            max_requests_per_connection: 100,
        }
    }
}

/// Map a [`ServiceError`] onto the HTTP status its [`ErrorKind`] calls for.
fn status_for(error: &ServiceError) -> u16 {
    match error.kind() {
        ErrorKind::NotFound | ErrorKind::NoResults => 404,
        ErrorKind::BadRequest => 400,
        ErrorKind::Conflict => 409,
        ErrorKind::Internal => 500,
    }
}

fn service_error_response(error: &ServiceError) -> HttpResponse {
    HttpResponse::error(status_for(error), &error.to_string())
}

/// Counters of the `/ask` endpoint (exposed via `GET /stats` and
/// [`Server::batch_stats`]).
///
/// Each ask runs on the worker that parsed it, so every ask that reaches the
/// service is a batch of size one. The batch-shaped fields stay because the
/// `loadtest` report and the repository benchmark read them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BatchStats {
    /// Well-formed `/ask` requests received.
    pub requests: u64,
    /// Asks handed to [`Service::ask`]: every request except those whose
    /// deadline had already expired when the body was parsed.
    pub batches: u64,
    /// Largest number of asks answered by one model call: 1 once any ask has
    /// run, 0 before.
    pub max_batch: u64,
}

/// The live counters behind [`BatchStats`].
#[derive(Default)]
struct AskCounters {
    requests: AtomicU64,
    batches: AtomicU64,
}

impl AskCounters {
    fn stats(&self) -> BatchStats {
        let batches = self.batches.load(Ordering::Relaxed);
        BatchStats {
            requests: self.requests.load(Ordering::Relaxed),
            batches,
            max_batch: batches.min(1),
        }
    }
}

/// The running HTTP server: an accept thread and a worker pool over one
/// shared [`Service`].
pub struct Server {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    asks: Arc<AskCounters>,
    accept_handle: Option<JoinHandle<()>>,
    worker_handles: Vec<JoinHandle<()>>,
    connections: Arc<AtomicU64>,
}

impl Server {
    /// Bind `addr` and start serving `service` on `config.threads` workers.
    ///
    /// Bind to port 0 to let the OS choose (tests do); the effective address
    /// is [`Server::addr`].
    pub fn start(
        addr: impl ToSocketAddrs,
        service: Arc<Service>,
        config: ServerConfig,
    ) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let connections = Arc::new(AtomicU64::new(0));
        let asks = Arc::new(AskCounters::default());

        // The PR 2 worker-pool pattern: accepted connections flow over one
        // mpsc channel into a fixed set of workers; dropping the sender is
        // the workers' shutdown signal.
        let (conn_tx, conn_rx) = mpsc::channel::<TcpStream>();
        let conn_rx = Arc::new(Mutex::new(conn_rx));
        let worker_handles: Vec<JoinHandle<()>> = (0..config.threads.max(1))
            .map(|i| {
                let conn_rx = Arc::clone(&conn_rx);
                let service = Arc::clone(&service);
                let asks = Arc::clone(&asks);
                let connections = Arc::clone(&connections);
                let config = config.clone();
                std::thread::Builder::new()
                    .name(format!("rage-server-worker-{i}"))
                    .spawn(move || loop {
                        let stream = {
                            let guard = conn_rx.lock().expect("connection channel lock");
                            guard.recv()
                        };
                        let Ok(stream) = stream else { return };
                        connections.fetch_add(1, Ordering::Relaxed);
                        handle_connection(stream, &service, &asks, &connections, &config);
                    })
                    .expect("failed to spawn server worker")
            })
            .collect();

        let accept_handle = {
            let shutdown = Arc::clone(&shutdown);
            let listener = listener.try_clone()?;
            std::thread::Builder::new()
                .name("rage-server-accept".to_string())
                .spawn(move || {
                    for stream in listener.incoming() {
                        if shutdown.load(Ordering::Acquire) {
                            break;
                        }
                        match stream {
                            Ok(stream) => {
                                if conn_tx.send(stream).is_err() {
                                    break;
                                }
                            }
                            Err(_) => continue,
                        }
                    }
                    // conn_tx drops here, releasing the workers.
                })
                .expect("failed to spawn accept thread")
        };

        Ok(Server {
            addr,
            shutdown,
            asks,
            accept_handle: Some(accept_handle),
            worker_handles,
            connections,
        })
    }

    /// The address the server is actually listening on.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Counters of the `/ask` endpoint.
    pub fn batch_stats(&self) -> BatchStats {
        self.asks.stats()
    }

    /// Number of connections handed to the worker pool so far.
    pub fn connections_accepted(&self) -> u64 {
        self.connections.load(Ordering::Relaxed)
    }

    /// Stop accepting, drain the workers and join every thread.
    pub fn shutdown(mut self) {
        self.stop_threads();
    }

    fn stop_threads(&mut self) {
        if self.accept_handle.is_none() {
            return;
        }
        self.shutdown.store(true, Ordering::Release);
        // Unblock the accept loop with a throwaway connection to ourselves.
        let _ = TcpStream::connect(self.addr);
        if let Some(handle) = self.accept_handle.take() {
            let _ = handle.join();
        }
        for handle in self.worker_handles.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop_threads();
    }
}

/// Parse, route and answer requests on one connection until it closes.
///
/// HTTP/1.1 persistence: the loop keeps serving as long as the client asked
/// to keep the connection alive, fewer than
/// [`ServerConfig::max_requests_per_connection`] requests have been answered,
/// and the connection has not idled past
/// [`ServerConfig::keep_alive_timeout`]. Each request gets its own wall-clock
/// deadline. Parse failures and panics answer with `Connection: close` and
/// drop the connection — after either, the request framing can no longer be
/// trusted.
///
/// The whole parse-and-route path runs under `catch_unwind`: the worker pool
/// is fixed, so a panicking handler must cost the peer a 500, never the pool
/// a thread (a few unrecovered panics would otherwise silently reduce
/// capacity to zero while the accept thread keeps queuing connections).
fn handle_connection(
    stream: TcpStream,
    service: &Service,
    asks: &AskCounters,
    connections: &AtomicU64,
    config: &ServerConfig,
) {
    let _ = stream.set_read_timeout(Some(config.read_timeout));
    let mut reader = BufReader::new(match stream.try_clone() {
        Ok(clone) => clone,
        Err(_) => return,
    });
    let mut writer = BufWriter::new(stream);
    let mut served = 0usize;
    loop {
        if served > 0 {
            // Between requests the only thing worth waiting for is the next
            // request line; an idle peer gets the (shorter) keep-alive
            // timeout. The clones share one socket, so either handle works.
            let _ = writer
                .get_ref()
                .set_read_timeout(Some(config.keep_alive_timeout));
        }
        let deadline = Instant::now() + config.request_deadline;
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            match parse_request(&mut reader, Some(deadline)) {
                Ok(Some(request)) => {
                    let response = route(&request, service, asks, connections);
                    Some((response, request.keep_alive))
                }
                Ok(None) => None, // clean EOF or idle timeout, nothing to answer
                Err(err) => Some((err.into(), false)),
            }
        }));
        let (response, client_keep_alive) = match outcome {
            Ok(Some(answered)) => answered,
            Ok(None) => return,
            Err(_) => (
                HttpResponse::error(500, "internal error while handling the request"),
                false,
            ),
        };
        served += 1;
        let keep_alive = client_keep_alive && served < config.max_requests_per_connection.max(1);
        if response.write_to(&mut writer, keep_alive).is_err() || !keep_alive {
            return;
        }
    }
}

/// Dispatch one parsed request to its handler.
fn route(
    request: &HttpRequest,
    service: &Service,
    asks: &AskCounters,
    connections: &AtomicU64,
) -> HttpResponse {
    match (request.method.as_str(), request.path.as_str()) {
        ("GET", "/") => index_page(service),
        ("GET", "/scenarios") => scenarios_json(service),
        ("GET", "/report") => report_endpoint(request, service),
        ("POST", "/ask") => ask_endpoint(request, service, asks),
        ("POST", "/diff") => diff_endpoint(request),
        ("GET", "/diff") => diff_versions_endpoint(request, service),
        ("POST", "/corpus/docs") => corpus_mutate_endpoint(request, service),
        ("DELETE", path) if path.starts_with("/corpus/docs/") => {
            corpus_delete_endpoint(request, service)
        }
        ("GET", "/stats") => stats_json(service, asks, connections),
        // Known path, wrong method: 405 naming the method that works there —
        // not 404, which would misreport an existing endpoint as absent.
        (_, "/" | "/scenarios" | "/report" | "/stats") => method_not_allowed("GET"),
        (_, "/ask") => method_not_allowed("POST"),
        (_, "/diff") => method_not_allowed("GET, POST"),
        (_, "/corpus/docs") => method_not_allowed("POST"),
        (_, path) if path.starts_with("/corpus/docs/") => method_not_allowed("DELETE"),
        ("GET" | "POST" | "DELETE", _) => HttpResponse::error(404, "no such endpoint"),
        _ => HttpResponse::error(405, "method not allowed (GET, POST and DELETE only)"),
    }
}

/// A 405 with the RFC-required `Allow` header naming the supported method.
fn method_not_allowed(allow: &'static str) -> HttpResponse {
    HttpResponse::error(405, &format!("method not allowed (use {allow})")).with_allow(allow)
}

/// `GET /` — a small HTML index linking every scenario to its served report.
fn index_page(service: &Service) -> HttpResponse {
    let mut html = String::from(
        "<!DOCTYPE html>\n<html lang=\"en\"><head><meta charset=\"utf-8\">\
         <title>RAGE explanation server</title></head><body>\n\
         <h1>RAGE explanation server</h1>\n\
         <p>Interactive RAG explanations over the registered demonstration \
         scenarios. Each link renders the six-panel explanation page; \
         <code>?format=json</code> and <code>?format=md</code> serve the \
         structured and markdown renderings of the same report.</p>\n<ul>\n",
    );
    for (name, summary) in service.scenario_list() {
        // Registry names are plain identifiers today, but the page must not
        // rely on that: the href gets the percent-encoded name, the link text
        // the HTML-escaped one.
        html.push_str(&format!(
            "<li><a href=\"/report?scenario={}&format=html\">{}</a> — {}</li>\n",
            percent_encode_component(name),
            html_escape_text(name),
            html_escape_text(summary)
        ));
    }
    html.push_str("</ul>\n<p><a href=\"/scenarios\">/scenarios</a> · <a href=\"/stats\">/stats</a></p>\n</body></html>\n");
    HttpResponse::ok("text/html; charset=utf-8", html)
}

fn html_escape_text(value: &str) -> String {
    value
        .replace('&', "&amp;")
        .replace('<', "&lt;")
        .replace('>', "&gt;")
}

/// Percent-encode a string for use as one query-string value (everything but
/// RFC 3986 unreserved characters is escaped).
fn percent_encode_component(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for byte in value.bytes() {
        match byte {
            b'0'..=b'9' | b'a'..=b'z' | b'A'..=b'Z' | b'-' | b'_' | b'.' | b'~' => {
                out.push(byte as char)
            }
            other => out.push_str(&format!("%{other:02X}")),
        }
    }
    out
}

/// `GET /scenarios` — the registry as JSON.
fn scenarios_json(service: &Service) -> HttpResponse {
    let scenarios = service
        .scenario_list()
        .into_iter()
        .map(|(name, summary)| {
            JsonValue::Object(vec![
                ("name".into(), JsonValue::String(name.to_string())),
                ("summary".into(), JsonValue::String(summary.to_string())),
            ])
        })
        .collect();
    let doc = JsonValue::Object(vec![("scenarios".into(), JsonValue::Array(scenarios))]);
    HttpResponse::ok("application/json", doc.render())
}

/// A request body parsed as JSON, or the 400 that says why it is not.
fn json_body(request: &HttpRequest) -> Result<JsonValue, HttpResponse> {
    let body = std::str::from_utf8(&request.body)
        .map_err(|_| HttpResponse::error(400, "request body is not valid UTF-8"))?;
    JsonValue::parse(body)
        .map_err(|err| HttpResponse::error(400, &format!("invalid JSON body: {err}")))
}

/// The optional `shards` query parameter, or the 400 for a malformed one.
fn shards_param(request: &HttpRequest) -> Result<Option<usize>, HttpResponse> {
    request
        .query_param("shards")
        .map(|raw| {
            raw.parse::<usize>()
                .map_err(|_| HttpResponse::error(400, "shards must be a non-negative integer"))
        })
        .transpose()
}

/// `GET /report?scenario=S[&format=F][&shards=N][&deadline_ms=MS]`.
fn report_endpoint(request: &HttpRequest, service: &Service) -> HttpResponse {
    let Some(scenario) = request.query_param("scenario") else {
        return HttpResponse::error(400, "missing required query parameter: scenario");
    };
    let format = match ReportFormat::parse(request.query_param("format").unwrap_or("json")) {
        Ok(format) => format,
        Err(err) => return service_error_response(&err),
    };
    let shards = match shards_param(request) {
        Ok(shards) => shards,
        Err(response) => return response,
    };
    let deadline_ms = match request.query_param("deadline_ms") {
        None => None,
        Some(raw) => match raw.parse::<u64>() {
            Ok(ms) => Some(ms),
            Err(_) => {
                return HttpResponse::error(
                    400,
                    "deadline_ms must be a non-negative integer of milliseconds",
                )
            }
        },
    };
    match service.render_report_with_deadline(scenario, format, shards, deadline_ms) {
        Ok(rendering) => HttpResponse::ok(format.content_type(), rendering),
        Err(err) => service_error_response(&err),
    }
}

/// `POST /ask` — body `{"scenario": S, "query": Q[, "k": N][, "deadline_ms": MS]}`.
///
/// The deadline starts when the body has been parsed. An ask whose deadline
/// has already expired answers 408 before retrieval or a forward runs; one
/// that finishes past its deadline answers 408 too, so a caller waits at most
/// its deadline plus one ask.
fn ask_endpoint(request: &HttpRequest, service: &Service, asks: &AskCounters) -> HttpResponse {
    let value = match json_body(request) {
        Ok(value) => value,
        Err(response) => return response,
    };
    let Some(scenario) = value.get("scenario").and_then(JsonValue::as_str) else {
        return HttpResponse::error(400, "body must have a string \"scenario\" member");
    };
    let Some(query) = value.get("query").and_then(JsonValue::as_str) else {
        return HttpResponse::error(400, "body must have a string \"query\" member");
    };
    let k = match value.get("k") {
        None => None,
        Some(raw) => match raw.as_usize() {
            Some(k) => Some(k),
            None => return HttpResponse::error(400, "\"k\" must be a non-negative integer"),
        },
    };
    let deadline_ms = match value.get("deadline_ms") {
        None => None,
        Some(raw) => match raw.as_usize() {
            Some(ms) => Some(ms as u64),
            None => {
                return HttpResponse::error(
                    400,
                    "\"deadline_ms\" must be a non-negative integer of milliseconds",
                )
            }
        },
    };
    let deadline = deadline_ms.map(|ms| (ms, Deadline::after_ms(ms)));
    let past_deadline = || match &deadline {
        Some((ms, deadline)) if deadline.expired() => Some(HttpResponse::error(
            408,
            &format!("ask did not complete within the {ms} ms deadline"),
        )),
        _ => None,
    };

    asks.requests.fetch_add(1, Ordering::Relaxed);
    if let Some(timeout) = past_deadline() {
        return timeout;
    }
    asks.batches.fetch_add(1, Ordering::Relaxed);
    let answer = service.ask(scenario, query, k);
    if let Some(timeout) = past_deadline() {
        return timeout;
    }
    match answer {
        Ok(response) => {
            let sources = response
                .context
                .sources
                .iter()
                .map(|source| {
                    JsonValue::Object(vec![
                        ("doc_id".into(), JsonValue::String(source.doc_id.clone())),
                        ("rank".into(), JsonValue::Number(source.rank as f64)),
                        (
                            "retrieval_score".into(),
                            JsonValue::Number(source.retrieval_score),
                        ),
                    ])
                })
                .collect();
            let doc = JsonValue::Object(vec![
                ("scenario".into(), JsonValue::String(scenario.to_string())),
                ("query".into(), JsonValue::String(query.to_string())),
                (
                    "answer".into(),
                    JsonValue::String(response.answer().to_string()),
                ),
                ("k".into(), JsonValue::Number(response.k() as f64)),
                ("sources".into(), JsonValue::Array(sources)),
            ]);
            HttpResponse::ok("application/json", doc.render())
        }
        Err(err) => service_error_response(&err),
    }
}

/// `POST /diff` — body `{"a": <schema-v1 report>, "b": <schema-v1 report>}`.
fn diff_endpoint(request: &HttpRequest) -> HttpResponse {
    let value = match json_body(request) {
        Ok(value) => value,
        Err(response) => return response,
    };
    let mut reports = Vec::with_capacity(2);
    for side in ["a", "b"] {
        let Some(doc) = value.get(side) else {
            return HttpResponse::error(400, &format!("body must have an {side:?} report member"));
        };
        match from_json(doc) {
            Ok(report) => reports.push(report),
            Err(err) => {
                return HttpResponse::error(
                    400,
                    &format!("{side:?} is not a report document: {err}"),
                )
            }
        }
    }
    let report_diff = diff(&reports[0], &reports[1]);
    let doc = JsonValue::Object(vec![
        ("identical".into(), JsonValue::Bool(report_diff.is_empty())),
        ("diff".into(), report_diff.to_json()),
    ]);
    HttpResponse::ok("application/json", doc.render())
}

/// Corpus provenance as the JSON shape every corpus-aware response shares.
/// The fingerprint is rendered as 16 hex digits: a `u64` does not survive the
/// round trip through JSON's `f64` numbers.
fn provenance_json(provenance: &CorpusProvenance) -> JsonValue {
    JsonValue::Object(vec![
        (
            "version".into(),
            JsonValue::Number(provenance.version as f64),
        ),
        (
            "fingerprint".into(),
            JsonValue::String(format!("{:016x}", provenance.fingerprint)),
        ),
        (
            "num_docs".into(),
            JsonValue::Number(provenance.num_docs as f64),
        ),
    ])
}

/// Decode the `"doc"` member of a corpus-mutation body into a [`Document`].
fn document_from_json(value: &JsonValue) -> Result<Document, HttpResponse> {
    let Some(id) = value.get("id").and_then(JsonValue::as_str) else {
        return Err(HttpResponse::error(
            400,
            "\"doc\" must have a string \"id\" member",
        ));
    };
    let Some(text) = value.get("text").and_then(JsonValue::as_str) else {
        return Err(HttpResponse::error(
            400,
            "\"doc\" must have a string \"text\" member",
        ));
    };
    let title = match value.get("title") {
        None => "",
        Some(raw) => match raw.as_str() {
            Some(title) => title,
            None => {
                return Err(HttpResponse::error(400, "\"title\" must be a string"));
            }
        },
    };
    let mut doc = Document::new(id, title, text);
    if let Some(fields) = value.get("fields") {
        let JsonValue::Object(members) = fields else {
            return Err(HttpResponse::error(
                400,
                "\"fields\" must be an object of string values",
            ));
        };
        for (key, field) in members {
            let Some(field) = field.as_str() else {
                return Err(HttpResponse::error(
                    400,
                    "\"fields\" must be an object of string values",
                ));
            };
            doc = doc.with_field(key.as_str(), field);
        }
    }
    Ok(doc)
}

/// `POST /corpus/docs` — body
/// `{"scenario": S, "doc": {...}[, "mode": "add"|"update"|"upsert"]}`.
fn corpus_mutate_endpoint(request: &HttpRequest, service: &Service) -> HttpResponse {
    let value = match json_body(request) {
        Ok(value) => value,
        Err(response) => return response,
    };
    let Some(scenario) = value.get("scenario").and_then(JsonValue::as_str) else {
        return HttpResponse::error(400, "body must have a string \"scenario\" member");
    };
    let mode = match value.get("mode") {
        None => "add",
        Some(raw) => match raw.as_str() {
            Some(mode @ ("add" | "update" | "upsert")) => mode,
            _ => {
                return HttpResponse::error(
                    400,
                    "\"mode\" must be \"add\", \"update\" or \"upsert\"",
                )
            }
        },
    };
    let Some(doc_value) = value.get("doc") else {
        return HttpResponse::error(400, "body must have a \"doc\" member");
    };
    let doc = match document_from_json(doc_value) {
        Ok(doc) => doc,
        Err(response) => return response,
    };
    let doc_id = doc.id.clone();
    let result = match mode {
        "add" => service.add_document(scenario, doc),
        "update" => service.update_document(scenario, doc),
        _ => service.upsert_document(scenario, doc),
    };
    match result {
        Ok(provenance) => {
            let doc = JsonValue::Object(vec![
                ("scenario".into(), JsonValue::String(scenario.to_string())),
                ("mode".into(), JsonValue::String(mode.to_string())),
                ("doc_id".into(), JsonValue::String(doc_id)),
                ("corpus".into(), provenance_json(&provenance)),
            ]);
            HttpResponse::ok("application/json", doc.render())
        }
        Err(err) => service_error_response(&err),
    }
}

/// `DELETE /corpus/docs/{id}?scenario=S`.
fn corpus_delete_endpoint(request: &HttpRequest, service: &Service) -> HttpResponse {
    let id = request
        .path
        .strip_prefix("/corpus/docs/")
        .unwrap_or_default();
    if id.is_empty() {
        return HttpResponse::error(400, "missing document id in path");
    }
    let Some(scenario) = request.query_param("scenario") else {
        return HttpResponse::error(400, "missing required query parameter: scenario");
    };
    match service.remove_document(scenario, id) {
        Ok(provenance) => {
            let doc = JsonValue::Object(vec![
                ("scenario".into(), JsonValue::String(scenario.to_string())),
                ("removed".into(), JsonValue::String(id.to_string())),
                ("corpus".into(), provenance_json(&provenance)),
            ]);
            HttpResponse::ok("application/json", doc.render())
        }
        Err(err) => service_error_response(&err),
    }
}

/// `GET /diff?scenario=S&from=N&to=N[&shards=N]` — the report diff between
/// two corpus versions of one scenario.
fn diff_versions_endpoint(request: &HttpRequest, service: &Service) -> HttpResponse {
    let Some(scenario) = request.query_param("scenario") else {
        return HttpResponse::error(400, "missing required query parameter: scenario");
    };
    let mut versions = [0u64; 2];
    for (slot, key) in versions.iter_mut().zip(["from", "to"]) {
        let Some(raw) = request.query_param(key) else {
            return HttpResponse::error(
                400,
                &format!("missing required query parameter: {key} (a corpus version)"),
            );
        };
        // Versions start at 1, so 0 is malformed, not an unknown version.
        match raw.parse::<NonZeroU64>() {
            Ok(version) => *slot = version.get(),
            Err(_) => {
                return HttpResponse::error(
                    400,
                    &format!("{key} must be a corpus version (a positive integer)"),
                )
            }
        }
    }
    let shards = match shards_param(request) {
        Ok(shards) => shards,
        Err(response) => return response,
    };
    match service.diff_reports(scenario, versions[0], versions[1], shards) {
        Ok(report_diff) => {
            let doc = JsonValue::Object(vec![
                ("scenario".into(), JsonValue::String(scenario.to_string())),
                ("from".into(), JsonValue::Number(versions[0] as f64)),
                ("to".into(), JsonValue::Number(versions[1] as f64)),
                ("identical".into(), JsonValue::Bool(report_diff.is_empty())),
                ("diff".into(), report_diff.to_json()),
            ]);
            HttpResponse::ok("application/json", doc.render())
        }
        Err(err) => service_error_response(&err),
    }
}

/// `GET /stats` — service + `/ask` counters.
fn stats_json(service: &Service, asks: &AskCounters, connections: &AtomicU64) -> HttpResponse {
    let report_cache = service.report_cache_stats();
    let batch = asks.stats();
    let doc = JsonValue::Object(vec![
        (
            "connections".into(),
            JsonValue::Number(connections.load(Ordering::Relaxed) as f64),
        ),
        (
            "report_cache".into(),
            JsonValue::Object(vec![
                ("hits".into(), JsonValue::Number(report_cache.hits as f64)),
                (
                    "misses".into(),
                    JsonValue::Number(report_cache.misses as f64),
                ),
                (
                    "entries".into(),
                    JsonValue::Number(report_cache.entries as f64),
                ),
            ]),
        ),
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
        (
            "corpora".into(),
            JsonValue::Object(
                service
                    .corpus_versions()
                    .into_iter()
                    .map(|(name, provenance)| (name, provenance_json(&provenance)))
                    .collect(),
            ),
        ),
    ]);
    HttpResponse::ok("application/json", doc.render())
}
