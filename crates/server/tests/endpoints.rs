//! End-to-end endpoint tests over a real socket: every response is produced by
//! a running [`Server`] and compared against the library oracles — the same
//! `scenarios::report_for` path the golden snapshots pin, and direct
//! [`Service`] calls for `/ask`.

use std::io::{BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use rage_core::explanation::ReportConfig;
use rage_core::RageReport;
use rage_json::JsonValue;
use rage_report::scenarios::{report_for, scenario_by_name, scenario_names};
use rage_report::{to_json, Service, MAX_SHARDS};
use rage_server::{Server, ServerConfig};

/// A split HTTP response: status code, header block, body bytes.
type Response = (u16, String, Vec<u8>);

/// One raw HTTP/1.1 exchange on a fresh connection: write `request` bytes,
/// shut the write side down (so the server sees EOF instead of waiting out
/// the keep-alive idle timeout), read until the server closes, split the
/// response. Persistent-connection behaviour has its own framed-read tests.
fn exchange(server: &Server, request: &[u8]) -> Response {
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    stream.write_all(request).expect("write request");
    stream
        .shutdown(std::net::Shutdown::Write)
        .expect("half-close");
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).expect("read response");
    let split = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .expect("response has a header/body split");
    let head = String::from_utf8(raw[..split].to_vec()).expect("headers are UTF-8");
    let body = raw[split + 4..].to_vec();
    let status: u16 = head
        .split_whitespace()
        .nth(1)
        .expect("status line has a code")
        .parse()
        .expect("status code is numeric");
    (status, head, body)
}

/// Read exactly one `Content-Length`-framed response off a persistent
/// connection, leaving the connection usable for the next request.
fn read_framed(reader: &mut BufReader<TcpStream>) -> Response {
    let mut head = Vec::new();
    let mut byte = [0u8; 1];
    while !head.ends_with(b"\r\n\r\n") {
        reader.read_exact(&mut byte).expect("read header byte");
        head.push(byte[0]);
    }
    let head = String::from_utf8(head[..head.len() - 4].to_vec()).expect("headers are UTF-8");
    let status: u16 = head
        .split_whitespace()
        .nth(1)
        .expect("status line has a code")
        .parse()
        .expect("status code is numeric");
    let content_length: usize = head
        .lines()
        .find_map(|line| {
            let (name, value) = line.split_once(':')?;
            name.eq_ignore_ascii_case("content-length")
                .then(|| value.trim().parse().expect("numeric Content-Length"))
        })
        .expect("response has a Content-Length");
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body).expect("read framed body");
    (status, head, body)
}

/// The provenance the service stamps into every served report of `name` at
/// its current corpus version — the library oracle (`report_for`) leaves the
/// member empty, so byte-identity tests add it before comparing.
fn stamp_provenance(report: &mut RageReport, name: &str) {
    let service = Service::new();
    report.corpus = Some(service.corpus_provenance(name).expect(name));
}

fn get(server: &Server, target: &str) -> Response {
    exchange(
        server,
        format!("GET {target} HTTP/1.1\r\nHost: test\r\n\r\n").as_bytes(),
    )
}

fn post(server: &Server, target: &str, body: &str) -> Response {
    exchange(
        server,
        format!(
            "POST {target} HTTP/1.1\r\nHost: test\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        )
        .as_bytes(),
    )
}

fn start_server() -> Server {
    Server::start(
        "127.0.0.1:0",
        Arc::new(Service::new()),
        ServerConfig {
            threads: 2,
            ..ServerConfig::default()
        },
    )
    .expect("server starts")
}

/// The acceptance criterion of the PR: the served JSON report is byte-identical
/// to the CLI/library rendering for EVERY registry scenario.
#[test]
fn served_report_json_is_byte_identical_to_the_cli_path_for_every_scenario() {
    let server = start_server();
    for name in scenario_names() {
        let (status, _, body) = get(&server, &format!("/report?scenario={name}&format=json"));
        assert_eq!(status, 200, "{name}");

        let scenario = scenario_by_name(name).expect(name);
        let mut report = report_for(&scenario, &ReportConfig::default()).expect(name);
        stamp_provenance(&mut report, name);
        let oracle = to_json(&report).render();
        assert_eq!(
            body,
            oracle.as_bytes(),
            "{name}: served JSON differs from the library rendering"
        );
    }
}

#[test]
fn report_formats_and_shards_serve_the_library_renderings() {
    let server = start_server();
    let scenario = scenario_by_name("us_open").unwrap();
    let mut report = report_for(&scenario, &ReportConfig::default()).unwrap();
    stamp_provenance(&mut report, "us_open");

    let (status, head, body) = get(&server, "/report?scenario=us_open&format=md");
    assert_eq!(status, 200);
    assert!(head.contains("text/markdown"), "{head}");
    assert_eq!(body, rage_report::render_markdown(&report).as_bytes());

    let (status, head, body) = get(&server, "/report?scenario=us_open&format=html");
    assert_eq!(status, 200);
    assert!(head.contains("text/html"), "{head}");
    assert_eq!(body, rage_report::render_html(&report).as_bytes());

    // Sharded retrieval serves the same bytes (rankings are bit-identical).
    let (_, _, single) = get(&server, "/report?scenario=us_open&format=json");
    let (status, _, sharded) = get(&server, "/report?scenario=us_open&format=json&shards=3");
    assert_eq!(status, 200);
    assert_eq!(single, sharded);

    // `us-open` normalises to `us_open` exactly like the CLI.
    let (status, _, dashed) = get(&server, "/report?scenario=us-open&format=json");
    assert_eq!(status, 200);
    assert_eq!(single, dashed);
}

#[test]
fn scenarios_endpoint_lists_the_whole_registry() {
    let server = start_server();
    let (status, head, body) = get(&server, "/scenarios");
    assert_eq!(status, 200);
    assert!(head.contains("application/json"), "{head}");
    let doc = JsonValue::parse(std::str::from_utf8(&body).unwrap()).expect("valid JSON");
    let listed: Vec<&str> = doc
        .get("scenarios")
        .and_then(JsonValue::as_array)
        .expect("scenarios array")
        .iter()
        .map(|entry| entry.get("name").and_then(JsonValue::as_str).unwrap())
        .collect();
    assert_eq!(listed, scenario_names());
}

#[test]
fn index_page_links_every_scenario() {
    let server = start_server();
    let (status, head, body) = get(&server, "/");
    assert_eq!(status, 200);
    assert!(head.contains("text/html"), "{head}");
    let html = std::str::from_utf8(&body).unwrap();
    for name in scenario_names() {
        assert!(
            html.contains(&format!("/report?scenario={name}&format=html")),
            "index page is missing {name}"
        );
    }
}

#[test]
fn ask_matches_a_direct_service_call() {
    let server = start_server();
    let (status, _, body) = post(
        &server,
        "/ask",
        r#"{"scenario": "us_open", "query": "Who won the US Open?", "k": 3}"#,
    );
    assert_eq!(status, 200);
    let doc = JsonValue::parse(std::str::from_utf8(&body).unwrap()).expect("valid JSON");

    let service = Service::new();
    let oracle = service
        .ask("us_open", "Who won the US Open?", Some(3))
        .unwrap();
    assert_eq!(
        doc.get("answer").and_then(JsonValue::as_str),
        Some(oracle.answer())
    );
    assert_eq!(doc.get("k").and_then(JsonValue::as_usize), Some(3));
    let sources = doc
        .get("sources")
        .and_then(JsonValue::as_array)
        .expect("sources array");
    assert_eq!(sources.len(), oracle.context.sources.len());
    for (served, expected) in sources.iter().zip(&oracle.context.sources) {
        assert_eq!(
            served.get("doc_id").and_then(JsonValue::as_str),
            Some(expected.doc_id.as_str())
        );
    }

    // Without "k" the scenario's default retrieval depth applies.
    let (status, _, body) = post(
        &server,
        "/ask",
        r#"{"scenario": "us_open", "query": "Who won the US Open?"}"#,
    );
    assert_eq!(status, 200);
    let doc = JsonValue::parse(std::str::from_utf8(&body).unwrap()).unwrap();
    let default_k = scenario_by_name("us_open").unwrap().retrieval_k;
    assert_eq!(doc.get("k").and_then(JsonValue::as_usize), Some(default_k));
}

/// Concurrent asks run on their own workers without changing any answer:
/// every response equals the direct-call oracle, and every ask counts as one
/// batch of size one.
#[test]
fn concurrent_asks_stay_element_wise_identical() {
    let server = Arc::new(
        Server::start(
            "127.0.0.1:0",
            Arc::new(Service::new()),
            ServerConfig {
                threads: 8,
                ..ServerConfig::default()
            },
        )
        .unwrap(),
    );

    const QUERIES: [&str; 6] = [
        "Who won the US Open?",
        "Who won the championship?",
        "When was the final played?",
        "Who lost the final?",
        "Who won the US Open?",
        "Which seed won?",
    ];
    let handles: Vec<_> = QUERIES
        .iter()
        .map(|query| {
            let server = Arc::clone(&server);
            std::thread::spawn(move || {
                let body = format!(r#"{{"scenario": "us_open", "query": {}, "k": 3}}"#, {
                    let mut quoted = String::new();
                    rage_json::write_json_string(&mut quoted, query);
                    quoted
                });
                post(&server, "/ask", &body)
            })
        })
        .collect();
    let responses: Vec<Response> = handles.into_iter().map(|h| h.join().unwrap()).collect();

    let service = Service::new();
    for (query, (status, _, body)) in QUERIES.iter().zip(&responses) {
        assert_eq!(*status, 200, "{query}");
        let doc = JsonValue::parse(std::str::from_utf8(body).unwrap()).unwrap();
        let oracle = service.ask("us_open", query, Some(3)).unwrap();
        assert_eq!(
            doc.get("answer").and_then(JsonValue::as_str),
            Some(oracle.answer()),
            "concurrent answer for {query:?} differs from the direct-call oracle"
        );
    }

    let stats = server.batch_stats();
    assert_eq!(stats.requests, QUERIES.len() as u64);
    assert_eq!(stats.batches, stats.requests, "stats: {stats:?}");
    assert_eq!(stats.max_batch, 1, "stats: {stats:?}");
}

#[test]
fn diff_endpoint_compares_two_report_documents() {
    let server = start_server();
    let scenario = scenario_by_name("us_open").unwrap();
    let report = report_for(&scenario, &ReportConfig::default()).unwrap();
    let doc = to_json(&report).render();

    let (status, _, body) = post(&server, "/diff", &format!(r#"{{"a": {doc}, "b": {doc}}}"#));
    assert_eq!(status, 200);
    let parsed = JsonValue::parse(std::str::from_utf8(&body).unwrap()).unwrap();
    assert_eq!(
        parsed.get("identical").and_then(JsonValue::as_bool),
        Some(true)
    );

    let other = to_json(
        &report_for(
            &scenario_by_name("timeline").unwrap(),
            &ReportConfig::default(),
        )
        .unwrap(),
    )
    .render();
    let (status, _, body) = post(
        &server,
        "/diff",
        &format!(r#"{{"a": {doc}, "b": {other}}}"#),
    );
    assert_eq!(status, 200);
    let parsed = JsonValue::parse(std::str::from_utf8(&body).unwrap()).unwrap();
    assert_eq!(
        parsed.get("identical").and_then(JsonValue::as_bool),
        Some(false)
    );

    let (status, _, _) = post(
        &server,
        "/diff",
        r#"{"a": {"bogus": 1}, "b": {"bogus": 2}}"#,
    );
    assert_eq!(status, 400);
}

/// Caller mistakes map onto 4xx — never 500, never a dropped connection.
#[test]
fn caller_mistakes_map_to_4xx() {
    let server = start_server();
    let cases: Vec<(&str, Response)> = vec![
        ("unknown scenario", get(&server, "/report?scenario=nope")),
        ("missing scenario", get(&server, "/report")),
        (
            "bad format",
            get(&server, "/report?scenario=us_open&format=pdf"),
        ),
        (
            "shards=0",
            get(&server, "/report?scenario=us_open&shards=0"),
        ),
        (
            "shards junk",
            get(&server, "/report?scenario=us_open&shards=two"),
        ),
        (
            "shards beyond the cap (would otherwise size allocations/threads)",
            get(&server, "/report?scenario=us_open&shards=999999999999"),
        ),
        (
            "shards just over the cap",
            get(
                &server,
                &format!("/report?scenario=us_open&shards={}", MAX_SHARDS + 1),
            ),
        ),
        ("unknown endpoint", get(&server, "/nope")),
        (
            "ask k=0 is invalid-argument, not empty-context",
            post(
                &server,
                "/ask",
                r#"{"scenario": "us_open", "query": "q", "k": 0}"#,
            ),
        ),
        (
            "ask unknown scenario",
            post(&server, "/ask", r#"{"scenario": "nope", "query": "q"}"#),
        ),
        ("ask non-JSON body", post(&server, "/ask", "not json")),
        (
            "ask missing query",
            post(&server, "/ask", r#"{"scenario": "us_open"}"#),
        ),
        (
            "ask non-integer k",
            post(
                &server,
                "/ask",
                r#"{"scenario": "us_open", "query": "q", "k": 1.5}"#,
            ),
        ),
        ("diff missing sides", post(&server, "/diff", r#"{"a": 1}"#)),
    ];
    for (label, (status, _, body)) in &cases {
        assert!(
            (400..500).contains(status),
            "{label}: expected 4xx, got {status}"
        );
        // Every error body is machine-readable JSON with the status mirrored.
        let doc = JsonValue::parse(std::str::from_utf8(body).unwrap())
            .unwrap_or_else(|err| panic!("{label}: error body is not JSON: {err}"));
        assert_eq!(
            doc.get("error")
                .and_then(|e| e.get("status"))
                .and_then(JsonValue::as_usize),
            Some(*status as usize),
            "{label}"
        );
    }

    let (status, _, _) = exchange(&server, b"DELETE /report HTTP/1.1\r\nHost: t\r\n\r\n");
    assert_eq!(status, 405);

    // Wrong method on a *known* path is 405 + Allow, not a misleading 404.
    let (status, head, _) = exchange(
        &server,
        b"POST /report HTTP/1.1\r\nHost: t\r\nContent-Length: 0\r\n\r\n",
    );
    assert_eq!(status, 405);
    assert!(head.contains("Allow: GET"), "{head}");
    let (status, head, _) = get(&server, "/ask");
    assert_eq!(status, 405);
    assert!(head.contains("Allow: POST"), "{head}");

    // k=0 must carry the invalid-argument wording from the engine.
    let (status, _, body) = post(
        &server,
        "/ask",
        r#"{"scenario": "us_open", "query": "q", "k": 0}"#,
    );
    assert_eq!(status, 400);
    let text = String::from_utf8(body).unwrap();
    assert!(text.contains("invalid argument"), "{text}");
    assert!(
        !text.contains("empty"),
        "k=0 must not read as empty-context: {text}"
    );
}

/// HTTP/1.1 keep-alive: one connection serves many requests, `Connection:
/// close` and the per-connection request cap end it, and an idle connection
/// is closed silently after the keep-alive timeout.
#[test]
fn persistent_connections_reuse_one_socket_until_close_or_cap() {
    let server = start_server();
    let stream = TcpStream::connect(server.addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    for _ in 0..3 {
        (&stream)
            .write_all(b"GET /scenarios HTTP/1.1\r\nHost: t\r\n\r\n")
            .unwrap();
        let (status, head, body) = read_framed(&mut reader);
        assert_eq!(status, 200);
        assert!(head.contains("Connection: keep-alive"), "{head}");
        assert!(!body.is_empty());
    }
    // `Connection: close` is honoured: the response says close, then EOF.
    (&stream)
        .write_all(b"GET /scenarios HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n")
        .unwrap();
    let (status, head, _) = read_framed(&mut reader);
    assert_eq!(status, 200);
    assert!(head.contains("Connection: close"), "{head}");
    let mut rest = Vec::new();
    reader.read_to_end(&mut rest).unwrap();
    assert!(rest.is_empty());
    // All four requests rode one accepted connection.
    assert_eq!(server.connections_accepted(), 1);

    let capped = Server::start(
        "127.0.0.1:0",
        Arc::new(Service::new()),
        ServerConfig {
            threads: 2,
            max_requests_per_connection: 2,
            keep_alive_timeout: Duration::from_millis(500),
            ..ServerConfig::default()
        },
    )
    .expect("server starts");

    // The per-connection request cap closes the connection at the limit.
    let stream = TcpStream::connect(capped.addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    (&stream)
        .write_all(b"GET /scenarios HTTP/1.1\r\nHost: t\r\n\r\n")
        .unwrap();
    let (_, head, _) = read_framed(&mut reader);
    assert!(head.contains("Connection: keep-alive"), "{head}");
    (&stream)
        .write_all(b"GET /scenarios HTTP/1.1\r\nHost: t\r\n\r\n")
        .unwrap();
    let (_, head, _) = read_framed(&mut reader);
    assert!(head.contains("Connection: close"), "{head}");
    let mut rest = Vec::new();
    reader.read_to_end(&mut rest).unwrap();
    assert!(rest.is_empty());

    // An idle keep-alive connection is closed silently after the timeout —
    // no 4xx bytes, just EOF.
    let stream = TcpStream::connect(capped.addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    (&stream)
        .write_all(b"GET /scenarios HTTP/1.1\r\nHost: t\r\n\r\n")
        .unwrap();
    let (_, head, _) = read_framed(&mut reader);
    assert!(head.contains("Connection: keep-alive"), "{head}");
    let mut rest = Vec::new();
    reader.read_to_end(&mut rest).unwrap();
    assert!(
        rest.is_empty(),
        "idle close must not write an error response: {:?}",
        String::from_utf8_lossy(&rest)
    );
}

/// The ISSUE acceptance criterion: mutating a corpus over HTTP invalidates
/// the cached `/report` (old bytes ≠ new bytes) with the version visible in
/// `/stats` and in the report's provenance — plus the typed 409/404 edges of
/// the mutation API and `GET /diff` across versions.
#[test]
fn corpus_mutation_over_http_invalidates_the_served_report() {
    let server = start_server();
    let (status, _, before) = get(&server, "/report?scenario=us_open&format=json");
    assert_eq!(status, 200);
    let before_doc = JsonValue::parse(std::str::from_utf8(&before).unwrap()).unwrap();
    let version_of = |doc: &JsonValue| {
        doc.get("corpus")
            .and_then(|c| c.get("version"))
            .and_then(JsonValue::as_usize)
    };
    assert_eq!(version_of(&before_doc), Some(1));

    let (_, _, stats) = get(&server, "/stats");
    let stats_doc = JsonValue::parse(std::str::from_utf8(&stats).unwrap()).unwrap();
    let us_open_stats = stats_doc
        .get("corpora")
        .and_then(|c| c.get("us_open"))
        .expect("us_open in /stats corpora");
    assert_eq!(
        us_open_stats.get("version").and_then(JsonValue::as_usize),
        Some(1)
    );
    let fingerprint_v1 = us_open_stats
        .get("fingerprint")
        .and_then(JsonValue::as_str)
        .expect("fingerprint in /stats")
        .to_string();

    // Add a 2024 champion: the retrieval pool and the answer both change.
    let add_body = r#"{"scenario": "us_open", "doc": {"id": "us-open-2024", "title": "US Open 2024", "text": "Aryna Sabalenka won the 2024 US Open women's singles championship, defeating Jessica Pegula in the final.", "fields": {"year": "2024", "champion": "Aryna Sabalenka"}}}"#;
    let (status, _, response) = post(&server, "/corpus/docs", add_body);
    assert_eq!(status, 200, "{}", String::from_utf8_lossy(&response));
    let mutation_doc = JsonValue::parse(std::str::from_utf8(&response).unwrap()).unwrap();
    assert_eq!(
        mutation_doc.get("mode").and_then(JsonValue::as_str),
        Some("add")
    );
    assert_eq!(
        mutation_doc.get("doc_id").and_then(JsonValue::as_str),
        Some("us-open-2024")
    );
    assert_eq!(version_of(&mutation_doc), Some(2));

    // Adding the same id again is a typed conflict, not a worker panic.
    let (status, _, body) = post(&server, "/corpus/docs", add_body);
    assert_eq!(status, 409, "{}", String::from_utf8_lossy(&body));
    let conflict = JsonValue::parse(std::str::from_utf8(&body).unwrap()).unwrap();
    assert_eq!(
        conflict
            .get("error")
            .and_then(|e| e.get("status"))
            .and_then(JsonValue::as_usize),
        Some(409)
    );

    // The cached report was invalidated: new bytes, version-2 provenance.
    let (status, _, after) = get(&server, "/report?scenario=us_open&format=json");
    assert_eq!(status, 200);
    assert_ne!(before, after, "stale report bytes served after a mutation");
    let after_doc = JsonValue::parse(std::str::from_utf8(&after).unwrap()).unwrap();
    assert_eq!(version_of(&after_doc), Some(2));

    // /stats reflects the new version and a moved fingerprint.
    let (_, _, stats) = get(&server, "/stats");
    let stats_doc = JsonValue::parse(std::str::from_utf8(&stats).unwrap()).unwrap();
    let us_open_stats = stats_doc
        .get("corpora")
        .and_then(|c| c.get("us_open"))
        .expect("us_open in /stats corpora");
    assert_eq!(
        us_open_stats.get("version").and_then(JsonValue::as_usize),
        Some(2)
    );
    assert_ne!(
        us_open_stats.get("fingerprint").and_then(JsonValue::as_str),
        Some(fingerprint_v1.as_str())
    );

    // GET /diff spans the two corpus versions through the report cache.
    let (status, _, body) = get(&server, "/diff?scenario=us_open&from=1&to=2");
    assert_eq!(status, 200, "{}", String::from_utf8_lossy(&body));
    let diff_doc = JsonValue::parse(std::str::from_utf8(&body).unwrap()).unwrap();
    assert_eq!(
        diff_doc.get("identical").and_then(JsonValue::as_bool),
        Some(false)
    );
    let (status, _, body) = get(&server, "/diff?scenario=us_open&from=2&to=2");
    assert_eq!(status, 200);
    let diff_doc = JsonValue::parse(std::str::from_utf8(&body).unwrap()).unwrap();
    assert_eq!(
        diff_doc.get("identical").and_then(JsonValue::as_bool),
        Some(true)
    );

    // Unknown versions and malformed parameters are 4xx, never 500.
    let (status, _, _) = get(&server, "/diff?scenario=us_open&from=9&to=2");
    assert_eq!(status, 404);
    let (status, _, _) = get(&server, "/diff?scenario=us_open&from=one&to=2");
    assert_eq!(status, 400);
    let (status, _, _) = get(&server, "/diff?scenario=us_open&from=1");
    assert_eq!(status, 400);

    // Updating an unknown id is 404; so is deleting one.
    let (status, _, _) = post(
        &server,
        "/corpus/docs",
        r#"{"scenario": "us_open", "mode": "update", "doc": {"id": "nope", "text": "x"}}"#,
    );
    assert_eq!(status, 404);
    let (status, _, _) = exchange(
        &server,
        b"DELETE /corpus/docs/nope?scenario=us_open HTTP/1.1\r\nHost: t\r\n\r\n",
    );
    assert_eq!(status, 404);

    // DELETE removes the document and bumps the version again.
    let (status, _, body) = exchange(
        &server,
        b"DELETE /corpus/docs/us-open-2024?scenario=us_open HTTP/1.1\r\nHost: t\r\n\r\n",
    );
    assert_eq!(status, 200, "{}", String::from_utf8_lossy(&body));
    let delete_doc = JsonValue::parse(std::str::from_utf8(&body).unwrap()).unwrap();
    assert_eq!(
        delete_doc.get("removed").and_then(JsonValue::as_str),
        Some("us-open-2024")
    );
    assert_eq!(version_of(&delete_doc), Some(3));

    // Wrong methods on the new paths are 405 + Allow, not 404.
    let (status, head, _) = get(&server, "/corpus/docs");
    assert_eq!(status, 405);
    assert!(head.contains("Allow: POST"), "{head}");
    let (status, head, _) = get(&server, "/corpus/docs/us-open-2024");
    assert_eq!(status, 405);
    assert!(head.contains("Allow: DELETE"), "{head}");
    let (status, head, _) = exchange(&server, b"DELETE /diff HTTP/1.1\r\nHost: t\r\n\r\n");
    assert_eq!(status, 405);
    assert!(head.contains("Allow: GET, POST"), "{head}");
}

/// The report cache makes the second identical request a hit, visible in
/// `/stats`, and repeat requests stay byte-identical.
#[test]
fn stats_reflect_the_report_cache() {
    let server = start_server();
    let (_, _, first) = get(&server, "/report?scenario=timeline&format=json");
    let (_, _, second) = get(&server, "/report?scenario=timeline&format=json");
    assert_eq!(first, second);

    let (status, _, body) = get(&server, "/stats");
    assert_eq!(status, 200);
    let doc = JsonValue::parse(std::str::from_utf8(&body).unwrap()).unwrap();
    let cache = doc.get("report_cache").expect("report_cache member");
    assert_eq!(cache.get("misses").and_then(JsonValue::as_usize), Some(1));
    assert!(cache.get("hits").and_then(JsonValue::as_usize).unwrap() >= 1);
}

/// `deadline_ms=` turns `/report` into an anytime request: a pre-expired
/// deadline still answers 200 with an explicit `completeness` block, a
/// truncated report is never cached (the exact report stays byte-identical
/// after the anytime traffic), a cached exact report answers every deadline,
/// and a malformed deadline is the caller's fault, not the server's.
#[test]
fn report_deadlines_bound_work_without_poisoning_the_exact_cache() {
    let server = start_server();

    // A deadline that expired before the searches even started, on a cold
    // cache: still a 200, and the document says out loud which sections were
    // cut short.
    let (status, head, body) = get(
        &server,
        "/report?scenario=us_open&format=json&deadline_ms=0",
    );
    assert_eq!(status, 200, "{head}");
    let doc = JsonValue::parse(std::str::from_utf8(&body).unwrap()).expect("anytime JSON parses");
    let block = doc
        .get("completeness")
        .expect("pre-expired deadline must surface a completeness block");
    let kind = block
        .get("top_down")
        .and_then(|m| m.get("kind"))
        .and_then(JsonValue::as_str);
    assert_eq!(kind, Some("deadline_truncated"));

    // The exact report never saw the truncated one.
    let (status, _, exact_before) = get(&server, "/report?scenario=us_open&format=json");
    assert_eq!(status, 200);
    assert_ne!(exact_before, body);

    // A generous deadline completes everything: no completeness block, and
    // the bytes match the exhaustive rendering exactly.
    let (status, _, relaxed) = get(
        &server,
        "/report?scenario=us_open&format=json&deadline_ms=600000",
    );
    assert_eq!(status, 200);
    assert_eq!(relaxed, exact_before);

    // Once cached, the exact report answers even an expired deadline, and
    // the cache holds that one report.
    let (status, _, expired) = get(
        &server,
        "/report?scenario=us_open&format=json&deadline_ms=0",
    );
    assert_eq!(status, 200);
    assert_eq!(expired, exact_before);
    let (status, _, exact_after) = get(&server, "/report?scenario=us_open&format=json");
    assert_eq!(status, 200);
    assert_eq!(exact_after, exact_before);
    let (_, _, stats) = get(&server, "/stats");
    let stats = JsonValue::parse(std::str::from_utf8(&stats).unwrap()).unwrap();
    let entries = stats
        .get("report_cache")
        .and_then(|cache| cache.get("entries"))
        .and_then(JsonValue::as_usize);
    assert_eq!(entries, Some(1));

    // Malformed deadlines are 400s.
    for target in [
        "/report?scenario=us_open&format=json&deadline_ms=abc",
        "/report?scenario=us_open&format=json&deadline_ms=-1",
        "/report?scenario=us_open&format=json&deadline_ms=",
    ] {
        let (status, _, body) = get(&server, target);
        assert_eq!(status, 400, "{target}");
        let text = String::from_utf8(body).unwrap();
        assert!(text.contains("deadline_ms"), "{target}: {text}");
    }
}

/// `/ask` honours a caller deadline: a generous one answers exactly like an
/// undeadlined ask, an already-expired one is a 408 (answered before any
/// work runs), and the server stays healthy either way.
#[test]
fn ask_deadlines_time_out_without_wedging_the_server() {
    let server = start_server();

    // Pre-expired: a zero deadline has passed by the time the body is
    // parsed, so the worker answers 408 at once. This cannot race.
    let (status, _, body) = post(
        &server,
        "/ask",
        r#"{"scenario": "us_open", "query": "Who won the US Open 2023?", "deadline_ms": 0}"#,
    );
    assert_eq!(status, 408);
    assert!(
        String::from_utf8(body).unwrap().contains("deadline"),
        "408 body names the deadline"
    );

    // The expired ask left nothing behind; a generous deadline matches the
    // undeadlined answer byte for byte.
    let (status, _, plain) = post(
        &server,
        "/ask",
        r#"{"scenario": "us_open", "query": "Who won the US Open 2023?"}"#,
    );
    assert_eq!(status, 200);
    let (status, _, bounded) = post(
        &server,
        "/ask",
        r#"{"scenario": "us_open", "query": "Who won the US Open 2023?", "deadline_ms": 600000}"#,
    );
    assert_eq!(status, 200);
    assert_eq!(bounded, plain);

    // Malformed deadline in the body: caller's fault.
    let (status, _, body) = post(
        &server,
        "/ask",
        r#"{"scenario": "us_open", "query": "Who won?", "deadline_ms": "soon"}"#,
    );
    assert_eq!(status, 400);
    assert!(String::from_utf8(body).unwrap().contains("deadline_ms"));
}

/// An expired deadline is checked before the service is touched: the first
/// `/ask` of a fresh service answers 408, builds no scenario runtime (so no
/// retrieval and no forward ran) and counts as a request but not a batch.
#[test]
fn expired_ask_deadline_answers_408_before_any_work() {
    let service = Arc::new(Service::new());
    let server = Server::start(
        "127.0.0.1:0",
        Arc::clone(&service),
        ServerConfig {
            threads: 2,
            ..ServerConfig::default()
        },
    )
    .expect("server starts");

    let (status, _, body) = post(
        &server,
        "/ask",
        r#"{"scenario": "us_open", "query": "Who won the US Open?", "deadline_ms": 0}"#,
    );
    assert_eq!(status, 408, "{}", String::from_utf8_lossy(&body));
    assert_eq!(service.prefix_cache_stats("us_open", None), None);
    let stats = server.batch_stats();
    assert_eq!((stats.requests, stats.batches, stats.max_batch), (1, 0, 0));
}
