//! Adversarial HTTP parser tests, in the spirit of the JSON crate's
//! depth-bound test: every malformed, truncated, oversized or hostile input
//! must map to a clean 4xx/5xx — never a panic, never a hung or poisoned
//! worker. The first half drives [`parse_request`] directly; the second half
//! sends hostile bytes at a live [`Server`] and proves it keeps serving.

use std::io::{BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use rage_report::Service;
use rage_server::http::{
    parse_request, HttpError, HttpRequest, MAX_BODY_BYTES, MAX_HEADERS, MAX_REQUEST_LINE,
};
use rage_server::{Server, ServerConfig};

fn parse(raw: &[u8]) -> Result<Option<HttpRequest>, HttpError> {
    parse_request(&mut BufReader::new(raw), None)
}

fn status_of(raw: &[u8]) -> u16 {
    parse(raw).expect_err("input should be rejected").status
}

#[test]
fn oversized_request_line_is_414() {
    let long_target = "a".repeat(MAX_REQUEST_LINE + 10);
    let raw = format!("GET /{long_target} HTTP/1.1\r\n\r\n");
    assert_eq!(status_of(raw.as_bytes()), 414);
}

#[test]
fn oversized_header_blocks_are_431() {
    // One giant header line.
    let raw = format!("GET / HTTP/1.1\r\nX-Big: {}\r\n\r\n", "v".repeat(20 * 1024));
    assert_eq!(status_of(raw.as_bytes()), 431);

    // Too many individually-small headers.
    let mut raw = String::from("GET / HTTP/1.1\r\n");
    for i in 0..(MAX_HEADERS + 5) {
        raw.push_str(&format!("X-H{i}: v\r\n"));
    }
    raw.push_str("\r\n");
    assert_eq!(status_of(raw.as_bytes()), 431);
}

#[test]
fn truncated_requests_are_400() {
    // Stream ends mid-request-line, mid-header and mid-body.
    assert_eq!(status_of(b"GET /scenarios HT"), 400);
    assert_eq!(status_of(b"GET / HTTP/1.1\r\nHost: x"), 400);
    assert_eq!(status_of(b"GET / HTTP/1.1\r\nHost: x\r\n"), 400); // no blank line
    assert_eq!(
        status_of(b"POST /ask HTTP/1.1\r\nContent-Length: 100\r\n\r\n{\"a\":"),
        400
    );
}

#[test]
fn malformed_methods_and_request_lines_are_400() {
    assert_eq!(status_of(b"G@T / HTTP/1.1\r\n\r\n"), 400); // non-token byte
    assert_eq!(status_of(b"GET  / HTTP/1.1\r\n\r\n"), 400); // double space
    assert_eq!(status_of(b"GET / HTTP/1.1 extra\r\n\r\n"), 400); // 4 words
    assert_eq!(status_of(b"/ HTTP/1.1\r\n\r\n"), 400); // missing method
    assert_eq!(status_of(b"\r\n\r\n"), 400); // empty request line
    assert_eq!(status_of(b"GET http://evil/ HTTP/1.1\r\n\r\n"), 400); // absolute-form
    assert_eq!(status_of(b"GET /\xfe\xff HTTP/1.1\r\n\r\n"), 400); // raw non-UTF-8 bytes
}

#[test]
fn unsupported_protocol_features_get_descriptive_statuses() {
    assert_eq!(status_of(b"GET / HTTP/2\r\n\r\n"), 505);
    assert_eq!(status_of(b"GET / SPDY/3\r\n\r\n"), 505);
    assert_eq!(
        status_of(b"POST /ask HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"),
        501
    );
}

#[test]
fn hostile_content_lengths_are_rejected() {
    for bad in ["abc", "-1", "1e3", "18446744073709551617", "1,2"] {
        let raw = format!("POST /ask HTTP/1.1\r\nContent-Length: {bad}\r\n\r\n");
        assert_eq!(status_of(raw.as_bytes()), 400, "Content-Length: {bad}");
    }
    let raw = format!(
        "POST /ask HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
        MAX_BODY_BYTES + 1
    );
    assert_eq!(status_of(raw.as_bytes()), 413);
}

#[test]
fn malformed_percent_escapes_are_400() {
    assert_eq!(status_of(b"GET /%zz HTTP/1.1\r\n\r\n"), 400);
    assert_eq!(status_of(b"GET /x?a=%2 HTTP/1.1\r\n\r\n"), 400);
    assert_eq!(status_of(b"GET /%ff HTTP/1.1\r\n\r\n"), 400); // not UTF-8
}

/// Deterministic fuzz sweep: a valid POST truncated at *every* byte boundary
/// must parse, cleanly EOF or error — never panic. (Truncation is the
/// mutation a TCP peer can always produce.)
#[test]
fn every_truncation_of_a_valid_request_is_handled() {
    let full = b"POST /ask?x=a%20b HTTP/1.1\r\nHost: t\r\nContent-Length: 17\r\n\r\n{\"scenario\":\"x\"}\n";
    for cut in 0..full.len() {
        match parse(&full[..cut]) {
            Ok(None) => assert_eq!(cut, 0, "only the empty prefix is a clean EOF"),
            Ok(Some(_)) => panic!("truncated prefix of length {cut} parsed as complete"),
            Err(err) => assert!(
                (400..=505).contains(&err.status),
                "cut {cut}: status {}",
                err.status
            ),
        }
    }
    assert!(parse(full).unwrap().is_some());
}

/// Deterministic fuzz sweep #2: flip each byte of a valid request through a
/// seeded xorshift and require a non-panicking outcome every time.
#[test]
fn byte_flipped_requests_never_panic() {
    let full = b"GET /report?scenario=us_open&format=json HTTP/1.1\r\nHost: t\r\n\r\n".to_vec();
    let mut state: u64 = 0x9e3779b97f4a7c15;
    for position in 0..full.len() {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        let mut mutated = full.clone();
        mutated[position] ^= (state as u8) | 1; // always an actual flip
        let _ = parse(&mutated); // any Ok/Err is fine; a panic fails the test
    }
}

// ---------------------------------------------------------------------------
// Live-server robustness: hostile bytes over a real socket.
// ---------------------------------------------------------------------------

/// Fire raw bytes at the server. Status 0 means the connection died without a
/// readable response (e.g. a TCP reset after the server rejects an oversized
/// request mid-upload and closes with bytes still in flight) — acceptable for
/// hostile input, as long as the server keeps serving afterwards.
fn send_raw(server: &Server, raw: &[u8]) -> (u16, Vec<u8>) {
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let _ = stream.write_all(raw);
    let _ = stream.shutdown(std::net::Shutdown::Write);
    let mut response = Vec::new();
    if stream.read_to_end(&mut response).is_err() && response.is_empty() {
        return (0, response);
    }
    let head = String::from_utf8_lossy(&response);
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    (status, response)
}

#[test]
fn hostile_requests_leave_the_server_serving() {
    let server = Server::start(
        "127.0.0.1:0",
        Arc::new(Service::new()),
        ServerConfig {
            threads: 2,
            read_timeout: Duration::from_secs(2),
            ..ServerConfig::default()
        },
    )
    .unwrap();

    let hostile: Vec<Vec<u8>> = vec![
        b"\x00\x01\x02\x03garbage\xff\xfe".to_vec(),
        b"GET ../../etc/passwd HTTP/1.1\r\n\r\n".to_vec(), // non-origin-form traversal
        format!("GET /{} HTTP/1.1\r\n\r\n", "A".repeat(MAX_REQUEST_LINE * 2)).into_bytes(),
        b"POST /ask HTTP/1.1\r\nContent-Length: 50\r\n\r\nshort".to_vec(), // truncated body
        b"POST /ask HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n0\r\n\r\n".to_vec(),
        b"FROB / HTTP/1.1\r\n\r\n".to_vec(), // valid token, unknown method
        b"".to_vec(),                        // connect-and-hang-up
    ];
    for raw in &hostile {
        let (status, _) = send_raw(&server, raw);
        assert!(
            status == 0 || (400..=505).contains(&status),
            "hostile input answered with {status}"
        );
    }

    // Path traversal *in query parameters* is data, not a path: it reaches the
    // registry lookup and fails as an unknown scenario, touching no filesystem.
    for target in [
        "/report?scenario=../../etc/passwd",
        "/report?scenario=..%2F..%2Fetc%2Fpasswd",
        "/report?scenario=us_open%00&format=json",
    ] {
        let (status, body) = send_raw(
            &server,
            format!("GET {target} HTTP/1.1\r\nHost: t\r\n\r\n").as_bytes(),
        );
        assert_eq!(status, 404, "{target}");
        assert!(
            String::from_utf8_lossy(&body).contains("unknown scenario"),
            "{target}"
        );
    }

    // And after all of the above, a well-formed request still succeeds.
    let (status, body) = send_raw(&server, b"GET /scenarios HTTP/1.1\r\nHost: t\r\n\r\n");
    assert_eq!(status, 200);
    assert!(String::from_utf8_lossy(&body).contains("us_open"));
}

/// A slow-loris client — trickling bytes steadily so every individual read
/// stays under the socket timeout — is cut off by the overall request
/// deadline with a 408, and the worker it was holding goes straight back to
/// serving.
#[test]
fn trickled_requests_hit_the_request_deadline() {
    let server = Server::start(
        "127.0.0.1:0",
        Arc::new(Service::new()),
        ServerConfig {
            threads: 1, // one worker: if the loris held it, nothing else would ever be served
            read_timeout: Duration::from_secs(5),
            request_deadline: Duration::from_millis(250),
            ..ServerConfig::default()
        },
    )
    .unwrap();

    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    // Keep each gap well under the read timeout but run past the deadline.
    for chunk in [&b"GET /scena"[..], b"rios", b" HT"] {
        let _ = stream.write_all(chunk);
        std::thread::sleep(Duration::from_millis(150));
    }
    let _ = stream.write_all(b"TP/1.1\r\nHost: t\r\n\r\n");
    let mut response = Vec::new();
    let _ = stream.read_to_end(&mut response);
    let head = String::from_utf8_lossy(&response);
    assert!(head.starts_with("HTTP/1.1 408"), "{head}");

    // The lone worker is free again: a prompt request succeeds immediately.
    let (status, body) = send_raw(&server, b"GET /scenarios HTTP/1.1\r\nHost: t\r\n\r\n");
    assert_eq!(status, 200);
    assert!(String::from_utf8_lossy(&body).contains("us_open"));
}
