//! Hand-rolled HTTP/1.1 request parsing and response writing.
//!
//! The build environment has no registry access, so — like `rage-json` before
//! it — this module implements the protocol subset the explanation server
//! needs from scratch over [`std::io`]: request-line + header parsing with
//! hard size limits, `Content-Length`-delimited bodies, percent-decoding for
//! query strings, and a compact response writer. Connection persistence
//! follows HTTP/1.1 semantics: requests default to keep-alive (HTTP/1.0 to
//! close) and a `Connection` header overrides either way; the parsed
//! [`HttpRequest::keep_alive`] flag carries the decision and
//! [`HttpResponse::write_to`] echoes it back.
//!
//! ## Robustness contract
//!
//! Everything here is reachable by untrusted bytes, so the parser's contract
//! mirrors the JSON crate's: *every* malformed, truncated, oversized or
//! hostile input maps to a typed [`HttpError`] carrying a 4xx/5xx status —
//! never a panic, never unbounded buffering. The limits are deliberately
//! generous for real clients and deliberately fatal for abuse:
//!
//! * request line ≤ [`MAX_REQUEST_LINE`] bytes (414 beyond that);
//! * ≤ [`MAX_HEADERS`] headers totalling ≤ [`MAX_HEADER_BYTES`] bytes (431);
//! * body ≤ [`MAX_BODY_BYTES`] bytes, `Content-Length`-delimited only
//!   (413 / 411; chunked transfer encoding is answered with 501);
//! * bodies shorter than their declared `Content-Length` (a truncated
//!   request) are a 400;
//! * the *whole* request is read under one wall-clock deadline
//!   ([`parse_request`]): the per-read socket timeout only
//!   bounds a fully silent peer, so a slow-loris client trickling one byte
//!   per timeout window would otherwise hold a worker indefinitely — the
//!   deadline is checked between reads and answers 408 when exceeded.
//!
//! `crates/server/tests/http_parser.rs` drives these properties with
//! adversarial inputs, in the spirit of the JSON depth-bound test.

use std::io::{BufRead, Write};
use std::time::Instant;

/// Upper bound on the request line (`GET /path?query HTTP/1.1`).
pub const MAX_REQUEST_LINE: usize = 8 * 1024;
/// Maximum number of header lines accepted.
pub const MAX_HEADERS: usize = 64;
/// Upper bound on the total header block, in bytes.
pub const MAX_HEADER_BYTES: usize = 16 * 1024;
/// Upper bound on a request body, in bytes (reports are ~5 KiB; two of them
/// plus JSON overhead fit comfortably in 1 MiB).
pub const MAX_BODY_BYTES: usize = 1024 * 1024;

/// A parsed HTTP request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpRequest {
    /// The request method, uppercased (`GET`, `POST`, ...).
    pub method: String,
    /// The percent-decoded path component (no query string).
    pub path: String,
    /// Percent-decoded `key=value` pairs from the query string, in order.
    pub query: Vec<(String, String)>,
    /// Header `(name, value)` pairs; names are lowercased.
    pub headers: Vec<(String, String)>,
    /// The request body (empty unless `Content-Length` said otherwise).
    pub body: Vec<u8>,
    /// Whether the client asked to keep the connection open after this
    /// request: the HTTP/1.1 default (`true`; HTTP/1.0 defaults to `false`)
    /// unless a `Connection` header token says otherwise.
    pub keep_alive: bool,
}

impl HttpRequest {
    /// First query parameter named `key`, if present.
    pub fn query_param(&self, key: &str) -> Option<&str> {
        self.query
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// First header named `name` (lowercase), if present.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }
}

/// A request-parsing failure, carrying the status code the connection should
/// answer with.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpError {
    /// The HTTP status this error maps to (4xx/5xx).
    pub status: u16,
    /// Human-readable reason, safe to echo into the response body.
    pub message: String,
}

impl HttpError {
    fn new(status: u16, message: impl Into<String>) -> Self {
        Self {
            status,
            message: message.into(),
        }
    }
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} {}", self.status, self.message)
    }
}

impl std::error::Error for HttpError {}

/// Error when `deadline` has passed — the wall-clock backstop that bounds
/// slow-loris requests (a trickling peer keeps every individual read under
/// the socket timeout, so only an overall deadline catches it).
fn check_deadline(deadline: Option<Instant>) -> Result<(), HttpError> {
    match deadline {
        Some(d) if Instant::now() >= d => Err(HttpError::new(408, "request timed out")),
        _ => Ok(()),
    }
}

/// Read one `\r\n`- (or `\n`-) terminated line, erroring past `limit` bytes
/// or past `deadline`.
///
/// Returns `None` on clean EOF before any byte of the line.
fn read_limited_line<R: BufRead>(
    reader: &mut R,
    limit: usize,
    over_limit: HttpError,
    deadline: Option<Instant>,
) -> Result<Option<String>, HttpError> {
    let mut line = Vec::new();
    loop {
        check_deadline(deadline)?;
        let mut byte = [0u8; 1];
        match reader.read(&mut byte) {
            Ok(0) => {
                if line.is_empty() {
                    return Ok(None);
                }
                return Err(HttpError::new(400, "truncated request"));
            }
            Ok(_) => {
                if byte[0] == b'\n' {
                    if line.last() == Some(&b'\r') {
                        line.pop();
                    }
                    let text = String::from_utf8(line)
                        .map_err(|_| HttpError::new(400, "request line is not valid UTF-8"))?;
                    return Ok(Some(text));
                }
                line.push(byte[0]);
                if line.len() > limit {
                    return Err(over_limit);
                }
            }
            Err(err) => {
                // A read timeout before the first byte of a request is an
                // idle keep-alive connection going quiet — close it silently,
                // exactly like a clean EOF. Mid-line timeouts (and every
                // other I/O failure) stay hard 400s.
                if line.is_empty()
                    && matches!(
                        err.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    )
                {
                    return Ok(None);
                }
                return Err(HttpError::new(
                    400,
                    format!("read failed mid-request: {err}"),
                ));
            }
        }
    }
}

/// Decode one percent-encoded component. `plus_as_space` applies inside query
/// strings (`application/x-www-form-urlencoded` convention), not in paths.
fn percent_decode(raw: &str, plus_as_space: bool) -> Result<String, HttpError> {
    let bytes = raw.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'%' => {
                let hex = bytes
                    .get(i + 1..i + 3)
                    .ok_or_else(|| HttpError::new(400, "truncated percent-escape"))?;
                let hex = std::str::from_utf8(hex)
                    .map_err(|_| HttpError::new(400, "invalid percent-escape"))?;
                let value = u8::from_str_radix(hex, 16)
                    .map_err(|_| HttpError::new(400, "invalid percent-escape"))?;
                out.push(value);
                i += 3;
            }
            b'+' if plus_as_space => {
                out.push(b' ');
                i += 1;
            }
            other => {
                out.push(other);
                i += 1;
            }
        }
    }
    String::from_utf8(out).map_err(|_| HttpError::new(400, "percent-escape is not valid UTF-8"))
}

/// Split and decode a raw query string into ordered `(key, value)` pairs.
fn parse_query(raw: &str) -> Result<Vec<(String, String)>, HttpError> {
    let mut pairs = Vec::new();
    for piece in raw.split('&') {
        if piece.is_empty() {
            continue;
        }
        let (key, value) = piece.split_once('=').unwrap_or((piece, ""));
        pairs.push((percent_decode(key, true)?, percent_decode(value, true)?));
    }
    Ok(pairs)
}

/// An HTTP method token: 1+ ASCII token characters (RFC 9110 §5.6.2).
fn is_valid_method(method: &str) -> bool {
    !method.is_empty()
        && method
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b"!#$%&'*+-.^_`|~".contains(&b))
}

/// Parse one request from `reader` (request line, headers, body) under an
/// optional overall wall-clock `deadline`.
///
/// Returns `Ok(None)` when the connection was closed before sending anything
/// (a bare TCP connect/disconnect — not an error worth answering). All other
/// failure modes produce an [`HttpError`] with the status the caller should
/// write back.
///
/// The deadline is checked between reads, so the whole request — line,
/// headers and body together — errors with 408 once it has taken too long,
/// no matter how steadily the peer trickles bytes. (Each individual blocking
/// read is still bounded by the socket's read timeout, so the worst case is
/// `deadline + read_timeout`.)
pub fn parse_request<R: BufRead>(
    reader: &mut R,
    deadline: Option<Instant>,
) -> Result<Option<HttpRequest>, HttpError> {
    let too_long = HttpError::new(414, "request line too long");
    let Some(request_line) = read_limited_line(reader, MAX_REQUEST_LINE, too_long, deadline)?
    else {
        return Ok(None);
    };

    // Request line: METHOD SP TARGET SP VERSION.
    let mut parts = request_line.split(' ');
    let (method, target, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v), None) if !m.is_empty() && !t.is_empty() => (m, t, v),
        _ => return Err(HttpError::new(400, "malformed request line")),
    };
    if !is_valid_method(method) {
        return Err(HttpError::new(400, "malformed method token"));
    }
    if version != "HTTP/1.1" && version != "HTTP/1.0" {
        return Err(HttpError::new(505, "HTTP version not supported"));
    }
    if !target.starts_with('/') {
        return Err(HttpError::new(400, "request target must be origin-form"));
    }

    let (raw_path, raw_query) = match target.split_once('?') {
        Some((path, query)) => (path, query),
        None => (target, ""),
    };
    let path = percent_decode(raw_path, false)?;
    let query = parse_query(raw_query)?;

    // Header block, bounded in both count and total size.
    let mut headers = Vec::new();
    let mut header_bytes = 0usize;
    loop {
        let too_large = HttpError::new(431, "header line too large");
        let line = read_limited_line(reader, MAX_HEADER_BYTES, too_large, deadline)?
            .ok_or_else(|| HttpError::new(400, "truncated header block"))?;
        if line.is_empty() {
            break;
        }
        header_bytes += line.len();
        if headers.len() >= MAX_HEADERS || header_bytes > MAX_HEADER_BYTES {
            return Err(HttpError::new(431, "request header block too large"));
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| HttpError::new(400, "malformed header line"))?;
        if name.is_empty() || name.contains(' ') {
            return Err(HttpError::new(400, "malformed header name"));
        }
        headers.push((name.to_ascii_lowercase(), value.trim().to_string()));
    }

    // Connection persistence: HTTP/1.1 defaults to keep-alive, HTTP/1.0 to
    // close; any `Connection` header token ("close", "keep-alive" — possibly
    // in a comma list, any case) overrides the default.
    let mut keep_alive = version == "HTTP/1.1";
    if let Some((_, connection)) = headers.iter().find(|(name, _)| name == "connection") {
        for token in connection.split(',') {
            let token = token.trim();
            if token.eq_ignore_ascii_case("close") {
                keep_alive = false;
            } else if token.eq_ignore_ascii_case("keep-alive") {
                keep_alive = true;
            }
        }
    }

    let request = HttpRequest {
        method: method.to_ascii_uppercase(),
        path,
        query,
        headers,
        body: Vec::new(),
        keep_alive,
    };

    // Body: Content-Length-delimited only.
    if let Some(te) = request.header("transfer-encoding") {
        if !te.eq_ignore_ascii_case("identity") {
            return Err(HttpError::new(501, "transfer encodings are not supported"));
        }
    }
    let content_length = match request.header("content-length") {
        Some(raw) => raw
            .parse::<usize>()
            .map_err(|_| HttpError::new(400, "malformed Content-Length"))?,
        None => 0,
    };
    if content_length > MAX_BODY_BYTES {
        return Err(HttpError::new(413, "request body too large"));
    }
    if content_length == 0 {
        return Ok(Some(request));
    }

    let mut request = request;
    let mut body = vec![0u8; content_length];
    let mut read = 0;
    while read < content_length {
        check_deadline(deadline)?;
        match reader.read(&mut body[read..]) {
            Ok(0) => {
                return Err(HttpError::new(
                    400,
                    "request body shorter than Content-Length",
                ))
            }
            Ok(n) => read += n,
            Err(err) => return Err(HttpError::new(400, format!("body read failed: {err}"))),
        }
    }
    request.body = body;
    Ok(Some(request))
}

/// The canonical reason phrase for the status codes this server emits.
pub fn reason_phrase(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        409 => "Conflict",
        411 => "Length Required",
        413 => "Content Too Large",
        414 => "URI Too Long",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        501 => "Not Implemented",
        505 => "HTTP Version Not Supported",
        _ => "Unknown",
    }
}

/// A response ready to be written back.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpResponse {
    /// Status code.
    pub status: u16,
    /// `Content-Type` of the body.
    pub content_type: &'static str,
    /// Response body bytes.
    pub body: Vec<u8>,
    /// Value of an `Allow` header, set on 405 responses (RFC 9110 §15.5.6
    /// requires one naming the methods the target does support).
    pub allow: Option<&'static str>,
}

impl HttpResponse {
    /// A 200 response with the given content type.
    pub fn ok(content_type: &'static str, body: impl Into<Vec<u8>>) -> Self {
        Self {
            status: 200,
            content_type,
            body: body.into(),
            allow: None,
        }
    }

    /// An error response with a small JSON body
    /// (`{"error":{"status":N,"message":...}}`).
    pub fn error(status: u16, message: &str) -> Self {
        let mut body = String::from("{\"error\":{\"status\":");
        body.push_str(&status.to_string());
        body.push_str(",\"message\":");
        rage_json::write_json_string(&mut body, message);
        body.push_str("}}");
        Self {
            status,
            content_type: "application/json",
            body: body.into_bytes(),
            allow: None,
        }
    }

    /// Attach an `Allow` header (for 405 responses).
    pub fn with_allow(mut self, methods: &'static str) -> Self {
        self.allow = Some(methods);
        self
    }

    /// Serialise the response (status line, headers, body) onto `writer`,
    /// advertising whether the server will keep the connection open for
    /// another request. Responses are always `Content-Length`-framed, so a
    /// keep-alive client knows exactly where each response ends.
    pub fn write_to<W: Write>(&self, writer: &mut W, keep_alive: bool) -> std::io::Result<()> {
        write!(
            writer,
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: {}\r\n",
            self.status,
            reason_phrase(self.status),
            self.content_type,
            self.body.len(),
            if keep_alive { "keep-alive" } else { "close" }
        )?;
        if let Some(allow) = self.allow {
            write!(writer, "Allow: {allow}\r\n")?;
        }
        write!(writer, "\r\n")?;
        writer.write_all(&self.body)?;
        writer.flush()
    }
}

impl From<HttpError> for HttpResponse {
    fn from(err: HttpError) -> Self {
        HttpResponse::error(err.status, &err.message)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn parse(raw: &[u8]) -> Result<Option<HttpRequest>, HttpError> {
        parse_request(&mut BufReader::new(raw), None)
    }

    #[test]
    fn parses_a_get_with_query() {
        let request =
            parse(b"GET /report?scenario=us_open&format=json HTTP/1.1\r\nHost: x\r\n\r\n")
                .unwrap()
                .unwrap();
        assert_eq!(request.method, "GET");
        assert_eq!(request.path, "/report");
        assert_eq!(request.query_param("scenario"), Some("us_open"));
        assert_eq!(request.query_param("format"), Some("json"));
        assert_eq!(request.header("host"), Some("x"));
        assert!(request.body.is_empty());
    }

    #[test]
    fn parses_a_post_with_body() {
        let request = parse(b"POST /ask HTTP/1.1\r\nContent-Length: 7\r\n\r\n{\"a\":1}")
            .unwrap()
            .unwrap();
        assert_eq!(request.method, "POST");
        assert_eq!(request.body, b"{\"a\":1}");
    }

    #[test]
    fn percent_decoding_applies_to_path_and_query() {
        let request = parse(b"GET /re%70ort?q=a+b%21&x=%C3%A9 HTTP/1.1\r\n\r\n")
            .unwrap()
            .unwrap();
        assert_eq!(request.path, "/report");
        assert_eq!(request.query_param("q"), Some("a b!"));
        assert_eq!(request.query_param("x"), Some("é"));
    }

    #[test]
    fn empty_connection_is_none_not_an_error() {
        assert_eq!(parse(b"").unwrap(), None);
    }

    #[test]
    fn error_response_body_is_valid_json() {
        let response = HttpResponse::error(400, "weird \"quoted\" message\n");
        let value = rage_json::JsonValue::parse(std::str::from_utf8(&response.body).unwrap())
            .expect("error body parses");
        let error = value.get("error").unwrap();
        assert_eq!(error.get("status").and_then(|v| v.as_usize()), Some(400));
        assert_eq!(
            error.get("message").and_then(|v| v.as_str()),
            Some("weird \"quoted\" message\n")
        );
    }

    #[test]
    fn an_expired_deadline_is_408_even_with_bytes_available() {
        // The deadline is an overall wall-clock bound: once past it, the
        // parser stops consuming no matter how much input remains.
        let raw = b"GET /scenarios HTTP/1.1\r\nHost: t\r\n\r\n";
        let expired = Instant::now() - std::time::Duration::from_millis(1);
        let err = parse_request(&mut BufReader::new(&raw[..]), Some(expired))
            .expect_err("expired deadline must reject");
        assert_eq!(err.status, 408);

        // A deadline comfortably in the future changes nothing.
        let future = Instant::now() + std::time::Duration::from_secs(60);
        let request = parse_request(&mut BufReader::new(&raw[..]), Some(future))
            .unwrap()
            .unwrap();
        assert_eq!(request.path, "/scenarios");
    }

    #[test]
    fn expired_deadline_covers_the_body_read_too() {
        let raw = b"POST /ask HTTP/1.1\r\nContent-Length: 7\r\n\r\n{\"a\":1}";
        let expired = Instant::now() - std::time::Duration::from_millis(1);
        let err = parse_request(&mut BufReader::new(&raw[..]), Some(expired))
            .expect_err("expired deadline must reject");
        assert_eq!(err.status, 408);
    }

    #[test]
    fn the_allow_header_serialises_on_405() {
        let mut out = Vec::new();
        HttpResponse::error(405, "method not allowed")
            .with_allow("GET")
            .write_to(&mut out, false)
            .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(
            text.starts_with("HTTP/1.1 405 Method Not Allowed\r\n"),
            "{text}"
        );
        assert!(text.contains("Allow: GET\r\n"), "{text}");
    }

    #[test]
    fn keep_alive_follows_version_defaults_and_connection_overrides() {
        let cases: &[(&[u8], bool)] = &[
            (b"GET / HTTP/1.1\r\n\r\n", true),
            (b"GET / HTTP/1.0\r\n\r\n", false),
            (b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n", false),
            (b"GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n", true),
            (b"GET / HTTP/1.1\r\nConnection: Close\r\n\r\n", false),
            (b"GET / HTTP/1.1\r\nConnection: foo, close\r\n\r\n", false),
            (b"GET / HTTP/1.0\r\nConnection: Keep-Alive, x\r\n\r\n", true),
        ];
        for (raw, expected) in cases {
            let request = parse(raw).unwrap().unwrap();
            assert_eq!(
                request.keep_alive,
                *expected,
                "{:?}",
                std::str::from_utf8(raw)
            );
        }
    }

    #[test]
    fn an_idle_timeout_before_any_byte_is_a_silent_close() {
        // A reader that times out immediately models a keep-alive connection
        // going quiet between requests: not an error, just done.
        struct IdleReader;
        impl std::io::Read for IdleReader {
            fn read(&mut self, _buf: &mut [u8]) -> std::io::Result<usize> {
                Err(std::io::Error::new(
                    std::io::ErrorKind::WouldBlock,
                    "timed out",
                ))
            }
        }
        let result = parse_request(&mut BufReader::new(IdleReader), None).unwrap();
        assert_eq!(result, None);

        // A timeout *mid-request* is still a hard 400: bytes were committed.
        struct TruncatingReader(&'static [u8]);
        impl std::io::Read for TruncatingReader {
            fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
                if self.0.is_empty() {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::WouldBlock,
                        "timed out",
                    ));
                }
                buf[0] = self.0[0];
                self.0 = &self.0[1..];
                Ok(1)
            }
        }
        let err = parse_request(&mut BufReader::new(TruncatingReader(b"GET /sce")), None)
            .expect_err("mid-request timeout must reject");
        assert_eq!(err.status, 400);
    }

    #[test]
    fn conflict_status_has_a_reason_phrase() {
        assert_eq!(reason_phrase(409), "Conflict");
    }

    #[test]
    fn keep_alive_responses_advertise_the_connection_state() {
        let mut out = Vec::new();
        HttpResponse::ok("application/json", "{}")
            .write_to(&mut out, true)
            .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("Connection: keep-alive\r\n"), "{text}");
        assert!(text.contains("Content-Length: 2\r\n"), "{text}");

        let mut out = Vec::new();
        HttpResponse::ok("application/json", "{}")
            .write_to(&mut out, false)
            .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("Connection: close\r\n"), "{text}");
    }

    #[test]
    fn responses_serialise_with_length_and_close() {
        let mut out = Vec::new();
        HttpResponse::ok("application/json", "{}")
            .write_to(&mut out, false)
            .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"), "{text}");
        assert!(text.contains("Content-Length: 2\r\n"));
        assert!(text.contains("Connection: close\r\n"));
        assert!(text.ends_with("\r\n\r\n{}"));
    }
}
