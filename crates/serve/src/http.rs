//! Minimal HTTP/1.1 framing: request parsing with hard limits, response
//! encoding, keep-alive negotiation, and structured JSON errors.
//!
//! Requests are read by the incremental [`parse_request`] over a
//! connection's receive buffer (the epoll reactor never blocks on a
//! socket), so a request may arrive split at any byte. The tests keep a
//! blocking line-by-line stream reader over the same head grammar
//! ([`parse_head`]) as an oracle: for identical bytes both yield identical
//! [`Request`]s and identical structured errors, however the bytes are cut.
//!
//! The grammar subset is deliberate: request line + headers + an optional
//! `Content-Length` body. `Transfer-Encoding: chunked` *requests* are
//! rejected with `501` (no endpoint needs streaming bodies), oversized
//! bodies with `413` *before* reading them, and malformed syntax with `400`
//! — always as a structured JSON error document, never by dropping the
//! connection from a panicking worker. *Responses* may stream as chunked
//! (see [`Response::encode`]); de-chunking yields byte-identical payloads,
//! so the served-bytes ≡ in-process equality gate is framing-independent.

use crate::wire::Json;
use std::io::{self, Write};

/// Hard cap on the request line + headers section.
pub const MAX_HEAD_BYTES: usize = 16 * 1024;

/// Default cap on request bodies (configurable via `ServeConfig`).
pub const DEFAULT_MAX_BODY_BYTES: usize = 4 * 1024 * 1024;

/// A parsed request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Uppercased method token (`GET`, `POST`, …).
    pub method: String,
    /// Path with any query string stripped.
    pub path: String,
    /// Raw query string (without the `?`), empty when the target had none.
    pub query: String,
    /// Lowercased header names with their raw values.
    pub headers: Vec<(String, String)>,
    /// The body (empty when no `Content-Length`).
    pub body: Vec<u8>,
    /// Whether the connection should be kept open after the response.
    pub keep_alive: bool,
    /// Whether the request spoke HTTP/1.1 (gates chunked responses; 1.0
    /// clients always get `Content-Length` framing).
    pub http11: bool,
}

impl Request {
    /// First value of a header, by lowercase name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }
}

/// An error response to send: status, machine-readable code, message.
///
/// `keep_alive = false` forces connection close (e.g. after a `413` the
/// unread body would poison the stream framing).
#[derive(Debug, Clone, PartialEq)]
pub struct HttpError {
    /// HTTP status code.
    pub status: u16,
    /// Stable machine-readable error code (`"bad_json"`, `"payload_too_large"`, …).
    pub code: &'static str,
    /// Human-readable detail.
    pub message: String,
    /// Whether the connection may be reused after this error.
    pub keep_alive: bool,
}

impl HttpError {
    /// A `400 Bad Request` that keeps the connection usable.
    pub fn bad_request(code: &'static str, message: impl Into<String>) -> Self {
        HttpError {
            status: 400,
            code,
            message: message.into(),
            keep_alive: true,
        }
    }

    /// An error that also closes the connection.
    pub fn closing(status: u16, code: &'static str, message: impl Into<String>) -> Self {
        HttpError {
            status,
            code,
            message: message.into(),
            keep_alive: false,
        }
    }

    /// Render as a structured JSON error response.
    pub fn to_response(&self) -> Response {
        let body = Json::obj([(
            "error",
            Json::obj([
                ("code", Json::str(self.code)),
                ("message", Json::str(&self.message)),
            ]),
        )])
        .serialize()
        // Error bodies contain no numbers, so serialization cannot hit the
        // non-finite rejection; if that invariant ever breaks, degrade to a
        // fixed body rather than panicking on the error path itself.
        .unwrap_or_else(|_| {
            r#"{"error":{"code":"internal_error","message":"error body serialization failed"}}"#
                .to_string()
        });
        let mut resp = Response::json(self.status, body);
        resp.keep_alive = self.keep_alive;
        resp
    }
}

/// A parsed request head: everything before the body bytes.
struct Head {
    method: String,
    path: String,
    query: String,
    headers: Vec<(String, String)>,
    http11: bool,
    keep_alive: bool,
    content_length: usize,
}

impl Head {
    fn into_request(self, body: Vec<u8>) -> Request {
        Request {
            method: self.method,
            path: self.path,
            query: self.query,
            headers: self.headers,
            body,
            keep_alive: self.keep_alive,
            http11: self.http11,
        }
    }
}

fn head_too_large() -> HttpError {
    HttpError::closing(
        431,
        "headers_too_large",
        format!("request head exceeds {MAX_HEAD_BYTES} bytes"),
    )
}

/// Parse a request head from its lines (request line first, then header
/// lines, no blank terminator).
fn parse_head(lines: &[String], max_body: usize) -> Result<Head, HttpError> {
    // --- request line ---
    let line = lines.first().map(String::as_str).unwrap_or("");
    let mut parts = line.split_whitespace();
    let (method, target, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v), None) => (m.to_ascii_uppercase(), t.to_string(), v),
        _ => {
            return Err(HttpError::closing(
                400,
                "bad_request_line",
                format!("malformed request line `{line}`"),
            ));
        }
    };
    let http11 = match version {
        "HTTP/1.1" => true,
        "HTTP/1.0" => false,
        other => {
            return Err(HttpError::closing(
                505,
                "http_version_not_supported",
                format!("unsupported version `{other}`"),
            ));
        }
    };

    // --- headers ---
    let mut headers = Vec::new();
    for line in lines.iter().skip(1) {
        match line.split_once(':') {
            Some((name, value)) => {
                headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
            }
            None => {
                return Err(HttpError::closing(
                    400,
                    "bad_header",
                    format!("malformed header line `{line}`"),
                ));
            }
        }
    }

    let find = |name: &str| {
        headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    };

    // --- keep-alive negotiation ---
    let connection = find("connection").map(str::to_ascii_lowercase);
    let keep_alive = match connection.as_deref() {
        Some("close") => false,
        Some("keep-alive") => true,
        _ => http11, // HTTP/1.1 defaults to persistent, 1.0 to close
    };

    // --- body framing ---
    if find("transfer-encoding").is_some() {
        return Err(HttpError::closing(
            501,
            "transfer_encoding_unsupported",
            "use Content-Length framing",
        ));
    }
    let content_length = match find("content-length") {
        None => 0usize,
        Some(raw) => match raw.parse::<usize>() {
            Ok(n) => n,
            Err(_) => {
                return Err(HttpError::closing(
                    400,
                    "bad_content_length",
                    format!("unparseable Content-Length `{raw}`"),
                ));
            }
        },
    };
    if content_length == 0 && (method == "POST" || method == "PUT") {
        // 411 Length Required; there is no unread body, so the connection
        // stays usable.
        return Err(HttpError {
            status: 411,
            code: "length_required",
            message: format!("{method} requests need a Content-Length body"),
            keep_alive: true,
        });
    }
    if content_length > max_body {
        // Refuse *before* reading: the unread body poisons stream framing,
        // so the connection must close afterwards.
        return Err(HttpError::closing(
            413,
            "payload_too_large",
            format!("body of {content_length} bytes exceeds the {max_body}-byte limit"),
        ));
    }

    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p.to_string(), q.to_string()),
        None => (target, String::new()),
    };
    Ok(Head {
        method,
        path,
        query,
        headers,
        http11,
        keep_alive,
        content_length,
    })
}

/// Outcome of one [`parse_request`] pass over a receive buffer.
pub enum ParseOutcome {
    /// No complete request yet — keep the buffer and read more bytes.
    /// The buffer is bounded: heads beyond [`MAX_HEAD_BYTES`] and bodies
    /// beyond `max_body` error out instead of accumulating.
    NeedMore,
    /// One complete request occupying the first `consumed` buffer bytes.
    Request {
        /// The parsed request.
        request: Box<Request>,
        /// Bytes to drain from the front of the buffer.
        consumed: usize,
    },
    /// A protocol violation. Drain `consumed` bytes; when
    /// `error.keep_alive` is true (e.g. `411`) the bytes after them may
    /// still parse as further pipelined requests.
    Error {
        /// The structured error to send.
        error: HttpError,
        /// Bytes to drain from the front of the buffer.
        consumed: usize,
    },
}

/// Incrementally parse one request from the front of `buf` — the reactor's
/// nonblocking request reader.
///
/// Call after every socket read; on [`ParseOutcome::Request`] /
/// [`ParseOutcome::Error`] drain `consumed` bytes and call again (request
/// pipelining: a buffer holding several requests yields them one per call).
pub fn parse_request(buf: &[u8], max_body: usize) -> ParseOutcome {
    // --- split the head: lines up to the first blank line ---
    let mut lines: Vec<String> = Vec::new();
    let mut pos = 0usize;
    let head_end = loop {
        let rest = buf.get(pos..).unwrap_or(&[]);
        let Some(i) = rest.iter().position(|&b| b == b'\n') else {
            if buf.len() > MAX_HEAD_BYTES {
                return ParseOutcome::Error {
                    error: head_too_large(),
                    consumed: buf.len(),
                };
            }
            return ParseOutcome::NeedMore;
        };
        let line = rest.get(..i).unwrap_or(&[]);
        let line = match line.split_last() {
            Some((&b'\r', init)) => init,
            _ => line,
        };
        pos += i + 1;
        if pos > MAX_HEAD_BYTES {
            return ParseOutcome::Error {
                error: head_too_large(),
                consumed: buf.len(),
            };
        }
        // A blank line terminates the head — except as the very first line,
        // where it *is* the (malformed) request line.
        if line.is_empty() && !lines.is_empty() {
            break pos;
        }
        lines.push(String::from_utf8_lossy(line).into_owned());
    };

    let head = match parse_head(&lines, max_body) {
        Ok(head) => head,
        Err(error) => {
            return ParseOutcome::Error {
                error,
                consumed: head_end,
            };
        }
    };
    let total = head_end.saturating_add(head.content_length);
    match buf.get(head_end..total) {
        Some(body) => ParseOutcome::Request {
            request: Box::new(head.into_request(body.to_vec())),
            consumed: total,
        },
        // Body bytes still in flight (content_length ≤ max_body here, so
        // the wait is bounded).
        None => ParseOutcome::NeedMore,
    }
}

/// A response ready to write.
#[derive(Debug, Clone)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// `Content-Type` value.
    pub content_type: &'static str,
    /// Response body bytes.
    pub body: Vec<u8>,
    /// Whether to keep the connection open (ANDed with the request's wish).
    pub keep_alive: bool,
}

impl Response {
    /// A JSON response.
    pub fn json(status: u16, body: impl Into<Vec<u8>>) -> Response {
        Response {
            status,
            content_type: "application/json",
            body: body.into(),
            keep_alive: true,
        }
    }

    /// A plain-text response (the `/metrics` exposition format).
    pub fn text(status: u16, body: impl Into<Vec<u8>>) -> Response {
        Response {
            status,
            content_type: "text/plain; charset=utf-8",
            body: body.into(),
            keep_alive: true,
        }
    }

    /// Serialize head + body to wire bytes.
    ///
    /// `chunk: None` emits classic `Content-Length` framing. `chunk:
    /// Some(n)` streams the body as `Transfer-Encoding: chunked` in
    /// `n`-byte chunks — large batch explanations go out as a sequence of
    /// bounded writes instead of one giant contiguous buffer flush. The
    /// concatenated chunk payloads are exactly `self.body`, so de-chunking
    /// clients observe byte-identical documents (callers only pass
    /// `Some` for HTTP/1.1 peers; empty bodies keep `Content-Length: 0`
    /// framing).
    pub fn encode(&self, keep_alive: bool, chunk: Option<usize>) -> Vec<u8> {
        let connection = if keep_alive { "keep-alive" } else { "close" };
        match chunk {
            Some(n) if n > 0 && !self.body.is_empty() => {
                let mut out = format!(
                    "HTTP/1.1 {} {}\r\ncontent-type: {}\r\ntransfer-encoding: chunked\r\nconnection: {connection}\r\n\r\n",
                    self.status,
                    reason(self.status),
                    self.content_type,
                )
                .into_bytes();
                for piece in self.body.chunks(n) {
                    out.extend_from_slice(format!("{:x}\r\n", piece.len()).as_bytes());
                    out.extend_from_slice(piece);
                    out.extend_from_slice(b"\r\n");
                }
                out.extend_from_slice(b"0\r\n\r\n");
                out
            }
            _ => {
                let mut out = format!(
                    "HTTP/1.1 {} {}\r\ncontent-type: {}\r\ncontent-length: {}\r\nconnection: {connection}\r\n\r\n",
                    self.status,
                    reason(self.status),
                    self.content_type,
                    self.body.len(),
                )
                .into_bytes();
                out.extend_from_slice(&self.body);
                out
            }
        }
    }

    /// Serialize head + body onto a blocking stream (`Content-Length`
    /// framing).
    pub fn write_to(&self, stream: &mut impl Write, keep_alive: bool) -> io::Result<()> {
        stream.write_all(&self.encode(keep_alive, None))?;
        stream.flush()
    }
}

/// Canonical reason phrases for the statuses the service emits.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        411 => "Length Required",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        501 => "Not Implemented",
        503 => "Service Unavailable",
        505 => "HTTP Version Not Supported",
        _ => "Unknown",
    }
}

#[cfg(test)]
pub(crate) mod oracle {
    //! The blocking stream reader: reads a request line by line off a
    //! `BufRead`. Kept only to check [`parse_request`](super::parse_request)
    //! against.

    use super::{head_too_large, parse_head, HttpError, Request, MAX_HEAD_BYTES};
    use std::io::{self, BufRead};

    /// What happened while reading a request off the stream.
    pub(crate) enum ReadOutcome {
        /// A complete, well-formed request.
        Request(Box<Request>),
        /// The peer closed between requests — normal keep-alive termination,
        /// nothing to send.
        Closed,
        /// No byte arrived within the stream's read timeout.
        Timeout,
        /// A protocol violation; send this error and honour its `keep_alive`.
        Error(HttpError),
    }

    fn truncated_head(detail: &str) -> HttpError {
        HttpError::closing(400, "truncated_request", detail.to_string())
    }

    /// Read one request from a buffered stream.
    ///
    /// `max_body` bounds `Content-Length`; the head section is bounded by
    /// [`MAX_HEAD_BYTES`]. A timeout before the first byte surfaces as
    /// [`ReadOutcome::Timeout`], other first-byte IO errors as
    /// [`ReadOutcome::Closed`], and truncation mid-request as a `400`.
    pub(crate) fn read_request(stream: &mut impl BufRead, max_body: usize) -> ReadOutcome {
        let line = match read_line_limited(stream, MAX_HEAD_BYTES) {
            Ok(Some(line)) => line,
            Ok(None) => return ReadOutcome::Closed,
            Err(LineError::TooLong) => return ReadOutcome::Error(head_too_large()),
            Err(LineError::Io(e))
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                return ReadOutcome::Timeout;
            }
            Err(LineError::Io(_)) => return ReadOutcome::Closed,
        };
        let mut head_budget = MAX_HEAD_BYTES.saturating_sub(line.len());
        let mut lines = vec![line];
        loop {
            let line = match read_line_limited(stream, head_budget) {
                Ok(Some(line)) => line,
                Ok(None) => {
                    return ReadOutcome::Error(truncated_head(
                        "connection closed inside the header section",
                    ));
                }
                Err(LineError::TooLong) => return ReadOutcome::Error(head_too_large()),
                Err(LineError::Io(_)) => {
                    return ReadOutcome::Error(truncated_head(
                        "stream error inside the header section",
                    ));
                }
            };
            if line.is_empty() {
                break;
            }
            head_budget = head_budget.saturating_sub(line.len());
            lines.push(line);
        }
        let head = match parse_head(&lines, max_body) {
            Ok(head) => head,
            Err(e) => return ReadOutcome::Error(e),
        };
        let mut body = vec![0u8; head.content_length];
        if stream.read_exact(&mut body).is_err() {
            return ReadOutcome::Error(HttpError::closing(
                400,
                "truncated_body",
                format!(
                    "connection closed before {} body bytes arrived",
                    head.content_length
                ),
            ));
        }
        ReadOutcome::Request(Box::new(head.into_request(body)))
    }

    enum LineError {
        TooLong,
        Io(io::Error),
    }

    /// Read one CRLF- (or bare-LF-) terminated line as UTF-8-lossy text,
    /// bounded by `limit` bytes. `Ok(None)` = clean EOF before any byte.
    fn read_line_limited(
        stream: &mut impl BufRead,
        limit: usize,
    ) -> Result<Option<String>, LineError> {
        let mut buf = Vec::new();
        loop {
            if buf.len() > limit {
                return Err(LineError::TooLong);
            }
            let mut byte = [0u8; 1];
            match stream.read(&mut byte) {
                Ok(0) => {
                    if buf.is_empty() {
                        return Ok(None);
                    }
                    return Err(LineError::Io(io::Error::from(io::ErrorKind::UnexpectedEof)));
                }
                Ok(_) => {
                    let [b] = byte;
                    if b == b'\n' {
                        if buf.last() == Some(&b'\r') {
                            buf.pop();
                        }
                        return Ok(Some(String::from_utf8_lossy(&buf).into_owned()));
                    }
                    buf.push(b);
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(LineError::Io(e)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::oracle::{read_request, ReadOutcome};
    use super::*;
    use proptest::prelude::*;
    use std::io::BufReader;

    fn read(raw: &[u8]) -> ReadOutcome {
        read_request(&mut BufReader::new(raw), 1024)
    }

    fn request(raw: &[u8]) -> Request {
        match read(raw) {
            ReadOutcome::Request(r) => *r,
            ReadOutcome::Closed => panic!("closed"),
            ReadOutcome::Timeout => panic!("timeout"),
            ReadOutcome::Error(e) => panic!("error: {e:?}"),
        }
    }

    fn error(raw: &[u8]) -> HttpError {
        match read(raw) {
            ReadOutcome::Error(e) => e,
            _ => panic!("expected an error for {:?}", String::from_utf8_lossy(raw)),
        }
    }

    #[test]
    fn parses_get_with_headers_and_query() {
        let r = request(b"GET /healthz?verbose=1 HTTP/1.1\r\nHost: x\r\nX-Trace: abc\r\n\r\n");
        assert_eq!(r.method, "GET");
        assert_eq!(r.path, "/healthz");
        assert_eq!(r.query, "verbose=1");
        assert_eq!(r.header("x-trace"), Some("abc"));
        assert!(r.keep_alive, "HTTP/1.1 defaults to keep-alive");
        assert!(r.body.is_empty());
    }

    #[test]
    fn parses_post_with_body() {
        let r = request(b"POST /v1/score HTTP/1.1\r\nContent-Length: 4\r\n\r\n{\"a\"");
        assert_eq!(r.method, "POST");
        assert_eq!(r.body, b"{\"a\"");
    }

    #[test]
    fn keep_alive_negotiation() {
        let r = request(b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n");
        assert!(!r.keep_alive);
        let r = request(b"GET / HTTP/1.0\r\n\r\n");
        assert!(!r.keep_alive, "HTTP/1.0 defaults to close");
        let r = request(b"GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n");
        assert!(r.keep_alive);
    }

    #[test]
    fn clean_eof_is_closed_not_error() {
        assert!(matches!(read(b""), ReadOutcome::Closed));
    }

    #[test]
    fn protocol_violations_are_structured_errors() {
        assert_eq!(error(b"GARBAGE\r\n\r\n").status, 400);
        assert_eq!(error(b"GET / HTTP/2.0\r\n\r\n").status, 505);
        assert_eq!(error(b"GET / HTTP/1.1\r\nbadheader\r\n\r\n").status, 400);
        assert_eq!(
            error(b"POST /x HTTP/1.1\r\nContent-Length: nope\r\n\r\n").status,
            400
        );
        assert_eq!(
            error(b"POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n").status,
            501
        );
        let e = error(b"POST /x HTTP/1.1\r\n\r\n");
        assert_eq!((e.status, e.code), (411, "length_required"));
        assert!(e.keep_alive, "no unread body, connection stays usable");
    }

    #[test]
    fn oversized_body_is_413_and_closes() {
        let e = error(b"POST /x HTTP/1.1\r\nContent-Length: 99999\r\n\r\n");
        assert_eq!(e.status, 413);
        assert_eq!(e.code, "payload_too_large");
        assert!(!e.keep_alive, "unread body must close the connection");
    }

    #[test]
    fn truncated_body_is_400() {
        let e = error(b"POST /x HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc");
        assert_eq!((e.status, e.code), (400, "truncated_body"));
    }

    #[test]
    fn oversized_head_is_431() {
        let mut raw = b"GET / HTTP/1.1\r\n".to_vec();
        raw.extend(format!("x-pad: {}\r\n\r\n", "y".repeat(MAX_HEAD_BYTES)).into_bytes());
        assert_eq!(error(&raw).status, 431);
    }

    #[test]
    fn error_response_is_structured_json() {
        let e = HttpError::bad_request("bad_json", "oops: \"quoted\"");
        let resp = e.to_response();
        assert_eq!(resp.status, 400);
        let parsed = Json::parse(std::str::from_utf8(&resp.body).unwrap()).unwrap();
        let err = parsed.get("error").unwrap();
        assert_eq!(err.get("code").unwrap().as_str(), Some("bad_json"));
        assert_eq!(
            err.get("message").unwrap().as_str(),
            Some("oops: \"quoted\"")
        );
    }

    /// Drive `parse_request` the way the reactor does: append each chunk
    /// to the receive buffer, then parse and drain until it needs more
    /// bytes. Returns every completed request and error, and the number of
    /// unparsed bytes left; a connection-closing error ends the stream.
    fn feed<'a>(
        chunks: impl IntoIterator<Item = &'a [u8]>,
        max_body: usize,
    ) -> (Vec<Request>, Vec<HttpError>, usize) {
        let mut buf: Vec<u8> = Vec::new();
        let (mut requests, mut errors) = (Vec::new(), Vec::new());
        for chunk in chunks {
            buf.extend_from_slice(chunk);
            loop {
                match parse_request(&buf, max_body) {
                    ParseOutcome::NeedMore => break,
                    ParseOutcome::Request { request, consumed } => {
                        requests.push(*request);
                        buf.drain(..consumed);
                    }
                    ParseOutcome::Error { error, consumed } => {
                        let recoverable = error.keep_alive;
                        errors.push(error);
                        buf.drain(..consumed.min(buf.len()));
                        if !recoverable {
                            return (requests, errors, buf.len());
                        }
                    }
                }
            }
        }
        (requests, errors, buf.len())
    }

    /// [`feed`] one byte at a time.
    fn parse_all(raw: &[u8], max_body: usize) -> (Vec<Request>, Vec<HttpError>, usize) {
        feed(raw.chunks(1), max_body)
    }

    /// The stream reader over a whole byte stream: every request up to EOF
    /// or the first connection-closing error.
    fn read_all(raw: &[u8], max_body: usize) -> (Vec<Request>, Vec<HttpError>) {
        let mut reader = BufReader::new(raw);
        let (mut requests, mut errors) = (Vec::new(), Vec::new());
        loop {
            match read_request(&mut reader, max_body) {
                ReadOutcome::Request(r) => requests.push(*r),
                ReadOutcome::Error(e) => {
                    let recoverable = e.keep_alive;
                    errors.push(e);
                    if !recoverable {
                        break;
                    }
                }
                ReadOutcome::Closed | ReadOutcome::Timeout => break,
            }
        }
        (requests, errors)
    }

    /// Every field of a [`Request`], for field-by-field comparison.
    type Fields = (
        String,
        String,
        String,
        Vec<(String, String)>,
        Vec<u8>,
        bool,
        bool,
    );

    fn fields(r: &Request) -> Fields {
        (
            r.method.clone(),
            r.path.clone(),
            r.query.clone(),
            r.headers.clone(),
            r.body.clone(),
            r.keep_alive,
            r.http11,
        )
    }

    /// Malformed requests and the typed error each must produce.
    const MALFORMED: [&[u8]; 6] = [
        b"GARBAGE\r\n\r\n",
        b"GET / HTTP/2.0\r\n\r\n",
        b"GET / HTTP/1.1\r\nbadheader\r\n\r\n",
        b"POST /x HTTP/1.1\r\nContent-Length: nope\r\n\r\n",
        b"POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n",
        b"POST /x HTTP/1.1\r\nContent-Length: 99999\r\n\r\n",
    ];

    /// splitmix64: grows a request stream and its cut points from one
    /// proptest-drawn seed.
    struct Mix(u64);

    impl Mix {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }

        fn pick<T: Copy>(&mut self, xs: &[T]) -> T {
            xs[self.below(xs.len() as u64) as usize]
        }

        /// `s` with each ASCII letter's case flipped at random.
        fn scramble(&mut self, s: &str) -> String {
            s.chars()
                .map(|c| {
                    if self.below(2) == 0 {
                        c.to_ascii_uppercase()
                    } else {
                        c.to_ascii_lowercase()
                    }
                })
                .collect()
        }

        /// One valid GET or POST request as wire bytes, plus its body.
        /// Method and header-name case, HTTP version, header spacing and
        /// each line's CRLF or bare-LF ending all vary.
        fn request(&mut self) -> (Vec<u8>, Vec<u8>) {
            let post = self.below(2) == 0;
            let method = self.scramble(if post { "POST" } else { "GET" });
            let path = self.pick(&["/healthz", "/metrics", "/v1/score", "/v1/explain"]);
            let query = self.pick(&["", "?verbose=1", "?a=1&b=x%20y"]);
            let version = self.pick(&["HTTP/1.1", "HTTP/1.0"]);
            // POST needs a body; GET carries one now and then.
            let body: Vec<u8> = if post || self.below(4) == 0 {
                (0..1 + self.below(40)).map(|_| self.next() as u8).collect()
            } else {
                Vec::new()
            };
            let mut headers: Vec<(&str, String)> = (0..self.below(4))
                .map(|_| {
                    let (name, value) = self.pick(&[
                        ("Host", "localhost"),
                        ("X-Tenant", "acme"),
                        ("Accept", "*/*"),
                        ("X-Trace", "a:b:c"),
                        ("Connection", "keep-alive"),
                        ("Connection", "close"),
                    ]);
                    (name, value.to_string())
                })
                .collect();
            if !body.is_empty() {
                headers.push(("Content-Length", body.len().to_string()));
            }
            let mut lines = vec![format!("{method} {path}{query} {version}")];
            for (name, value) in headers {
                let sep = self.pick(&[":", ": ", ":  "]);
                lines.push(format!("{}{sep}{value}", self.scramble(name)));
            }
            lines.push(String::new()); // the blank line that ends the head
            let mut raw = Vec::new();
            for line in lines {
                raw.extend_from_slice(line.as_bytes());
                raw.extend_from_slice(self.pick(&["\r\n", "\n"]).as_bytes());
            }
            raw.extend_from_slice(&body);
            (raw, body)
        }

        /// `raw` cut at up to seven random points (empty pieces allowed).
        fn cut<'a>(&mut self, raw: &'a [u8]) -> Vec<&'a [u8]> {
            let mut points: Vec<usize> = (0..self.below(8))
                .map(|_| self.below(raw.len() as u64 + 1) as usize)
                .collect();
            points.sort_unstable();
            let mut pieces = Vec::new();
            let mut start = 0;
            for p in points {
                pieces.push(&raw[start..p]);
                start = p;
            }
            pieces.push(&raw[start..]);
            pieces
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

        #[test]
        fn pipelined_stream_parses_identically_under_any_split(seed in any::<u64>()) {
            let mut mix = Mix(seed);
            let (mut raw, mut bodies) = (Vec::new(), Vec::new());
            for _ in 0..1 + mix.below(6) {
                let (bytes, body) = mix.request();
                raw.extend_from_slice(&bytes);
                bodies.push(body);
            }
            let (oracle, oracle_errors) = read_all(&raw, 1024);
            prop_assert!(oracle_errors.is_empty(), "{:?}", oracle_errors);
            let want: Vec<Fields> = oracle.iter().map(fields).collect();
            let got_bodies: Vec<Vec<u8>> = want.iter().map(|f| f.4.clone()).collect();
            prop_assert_eq!(got_bodies, bodies);
            for chunks in [vec![raw.as_slice()], mix.cut(&raw)] {
                let (requests, errors, leftover) = feed(chunks, 1024);
                prop_assert!(errors.is_empty(), "{:?}", errors);
                prop_assert_eq!(leftover, 0);
                prop_assert_eq!(requests.iter().map(fields).collect::<Vec<_>>(), want.clone());
            }
        }

        #[test]
        fn malformed_requests_error_identically_under_any_split(seed in any::<u64>()) {
            let mut mix = Mix(seed);
            // Valid requests may precede the malformed one on the stream.
            let mut raw = Vec::new();
            for _ in 0..mix.below(3) {
                raw.extend_from_slice(&mix.request().0);
            }
            let bad = mix.pick(&MALFORMED);
            raw.extend_from_slice(bad);
            let (oracle, oracle_errors) = read_all(&raw, 1024);
            prop_assert_eq!(oracle_errors.len(), 1);
            let (requests, errors, _) = feed(mix.cut(&raw), 1024);
            prop_assert_eq!(errors, oracle_errors);
            prop_assert_eq!(
                requests.iter().map(fields).collect::<Vec<_>>(),
                oracle.iter().map(fields).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn incremental_parser_matches_stream_reader() {
        let raw: &[u8] =
            b"POST /v1/score?x=1 HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\n\r\n{\"a\"";
        let (reqs, errs, leftover) = parse_all(raw, 1024);
        assert!(errs.is_empty());
        assert_eq!(leftover, 0);
        let [r] = &reqs[..] else {
            panic!("expected exactly one request")
        };
        let s = request(raw);
        assert_eq!((r.method.as_str(), s.method.as_str()), ("POST", "POST"));
        assert_eq!(r.path, s.path);
        assert_eq!(r.query, s.query);
        assert_eq!(r.headers, s.headers);
        assert_eq!(r.body, s.body);
        assert_eq!(r.keep_alive, s.keep_alive);
        assert!(r.http11 && s.http11);
    }

    #[test]
    fn incremental_parser_yields_pipelined_requests_in_order() {
        let raw: &[u8] =
            b"GET /healthz HTTP/1.1\r\n\r\nPOST /v1/score HTTP/1.1\r\nContent-Length: 2\r\n\r\n{}GET /metrics HTTP/1.1\r\n\r\n";
        let (reqs, errs, leftover) = parse_all(raw, 1024);
        assert!(errs.is_empty());
        assert_eq!(leftover, 0);
        let paths: Vec<&str> = reqs.iter().map(|r| r.path.as_str()).collect();
        assert_eq!(paths, ["/healthz", "/v1/score", "/metrics"]);
        assert_eq!(reqs[1].body, b"{}");
    }

    #[test]
    fn incremental_parser_recovers_after_keepalive_errors() {
        // 411 keeps the connection usable; the next pipelined request must
        // still parse from the remaining bytes.
        let raw: &[u8] = b"POST /v1/score HTTP/1.1\r\n\r\nGET /healthz HTTP/1.1\r\n\r\n";
        let (reqs, errs, leftover) = parse_all(raw, 1024);
        assert_eq!(leftover, 0);
        assert_eq!(errs.len(), 1);
        assert_eq!((errs[0].status, errs[0].code), (411, "length_required"));
        assert_eq!(reqs.len(), 1);
        assert_eq!(reqs[0].path, "/healthz");
    }

    #[test]
    fn incremental_parser_errors_match_stream_reader_errors() {
        for raw in MALFORMED {
            let stream_err = error(raw);
            let (_, errs, _) = parse_all(raw, 1024);
            assert_eq!(errs.len(), 1, "{:?}", String::from_utf8_lossy(raw));
            assert_eq!(errs[0], stream_err);
        }
    }

    #[test]
    fn incremental_parser_caps_headless_garbage() {
        // No newline at all: the buffer must not grow unboundedly.
        let raw = vec![b'x'; MAX_HEAD_BYTES + 2];
        let ParseOutcome::Error { error, consumed } = parse_request(&raw, 1024) else {
            panic!("oversized headless buffer must error");
        };
        assert_eq!(error.status, 431);
        assert_eq!(consumed, raw.len());
    }

    #[test]
    fn chunked_encoding_dechunks_to_identical_bytes() {
        let body: Vec<u8> = (0..1000u32).flat_map(|i| i.to_le_bytes()).collect();
        let resp = Response::json(200, body.clone());
        let wire = resp.encode(true, Some(64));
        let text = String::from_utf8_lossy(&wire);
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("transfer-encoding: chunked\r\n"));
        assert!(!text.contains("content-length"));
        // De-chunk and compare byte-for-byte.
        let head_end = wire.windows(4).position(|w| w == b"\r\n\r\n").unwrap() + 4;
        let mut rest = &wire[head_end..];
        let mut payload = Vec::new();
        loop {
            let line_end = rest.windows(2).position(|w| w == b"\r\n").unwrap();
            let size =
                usize::from_str_radix(std::str::from_utf8(&rest[..line_end]).unwrap(), 16).unwrap();
            rest = &rest[line_end + 2..];
            if size == 0 {
                assert_eq!(rest, b"\r\n");
                break;
            }
            payload.extend_from_slice(&rest[..size]);
            assert_eq!(&rest[size..size + 2], b"\r\n");
            rest = &rest[size + 2..];
        }
        assert_eq!(payload, body);
        // Content-Length framing is unchanged by the encode() refactor.
        let mut via_write_to = Vec::new();
        resp.write_to(&mut via_write_to, true).unwrap();
        assert_eq!(via_write_to, resp.encode(true, None));
        // Empty bodies never chunk.
        let empty = Response::json(204, Vec::new());
        assert_eq!(empty.encode(true, Some(64)), empty.encode(true, None));
    }

    #[test]
    fn response_head_wire_shape() {
        let mut out = Vec::new();
        Response::json(200, "{}").write_to(&mut out, true).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("content-length: 2\r\n"));
        assert!(text.contains("connection: keep-alive\r\n"));
        assert!(text.ends_with("\r\n\r\n{}"));
        let mut out = Vec::new();
        Response::text(503, "overload")
            .write_to(&mut out, false)
            .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 503 Service Unavailable\r\n"));
        assert!(text.contains("connection: close\r\n"));
    }
}
