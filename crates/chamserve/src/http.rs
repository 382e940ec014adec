//! A minimal HTTP/1.1 layer on `std::net` — just enough protocol for the
//! trace service, hand-rolled under the workspace's hermetic policy (no
//! registry dependencies, so no hyper/axum).
//!
//! Scope is deliberately narrow and explicit:
//!
//! - request line + headers are bounded by [`MAX_HEAD_BYTES`]; bodies are
//!   read only when `Content-Length` is present and within the server's
//!   configured cap (chunked transfer encoding is rejected with 411);
//! - every response carries `Content-Length` and `Connection: close`, and
//!   the connection is closed after one exchange — keep-alive buys
//!   nothing for a push-then-query workload and costs idle sockets;
//! - responses are byte-deterministic: the status line, the fixed header
//!   set, and the body are all canonical, so endpoint goldens can be
//!   `diff`ed exactly like journal goldens.
//!
//! The same module carries the tiny client used by `chamtrace push` and
//! the test suites, so both ends of the wire share one header grammar.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// Upper bound on the request line plus all headers.
pub const MAX_HEAD_BYTES: usize = 16 * 1024;

/// One parsed request: method, split path, and the raw body.
#[derive(Debug)]
pub struct Request {
    /// `GET` or `POST` (anything else is rejected at parse time).
    pub method: String,
    /// Request target with the leading `/` stripped and split on `/`;
    /// `GET /` parses to an empty vector.
    pub segments: Vec<String>,
    /// Raw body bytes (empty unless `Content-Length` said otherwise).
    pub body: Vec<u8>,
    /// The client's `Content-Crc32` claim (8 hex digits), if sent. The
    /// router verifies it against the body *before* any session state is
    /// touched; a mismatch is a 422 the retrying client resends on.
    pub crc: Option<u32>,
}

/// Why a request could not be served at the protocol level, carrying the
/// HTTP status that describes it.
#[derive(Debug)]
pub struct HttpError {
    /// Status code to answer with.
    pub status: u16,
    /// Human-readable detail (lands in the JSON error body).
    pub detail: String,
}

impl HttpError {
    fn new(status: u16, detail: impl Into<String>) -> Self {
        HttpError {
            status,
            detail: detail.into(),
        }
    }
}

/// Map a read failure to its protocol status: a socket deadline expiring
/// is a 408 (the slow-loris shed), anything else a 400.
fn read_error(what: &str, e: &std::io::Error) -> HttpError {
    use std::io::ErrorKind;
    if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) {
        HttpError::new(408, format!("{what} deadline expired"))
    } else {
        HttpError::new(400, format!("{what}: {e}"))
    }
}

/// Read and parse one request from the stream. `max_body` bounds the
/// `Content-Length` the server will buffer — an oversized claim is
/// rejected with 413 *before* any body byte is read or buffered. The
/// stream's current read timeout governs the head, and `body_timeout`
/// (when set) is installed on the socket once the head has parsed, so
/// slow header writers and slow body writers each hit their own 408.
pub fn read_request_with(
    stream: &mut TcpStream,
    max_body: usize,
    body_timeout: Option<Duration>,
) -> Result<Request, HttpError> {
    let mut reader = BufReader::new(
        stream
            .try_clone()
            .map_err(|e| HttpError::new(500, format!("stream clone: {e}")))?,
    );
    let mut head = String::new();
    let mut line = String::new();
    loop {
        line.clear();
        let n = reader
            .read_line(&mut line)
            .map_err(|e| read_error("head read", &e))?;
        if n == 0 {
            return Err(HttpError::new(400, "connection closed mid-head"));
        }
        head.push_str(&line);
        if head.len() > MAX_HEAD_BYTES {
            return Err(HttpError::new(431, "request head too large"));
        }
        if line == "\r\n" || line == "\n" {
            break;
        }
    }
    let mut lines = head.lines();
    let request_line = lines
        .next()
        .ok_or_else(|| HttpError::new(400, "empty request"))?;
    let mut parts = request_line.split_whitespace();
    let method = parts
        .next()
        .ok_or_else(|| HttpError::new(400, "missing method"))?
        .to_string();
    let target = parts
        .next()
        .ok_or_else(|| HttpError::new(400, "missing request target"))?;
    let version = parts.next().unwrap_or("");
    if !version.starts_with("HTTP/1.") {
        return Err(HttpError::new(
            400,
            format!("unsupported version {version:?}"),
        ));
    }
    if method != "GET" && method != "POST" {
        return Err(HttpError::new(405, format!("method {method} not allowed")));
    }

    let mut content_length: Option<usize> = None;
    let mut crc: Option<u32> = None;
    for h in lines {
        let h = h.trim_end();
        if h.is_empty() {
            break;
        }
        let Some((name, value)) = h.split_once(':') else {
            return Err(HttpError::new(400, format!("malformed header {h:?}")));
        };
        let name = name.trim().to_ascii_lowercase();
        let value = value.trim();
        match name.as_str() {
            "content-length" => {
                let n: usize = value
                    .parse()
                    .map_err(|_| HttpError::new(400, format!("bad content-length {value:?}")))?;
                content_length = Some(n);
            }
            "content-crc32" => {
                let v = u32::from_str_radix(value, 16)
                    .map_err(|_| HttpError::new(400, format!("bad content-crc32 {value:?}")))?;
                crc = Some(v);
            }
            "transfer-encoding" => {
                return Err(HttpError::new(411, "chunked bodies not supported"));
            }
            _ => {}
        }
    }

    // The cap gates the *claimed* length before a single body byte is
    // buffered — an absurd Content-Length costs a 413, not an allocation.
    let body = match content_length {
        None | Some(0) => Vec::new(),
        Some(n) if n > max_body => {
            return Err(HttpError::new(
                413,
                format!("body of {n} bytes exceeds the {max_body}-byte cap"),
            ));
        }
        Some(n) => {
            if let Some(t) = body_timeout {
                // The BufReader wraps a clone of the same socket, so the
                // new deadline applies to the reads below.
                stream.set_read_timeout(Some(t)).ok();
            }
            let mut buf = vec![0u8; n];
            reader
                .read_exact(&mut buf)
                .map_err(|e| read_error("body read", &e))?;
            buf
        }
    };

    // Split the target: "/runs/bt4/metrics" -> ["runs", "bt4", "metrics"].
    let path = target.split('?').next().unwrap_or(target);
    let segments: Vec<String> = path
        .split('/')
        .filter(|s| !s.is_empty())
        .map(percent_decode)
        .collect();
    Ok(Request {
        method,
        segments,
        body,
        crc,
    })
}

/// Decode `%XX` escapes (run IDs travel in the path). Invalid escapes
/// pass through verbatim — the run-ID validator rejects them later.
fn percent_decode(s: &str) -> String {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'%' {
            if let (Some(h), Some(l)) = (
                bytes.get(i + 1).and_then(|b| (*b as char).to_digit(16)),
                bytes.get(i + 2).and_then(|b| (*b as char).to_digit(16)),
            ) {
                out.push((h * 16 + l) as u8);
                i += 3;
                continue;
            }
        }
        out.push(bytes[i]);
        i += 1;
    }
    String::from_utf8_lossy(&out).into_owned()
}

/// Canonical reason phrases for the statuses the service emits.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        411 => "Length Required",
        413 => "Payload Too Large",
        422 => "Unprocessable Content",
        429 => "Too Many Requests",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Write one canonical response and flush, with extra canonical headers
/// (e.g. the `retry-after` a 503/429 carries). The header set is fixed
/// so response bytes are reproducible end to end. Header names must be
/// lowercase.
pub fn write_response_with(
    stream: &mut TcpStream,
    status: u16,
    content_type: &str,
    extra: &[(&str, &str)],
    body: &[u8],
) -> std::io::Result<()> {
    let mut head = format!(
        "HTTP/1.1 {status} {}\r\ncontent-type: {content_type}\r\ncontent-length: {}\r\n",
        reason(status),
        body.len()
    );
    for (name, value) in extra {
        head.push_str(&format!("{name}: {value}\r\n"));
    }
    head.push_str("connection: close\r\n\r\n");
    stream.write_all(head.as_bytes())?;
    stream.write_all(body)?;
    stream.flush()
}

/// One client exchange: connect, send, read the full response. Returns
/// `(status, body)`. Used by `chamtrace push`, the matrix `--push` hook,
/// and the integration suites.
pub fn request(
    addr: &str,
    method: &str,
    path: &str,
    body: &[u8],
    timeout: Duration,
) -> Result<(u16, Vec<u8>), String> {
    request_with(addr, method, path, body, &[], timeout)
}

/// [`request`] with extra request headers (the retrying push adds its
/// `content-crc32` claim here). Header names must be lowercase.
pub fn request_with(
    addr: &str,
    method: &str,
    path: &str,
    body: &[u8],
    extra: &[(&str, String)],
    timeout: Duration,
) -> Result<(u16, Vec<u8>), String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    stream.set_read_timeout(Some(timeout)).ok();
    stream.set_write_timeout(Some(timeout)).ok();
    let mut head = format!(
        "{method} {path} HTTP/1.1\r\nhost: {addr}\r\ncontent-length: {}\r\n",
        body.len()
    );
    for (name, value) in extra {
        head.push_str(&format!("{name}: {value}\r\n"));
    }
    head.push_str("connection: close\r\n\r\n");
    stream
        .write_all(head.as_bytes())
        .and_then(|()| stream.write_all(body))
        .map_err(|e| format!("send {path}: {e}"))?;
    let mut reader = BufReader::new(stream);
    let mut status_line = String::new();
    reader
        .read_line(&mut status_line)
        .map_err(|e| format!("read status: {e}"))?;
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("malformed status line {status_line:?}"))?;
    let mut content_length: Option<usize> = None;
    let mut line = String::new();
    loop {
        line.clear();
        let n = reader
            .read_line(&mut line)
            .map_err(|e| format!("read header: {e}"))?;
        if n == 0 || line == "\r\n" || line == "\n" {
            break;
        }
        if let Some((name, value)) = line.split_once(':') {
            if name.trim().eq_ignore_ascii_case("content-length") {
                content_length = value.trim().parse().ok();
            }
        }
    }
    let mut body = Vec::new();
    match content_length {
        Some(n) => {
            body.resize(n, 0);
            reader
                .read_exact(&mut body)
                .map_err(|e| format!("read body: {e}"))?;
        }
        None => {
            reader
                .read_to_end(&mut body)
                .map_err(|e| format!("read body: {e}"))?;
        }
    }
    Ok((status, body))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percent_decoding_handles_escapes_and_garbage() {
        assert_eq!(percent_decode("bt4"), "bt4");
        assert_eq!(percent_decode("a%2Fb"), "a/b");
        assert_eq!(percent_decode("50%"), "50%");
        assert_eq!(percent_decode("%zz"), "%zz");
    }

    #[test]
    fn reasons_cover_emitted_statuses() {
        for s in [200, 400, 404, 405, 408, 411, 413, 422, 429, 431, 500, 503] {
            assert_ne!(reason(s), "Unknown", "status {s}");
        }
    }

    /// Run `read_request_with` against one raw client payload and return the
    /// outcome plus how long the parse itself took. The client never
    /// sends a body, so any attempt to buffer one would block until the
    /// read deadline instead of failing fast.
    fn parse_raw(head: &str, max_body: usize) -> (Result<Request, HttpError>, Duration) {
        use std::io::Write;
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let head = head.to_string();
        let client = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).unwrap();
            s.write_all(head.as_bytes()).unwrap();
            // Hold the socket open: a server that tries to read the
            // (absent) body parks here instead of answering.
            std::thread::sleep(Duration::from_millis(500));
        });
        let (mut stream, _) = listener.accept().unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let started = std::time::Instant::now();
        let out = read_request_with(&mut stream, max_body, None);
        let took = started.elapsed();
        client.join().unwrap();
        (out, took)
    }

    #[test]
    fn oversized_content_length_is_413_before_buffering() {
        // An absurd claimed length (here 1 TiB) must be rejected from the
        // header alone — no allocation, no body read. The client sends no
        // body at all, so reaching the reject proves nothing was buffered;
        // the sub-deadline wall-clock bound proves nothing was awaited.
        let (out, took) = parse_raw(
            "POST /runs/x/journal HTTP/1.1\r\ncontent-length: 1099511627776\r\n\r\n",
            1024,
        );
        let err = out.unwrap_err();
        assert_eq!(err.status, 413, "{}", err.detail);
        assert!(err.detail.contains("1099511627776"), "{}", err.detail);
        assert!(err.detail.contains("1024-byte cap"), "{}", err.detail);
        assert!(
            took < Duration::from_millis(400),
            "413 must not wait for body bytes (took {took:?})"
        );
        // At the cap is still accepted (when the bytes actually arrive).
        let (ok, _) = parse_raw("POST /x HTTP/1.1\r\ncontent-length: 0\r\n\r\n", 1024);
        assert!(ok.unwrap().body.is_empty());
    }

    #[test]
    fn content_crc32_header_parses_hex_and_rejects_garbage() {
        let req = parse_raw(
            "POST /x HTTP/1.1\r\ncontent-crc32: cbf43926\r\ncontent-length: 0\r\n\r\n",
            1024,
        )
        .0
        .unwrap();
        assert_eq!(req.crc, Some(0xCBF4_3926));
        let none = parse_raw("GET /x HTTP/1.1\r\n\r\n", 1024).0.unwrap();
        assert_eq!(none.crc, None);
        let err = parse_raw(
            "POST /x HTTP/1.1\r\ncontent-crc32: not-hex\r\ncontent-length: 0\r\n\r\n",
            1024,
        )
        .0
        .unwrap_err();
        assert_eq!(err.status, 400);
    }

    #[test]
    fn slow_loris_head_is_408() {
        use std::io::Write;
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).unwrap();
            // A partial request line, then silence past the deadline.
            s.write_all(b"POST /runs").unwrap();
            std::thread::sleep(Duration::from_millis(600));
        });
        let (mut stream, _) = listener.accept().unwrap();
        stream
            .set_read_timeout(Some(Duration::from_millis(100)))
            .unwrap();
        let err = read_request_with(&mut stream, 1024, None).unwrap_err();
        assert_eq!(err.status, 408, "{}", err.detail);
        assert!(err.detail.contains("deadline"), "{}", err.detail);
        client.join().unwrap();
    }
}
