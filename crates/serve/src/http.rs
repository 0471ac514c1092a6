//! Minimal HTTP/1.1 framing shared by the server, the `bench_serve` load
//! generator, the CLI self-check and the tests.
//!
//! Implements just enough of RFC 9112 for keep-alive `GET` exchanges with
//! JSON bodies — the workspace builds against an offline registry, so no
//! external HTTP crate is available (or needed).

use dlinfma_obs::JsonValue;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};

/// One parsed request head (bodies are ignored; the API is `GET`-only).
#[derive(Debug, Clone)]
pub struct Request {
    /// `GET`, `POST`, …
    pub method: String,
    /// Path without the query string, e.g. `/lookup`.
    pub path: String,
    /// Decoded `key=value` pairs from the query string, in order.
    pub query: Vec<(String, String)>,
    /// True when the client asked for `Connection: close` (or spoke
    /// HTTP/1.0 without `keep-alive`).
    pub close: bool,
}

impl Request {
    /// First query value for `key`, if present.
    pub fn param(&self, key: &str) -> Option<&str> {
        self.query
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

/// Splits a request target into path and query pairs. No percent-decoding:
/// the API's values are numeric ids and comma lists.
fn split_target(target: &str) -> (String, Vec<(String, String)>) {
    match target.split_once('?') {
        None => (target.to_string(), Vec::new()),
        Some((path, qs)) => {
            let query = qs
                .split('&')
                .filter(|kv| !kv.is_empty())
                .map(|kv| match kv.split_once('=') {
                    Some((k, v)) => (k.to_string(), v.to_string()),
                    None => (kv.to_string(), String::new()),
                })
                .collect();
            (path.to_string(), query)
        }
    }
}

/// Largest request head — request line plus headers — one request may
/// send. A longer head is answered 431 and the connection closed, so a
/// client cannot make the server buffer without bound.
pub const MAX_HEAD_BYTES: usize = 8 * 1024;

/// What [`HeadReader::next_head`] produced.
#[derive(Debug)]
pub(crate) enum Head {
    /// One complete, parsed request head.
    Request(Request),
    /// The peer closed the connection; a partial head is discarded.
    Closed,
    /// The head grew past [`MAX_HEAD_BYTES`] without ending.
    TooLarge,
    /// The head is not UTF-8 or its request line does not parse.
    Malformed(String),
}

/// Reads request heads off one connection. Bytes of a partial head are kept
/// across read timeouts, so a client that pauses mid-head is answered once
/// the head completes; bytes after a head (a pipelined request) are kept
/// for the next call.
#[derive(Debug)]
pub(crate) struct HeadReader<R> {
    inner: R,
    buf: Vec<u8>,
}

impl<R: Read> HeadReader<R> {
    pub(crate) fn new(inner: R) -> Self {
        Self {
            inner,
            buf: Vec::new(),
        }
    }

    /// Reads until one request head is buffered and parses it.
    ///
    /// Read-timeout errors (`WouldBlock` / `TimedOut`) bubble up with the
    /// partial head kept, so the connection loop can poll its stop flag and
    /// call again.
    pub(crate) fn next_head(&mut self) -> io::Result<Head> {
        let mut chunk = [0u8; 2048];
        loop {
            match head_end(&self.buf) {
                Some(end) if end > MAX_HEAD_BYTES => return Ok(Head::TooLarge),
                Some(end) => {
                    let head = parse_head(&self.buf[..end]);
                    self.buf.drain(..end);
                    return Ok(head);
                }
                None if self.buf.len() >= MAX_HEAD_BYTES => return Ok(Head::TooLarge),
                None => {}
            }
            let n = match self.inner.read(&mut chunk) {
                Ok(n) => n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            };
            if n == 0 {
                return Ok(Head::Closed);
            }
            self.buf.extend_from_slice(&chunk[..n]);
        }
    }

    /// Reads and discards what the peer still sends, until it closes,
    /// pauses for one read timeout, or `limit` bytes have gone. Closing a
    /// socket with unread input resets the connection, which can destroy a
    /// response already written; draining first lets an error answer reach
    /// a client that is still sending.
    pub(crate) fn discard_input(&mut self, limit: usize) {
        let mut chunk = [0u8; 2048];
        let mut left = limit;
        while left > 0 {
            match self.inner.read(&mut chunk) {
                Ok(0) | Err(_) => return,
                Ok(n) => left = left.saturating_sub(n),
            }
        }
    }
}

/// Length of the head at the front of `buf`: through the first empty line
/// after the request line (`\r\n` or bare `\n` endings), if one is buffered.
fn head_end(buf: &[u8]) -> Option<usize> {
    let mut line_start = 0;
    for (i, _) in buf.iter().enumerate().filter(|(_, &b)| b == b'\n') {
        let line = &buf[line_start..i];
        if line_start > 0 && line.strip_suffix(b"\r").unwrap_or(line).is_empty() {
            return Some(i + 1);
        }
        line_start = i + 1;
    }
    None
}

fn parse_head(head: &[u8]) -> Head {
    let Ok(text) = std::str::from_utf8(head) else {
        return Head::Malformed("request head is not UTF-8".to_string());
    };
    let mut lines = text.lines();
    let line = lines.next().unwrap_or_default();
    let mut parts = line.split_whitespace();
    let (method, target, version) = match (parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v)) => (m, t, v),
        _ => return Head::Malformed(format!("malformed request line: {line:?}")),
    };
    let mut close = version == "HTTP/1.0";
    for header in lines.map(str::trim).take_while(|h| !h.is_empty()) {
        if let Some((k, v)) = header.split_once(':') {
            if k.trim().eq_ignore_ascii_case("connection") {
                let v = v.trim();
                if v.eq_ignore_ascii_case("close") {
                    close = true;
                } else if v.eq_ignore_ascii_case("keep-alive") {
                    close = false;
                }
            }
        }
    }
    let (path, query) = split_target(target);
    Head::Request(Request {
        method: method.to_string(),
        path,
        query,
        close,
    })
}

/// Writes a complete JSON response with `Content-Length` framing.
pub(crate) fn write_response(stream: &mut TcpStream, status: u16, body: &str) -> io::Result<()> {
    let reason = match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        431 => "Request Header Fields Too Large",
        _ => "Internal Server Error",
    };
    let head = format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\nConnection: keep-alive\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

/// A keep-alive HTTP/1.1 client speaking the server's JSON dialect.
///
/// One client owns one TCP connection; `get` pipelines request after
/// request over it, which is what the closed-loop load generator needs.
#[derive(Debug)]
pub struct HttpClient {
    reader: BufReader<TcpStream>,
}

impl HttpClient {
    /// Connects to a server address (e.g. the value of [`crate::Server::addr`]).
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Self {
            reader: BufReader::new(stream),
        })
    }

    /// Issues `GET <target>` and returns `(status, parsed JSON body)`.
    pub fn get(&mut self, target: &str) -> io::Result<(u16, JsonValue)> {
        {
            let stream = self.reader.get_mut();
            let req =
                format!("GET {target} HTTP/1.1\r\nHost: dlinfma\r\nConnection: keep-alive\r\n\r\n");
            stream.write_all(req.as_bytes())?;
            stream.flush()?;
        }
        let mut status_line = String::new();
        if self.reader.read_line(&mut status_line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed connection before responding",
            ));
        }
        let status: u16 = status_line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("malformed status line: {status_line:?}"),
                )
            })?;
        let mut content_length = 0usize;
        loop {
            let mut header = String::new();
            if self.reader.read_line(&mut header)? == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection closed inside response headers",
                ));
            }
            let header = header.trim();
            if header.is_empty() {
                break;
            }
            if let Some((k, v)) = header.split_once(':') {
                if k.trim().eq_ignore_ascii_case("content-length") {
                    content_length = v.trim().parse().map_err(|e| {
                        io::Error::new(io::ErrorKind::InvalidData, format!("content-length: {e}"))
                    })?;
                }
            }
        }
        let mut body = vec![0u8; content_length];
        self.reader.read_exact(&mut body)?;
        let text = String::from_utf8(body)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("utf8 body: {e}")))?;
        let json = JsonValue::parse(&text)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("json body: {e}")))?;
        Ok((status, json))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::VecDeque;

    /// A reader replaying scripted chunks, with `None` standing for a read
    /// timeout.
    struct Script(VecDeque<Option<&'static [u8]>>);

    impl Read for Script {
        fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
            match self.0.pop_front() {
                None => Ok(0),
                Some(None) => Err(io::ErrorKind::TimedOut.into()),
                Some(Some(bytes)) => {
                    let n = bytes.len().min(out.len());
                    out[..n].copy_from_slice(&bytes[..n]);
                    if n < bytes.len() {
                        self.0.push_front(Some(&bytes[n..]));
                    }
                    Ok(n)
                }
            }
        }
    }

    fn reader(chunks: &[Option<&'static [u8]>]) -> HeadReader<Script> {
        HeadReader::new(Script(chunks.iter().copied().collect()))
    }

    fn expect_request(head: io::Result<Head>) -> Request {
        match head {
            Ok(Head::Request(req)) => req,
            other => panic!("expected a request, got {other:?}"),
        }
    }

    #[test]
    fn partial_head_survives_timeouts_and_pipelined_bytes_are_kept() {
        let mut r = reader(&[
            Some(b"GET /lookup?address=3 HTTP/1.1\r\n"),
            None,
            Some(b"Host: x\r\n"),
            None,
            Some(b"\r\nGET /healthz HTTP/1.0\n\nGET /b"),
        ]);
        for _ in 0..2 {
            let e = r.next_head().unwrap_err();
            assert_eq!(e.kind(), io::ErrorKind::TimedOut);
        }
        let req = expect_request(r.next_head());
        assert_eq!(
            (req.path.as_str(), req.param("address")),
            ("/lookup", Some("3"))
        );
        assert!(!req.close);
        let req = expect_request(r.next_head());
        assert_eq!(req.path, "/healthz");
        assert!(req.close, "HTTP/1.0 closes by default");
        // A partial head at EOF is dropped with the connection.
        assert!(matches!(r.next_head(), Ok(Head::Closed)));
    }

    #[test]
    fn head_over_the_cap_is_too_large() {
        static LONG: [u8; MAX_HEAD_BYTES] = [b'a'; MAX_HEAD_BYTES];
        let mut r = reader(&[Some(b"GET / HTTP/1.1\r\nX-Pad: "), Some(&LONG)]);
        assert!(matches!(r.next_head(), Ok(Head::TooLarge)));
        // Just under the cap is fine.
        let mut ok = b"GET / HTTP/1.1\r\nX-Pad: ".to_vec();
        ok.resize(MAX_HEAD_BYTES - 4, b'a');
        ok.extend_from_slice(b"\r\n\r\n");
        let ok: &'static [u8] = ok.leak();
        let mut r = reader(&[Some(ok)]);
        assert_eq!(expect_request(r.next_head()).path, "/");
    }

    #[test]
    fn malformed_heads_are_reported() {
        let mut r = reader(&[Some(b"GARBAGE\r\n\r\n")]);
        assert!(matches!(r.next_head(), Ok(Head::Malformed(_))));
        let mut r = reader(&[Some(b"GET / HTTP/1.1\r\nX: \xff\r\n\r\n")]);
        assert!(matches!(r.next_head(), Ok(Head::Malformed(_))));
    }
}
