//! Minimal HTTP/1.1 framing over `std::net` — just enough of RFC 9112
//! for the daemon and its load generator: request line + headers +
//! `Content-Length` bodies (plus `Transfer-Encoding: chunked` on the
//! *response* side, for the WAL tail stream), keep-alive, no TLS.
//!
//! Parsing is *resumable*: [`parse_buffered`] consumes a complete
//! request from the front of a caller-owned accumulator buffer and
//! otherwise reports "not yet" — the reactor appends whatever bytes each
//! wakeup delivered and retries, so a request arriving one byte per
//! `epoll_wait` costs nothing but the retries. Pipelined bytes beyond
//! the first complete request stay in the buffer for the next call.

use std::io::{self, Read, Write};
use std::net::TcpStream;

/// Longest request head (request line + headers) the server accepts.
const MAX_HEAD: usize = 16 * 1024;
/// Largest request body the server accepts. How deep a body may *nest*
/// is bounded where it is parsed: [`pgraph::json::MAX_DEPTH`] containers
/// of JSON, [`gql_sdl::MAX_DEPTH`] levels of list type or constant value
/// in a schema — recursive-descent parsers behind a 64 MiB cap would
/// otherwise let one request overflow a reactor core's stack.
const MAX_BODY: usize = 64 * 1024 * 1024;

/// One parsed HTTP request.
#[derive(Debug)]
pub struct Request {
    /// Uppercase method token, e.g. `GET`.
    pub method: String,
    /// Path component of the request target, without the query string.
    pub path: String,
    /// Decoded `key=value` pairs of the query string, in order.
    pub query: Vec<(String, String)>,
    /// Header `(name, value)` pairs; names are lower-cased.
    pub headers: Vec<(String, String)>,
    /// Request body (empty unless `Content-Length` said otherwise).
    pub body: Vec<u8>,
}

impl Request {
    /// First value of a (lower-case) header name, if present.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// First value of a query parameter, if present.
    pub fn query_param(&self, name: &str) -> Option<&str> {
        self.query
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// Whether the client asked to close the connection after this
    /// request (`Connection: close`).
    pub fn wants_close(&self) -> bool {
        self.header("connection")
            .is_some_and(|v| v.eq_ignore_ascii_case("close"))
    }
}

/// Consumes one complete request from the front of `buf`, leaving any
/// pipelined surplus in place. `Ok(None)` means the buffer holds only a
/// prefix — append more bytes and call again (this is what makes the
/// parse resumable across reactor wakeups). Malformed or oversized input
/// is an [`io::ErrorKind::InvalidData`] error; the connection should
/// then be closed after a `400`.
pub fn parse_buffered(buf: &mut Vec<u8>) -> io::Result<Option<Request>> {
    let Some(head_len) = find_head_end(buf) else {
        if buf.len() > MAX_HEAD {
            return Err(invalid("request head too large"));
        }
        return Ok(None);
    };
    let (mut request, body_len) = parse_head(&buf[..head_len])?;
    if body_len > MAX_BODY {
        return Err(invalid("request body too large"));
    }
    let total = head_len + body_len;
    if buf.len() < total {
        return Ok(None);
    }
    request.body = buf[head_len..total].to_vec();
    buf.drain(..total);
    Ok(Some(request))
}

fn invalid(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_owned())
}

/// Index just past `\r\n\r\n`, if the head is complete.
fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n").map(|p| p + 4)
}

/// Parses the request line and headers; returns the request (with empty
/// body) and the declared body length.
fn parse_head(head: &[u8]) -> io::Result<(Request, usize)> {
    let text = std::str::from_utf8(head).map_err(|_| invalid("request head is not UTF-8"))?;
    let mut lines = text.split("\r\n");
    let request_line = lines.next().ok_or_else(|| invalid("empty request"))?;
    let mut parts = request_line.split(' ');
    let method = parts.next().ok_or_else(|| invalid("missing method"))?;
    let target = parts
        .next()
        .ok_or_else(|| invalid("missing request target"))?;
    let version = parts
        .next()
        .ok_or_else(|| invalid("missing HTTP version"))?;
    if !version.starts_with("HTTP/1.") {
        return Err(invalid("unsupported HTTP version"));
    }
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p, parse_query(q)),
        None => (target, Vec::new()),
    };
    let mut headers = Vec::new();
    let mut body_len = 0usize;
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| invalid("malformed header line"))?;
        let name = name.trim().to_ascii_lowercase();
        let value = value.trim().to_owned();
        if name == "content-length" {
            body_len = value
                .parse::<usize>()
                .map_err(|_| invalid("bad Content-Length"))?;
        }
        headers.push((name, value));
    }
    Ok((
        Request {
            method: method.to_owned(),
            path: path.to_owned(),
            query,
            headers,
            body: Vec::new(),
        },
        body_len,
    ))
}

/// Splits `a=b&c=d` into pairs, percent-decoding both sides.
fn parse_query(q: &str) -> Vec<(String, String)> {
    q.split('&')
        .filter(|kv| !kv.is_empty())
        .map(|kv| match kv.split_once('=') {
            Some((k, v)) => (percent_decode(k), percent_decode(v)),
            None => (percent_decode(kv), String::new()),
        })
        .collect()
}

fn percent_decode(s: &str) -> String {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'%' if i + 2 < bytes.len() => {
                let hex = std::str::from_utf8(&bytes[i + 1..i + 3]).unwrap_or("");
                match u8::from_str_radix(hex, 16) {
                    Ok(b) => {
                        out.push(b);
                        i += 3;
                    }
                    Err(_) => {
                        out.push(b'%');
                        i += 1;
                    }
                }
            }
            b'+' => {
                out.push(b' ');
                i += 1;
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

/// One HTTP response, written with `Content-Length` framing — or, when
/// [`Response::chunks`] is set, with `Transfer-Encoding: chunked`.
#[derive(Debug)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// Extra headers beyond `Content-Length` / `Content-Type` /
    /// `Connection`.
    pub headers: Vec<(String, String)>,
    /// Response body (ignored when `chunks` is set).
    pub body: Vec<u8>,
    /// `Content-Type` of the body.
    pub content_type: &'static str,
    /// When set, the response is written with `Transfer-Encoding:
    /// chunked`, one chunk per entry (empty entries are skipped — a
    /// zero-length chunk would terminate the stream early). The WAL tail
    /// endpoint uses one chunk per frame so a tailing follower can apply
    /// records as they arrive.
    pub chunks: Option<Vec<Vec<u8>>>,
}

impl Response {
    /// A JSON response.
    pub fn json(status: u16, body: impl Into<Vec<u8>>) -> Self {
        Response {
            status,
            headers: Vec::new(),
            body: body.into(),
            content_type: "application/json",
            chunks: None,
        }
    }

    /// A plain-text response.
    pub fn text(status: u16, body: impl Into<Vec<u8>>) -> Self {
        Response {
            status,
            headers: Vec::new(),
            body: body.into(),
            content_type: "text/plain; charset=utf-8",
            chunks: None,
        }
    }

    /// A binary response with a `Content-Length` body.
    pub fn octets(status: u16, body: impl Into<Vec<u8>>) -> Self {
        Response {
            status,
            headers: Vec::new(),
            body: body.into(),
            content_type: "application/octet-stream",
            chunks: None,
        }
    }

    /// A binary chunked-transfer response, one chunk per entry.
    pub fn chunked(status: u16, chunks: Vec<Vec<u8>>) -> Self {
        Response {
            status,
            headers: Vec::new(),
            body: Vec::new(),
            content_type: "application/octet-stream",
            chunks: Some(chunks),
        }
    }

    /// A JSON error envelope `{"error": …}`.
    pub fn error(status: u16, message: &str) -> Self {
        let mut body = String::with_capacity(message.len() + 16);
        body.push_str("{\"error\":\"");
        pgraph::json::escape_into(&mut body, message);
        body.push_str("\"}");
        Response::json(status, body)
    }

    /// Adds a header.
    pub fn with_header(mut self, name: &str, value: &str) -> Self {
        self.headers.push((name.to_owned(), value.to_owned()));
        self
    }

    /// Serialises the head + body into one contiguous byte vector, ready
    /// for the reactor's output queue (flushed with `writev`). `close`
    /// adds `Connection: close`; otherwise `Connection: keep-alive`.
    pub fn serialize(&self, close: bool) -> Vec<u8> {
        let framing = match &self.chunks {
            Some(_) => "transfer-encoding: chunked".to_owned(),
            None => format!("content-length: {}", self.body.len()),
        };
        let mut head = format!(
            "HTTP/1.1 {} {}\r\ncontent-type: {}\r\n{}\r\nconnection: {}\r\n",
            self.status,
            reason(self.status),
            self.content_type,
            framing,
            if close { "close" } else { "keep-alive" },
        );
        for (name, value) in &self.headers {
            head.push_str(name);
            head.push_str(": ");
            head.push_str(value);
            head.push_str("\r\n");
        }
        head.push_str("\r\n");
        let mut out = Vec::with_capacity(head.len() + self.body.len());
        out.extend_from_slice(head.as_bytes());
        match &self.chunks {
            Some(chunks) => {
                for chunk in chunks.iter().filter(|c| !c.is_empty()) {
                    out.extend_from_slice(format!("{:x}\r\n", chunk.len()).as_bytes());
                    out.extend_from_slice(chunk);
                    out.extend_from_slice(b"\r\n");
                }
                out.extend_from_slice(b"0\r\n\r\n");
            }
            None => out.extend_from_slice(&self.body),
        }
        out
    }

    /// Writes the response to `stream` in one buffered syscall. Used on
    /// the shed path (where the socket is still blocking) and by tests;
    /// reactor connections go through [`Response::serialize`] instead.
    pub fn write_to(&self, stream: &mut TcpStream, close: bool) -> io::Result<()> {
        stream.write_all(&self.serialize(close))
    }
}

fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        201 => "Created",
        204 => "No Content",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        410 => "Gone",
        413 => "Payload Too Large",
        421 => "Misdirected Request",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Status, lower-cased headers and body of one parsed response.
pub type ResponseParts = (u16, Vec<(String, String)>, Vec<u8>);

/// Client-side helper: reads one response (status, headers, body) from
/// `stream`, resuming from and leaving pipelined surplus in `buf`. Used
/// by [`crate::workload::Client`], the follower's tail loop and the
/// integration tests.
pub fn read_response(stream: &mut TcpStream, buf: &mut Vec<u8>) -> io::Result<ResponseParts> {
    let mut chunk = [0u8; 8 * 1024];
    loop {
        if let Some(head_len) = find_head_end(buf) {
            let text = std::str::from_utf8(&buf[..head_len])
                .map_err(|_| invalid("response head is not UTF-8"))?;
            let mut lines = text.split("\r\n");
            let status_line = lines.next().ok_or_else(|| invalid("empty response"))?;
            let status = status_line
                .split(' ')
                .nth(1)
                .and_then(|s| s.parse::<u16>().ok())
                .ok_or_else(|| invalid("bad status line"))?;
            let mut headers = Vec::new();
            let mut body_len = 0usize;
            for line in lines {
                if line.is_empty() {
                    continue;
                }
                if let Some((name, value)) = line.split_once(':') {
                    let name = name.trim().to_ascii_lowercase();
                    let value = value.trim().to_owned();
                    if name == "content-length" {
                        body_len = value.parse().map_err(|_| invalid("bad Content-Length"))?;
                    }
                    headers.push((name, value));
                }
            }
            let chunked = headers
                .iter()
                .any(|(n, v)| n == "transfer-encoding" && v.eq_ignore_ascii_case("chunked"));
            if chunked {
                let (body, consumed) = read_chunked_body(stream, buf, head_len, &mut chunk)?;
                buf.drain(..consumed);
                return Ok((status, headers, body));
            }
            let total = head_len + body_len;
            while buf.len() < total {
                let n = stream.read(&mut chunk)?;
                if n == 0 {
                    return Err(invalid("connection closed mid-body"));
                }
                buf.extend_from_slice(&chunk[..n]);
            }
            let body = buf[head_len..total].to_vec();
            buf.drain(..total);
            return Ok((status, headers, body));
        }
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Err(invalid("connection closed before response"));
        }
        buf.extend_from_slice(&chunk[..n]);
    }
}

/// Decodes a `Transfer-Encoding: chunked` body starting at `start` in
/// `buf`, reading more from `stream` as needed. Returns the concatenated
/// chunk data and the index in `buf` one past the terminating chunk, so
/// the caller can drain the consumed bytes while preserving pipelined
/// surplus. Trailer fields are consumed and discarded.
fn read_chunked_body(
    stream: &mut TcpStream,
    buf: &mut Vec<u8>,
    start: usize,
    scratch: &mut [u8],
) -> io::Result<(Vec<u8>, usize)> {
    let mut fill = |buf: &mut Vec<u8>| -> io::Result<()> {
        let n = stream.read(scratch)?;
        if n == 0 {
            return Err(invalid("connection closed mid-chunk"));
        }
        buf.extend_from_slice(&scratch[..n]);
        Ok(())
    };
    let mut body = Vec::new();
    let mut pos = start;
    loop {
        let line_end = loop {
            match buf[pos..].windows(2).position(|w| w == b"\r\n") {
                Some(p) => break pos + p,
                None => fill(buf)?,
            }
        };
        let size_text = std::str::from_utf8(&buf[pos..line_end])
            .map_err(|_| invalid("chunk size is not UTF-8"))?;
        let size_text = size_text.split(';').next().unwrap_or("").trim();
        let size = usize::from_str_radix(size_text, 16).map_err(|_| invalid("bad chunk size"))?;
        if body.len().saturating_add(size) > MAX_BODY {
            return Err(invalid("chunked body too large"));
        }
        pos = line_end + 2;
        if size == 0 {
            // Trailer section: lines until an empty one.
            loop {
                let trailer_end = loop {
                    match buf[pos..].windows(2).position(|w| w == b"\r\n") {
                        Some(p) => break pos + p,
                        None => fill(buf)?,
                    }
                };
                let empty = trailer_end == pos;
                pos = trailer_end + 2;
                if empty {
                    return Ok((body, pos));
                }
            }
        }
        while buf.len() < pos + size + 2 {
            fill(buf)?;
        }
        body.extend_from_slice(&buf[pos..pos + size]);
        if &buf[pos + size..pos + size + 2] != b"\r\n" {
            return Err(invalid("chunk data not CRLF-terminated"));
        }
        pos += size + 2;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn head_end_detection() {
        assert_eq!(find_head_end(b"GET / HTTP/1.1\r\n\r\n"), Some(18));
        assert_eq!(find_head_end(b"GET / HTTP/1.1\r\n"), None);
    }

    #[test]
    fn parse_head_extracts_query_and_headers() {
        let (req, body_len) = parse_head(
            b"POST /validate?engine=parallel&x=a%20b HTTP/1.1\r\n\
              Host: localhost\r\nContent-Length: 12\r\n\r\n",
        )
        .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/validate");
        assert_eq!(req.query_param("engine"), Some("parallel"));
        assert_eq!(req.query_param("x"), Some("a b"));
        assert_eq!(req.header("host"), Some("localhost"));
        assert_eq!(body_len, 12);
    }

    #[test]
    fn malformed_heads_are_rejected() {
        assert!(parse_head(b"nonsense\r\n\r\n").is_err());
        assert!(parse_head(b"GET / SPDY/9\r\n\r\n").is_err());
        assert!(parse_head(b"GET / HTTP/1.1\r\nContent-Length: pony\r\n\r\n").is_err());
    }

    #[test]
    fn parse_buffered_resumes_and_leaves_surplus() {
        let wire = b"POST /x HTTP/1.1\r\nContent-Length: 5\r\n\r\nhelloGET /y HTTP/1.1\r\n\r\n";
        let mut buf = Vec::new();
        // Byte at a time: each request must surface exactly when its last
        // byte arrives, never on a shorter prefix.
        let mut parsed = Vec::new();
        for (i, b) in wire.iter().enumerate() {
            buf.push(*b);
            if let Some(req) = parse_buffered(&mut buf).unwrap() {
                parsed.push((i, req));
            }
        }
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed[0].0, 43); // "POST /x … hello" is 44 bytes
        assert_eq!(parsed[0].1.path, "/x");
        assert_eq!(parsed[0].1.body, b"hello");
        assert_eq!(parsed[1].0, wire.len() - 1);
        assert_eq!(parsed[1].1.method, "GET");
        assert_eq!(parsed[1].1.path, "/y");
        assert!(buf.is_empty());
    }

    #[test]
    fn parse_buffered_rejects_oversized_head() {
        let mut buf = vec![b'A'; MAX_HEAD + 8];
        assert!(parse_buffered(&mut buf).is_err());
    }

    #[test]
    fn serialize_matches_content_length_framing() {
        let bytes = Response::json(200, "{}").serialize(false);
        let text = String::from_utf8(bytes).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("content-length: 2\r\n"));
        assert!(text.contains("connection: keep-alive\r\n"));
        assert!(text.ends_with("\r\n\r\n{}"));
    }

    #[test]
    fn serialize_chunked_frames_each_chunk() {
        let bytes = Response::chunked(200, vec![b"abc".to_vec(), Vec::new(), b"defgh".to_vec()])
            .serialize(false)
            .into_iter()
            .collect::<Vec<u8>>();
        let text = String::from_utf8(bytes).unwrap();
        assert!(text.contains("transfer-encoding: chunked\r\n"));
        assert!(!text.contains("content-length"));
        // Empty chunks are dropped: a zero-size chunk terminates the
        // stream, and only the final terminator may do that.
        assert!(text.ends_with("\r\n\r\n3\r\nabc\r\n5\r\ndefgh\r\n0\r\n\r\n"));
    }

    #[test]
    fn chunked_round_trip_over_a_socket() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let payload: Vec<Vec<u8>> = (0u8..5).map(|i| vec![i; 64 * i as usize + 1]).collect();
        let expected: Vec<u8> = payload.iter().flatten().copied().collect();
        let wire = Response::chunked(200, payload)
            .with_header("x-wal-next-from", "42")
            .serialize(false);
        let server = std::thread::spawn(move || {
            let (mut sock, _) = listener.accept().unwrap();
            // Dribble the bytes to exercise resumable chunk decoding.
            for piece in wire.chunks(7) {
                sock.write_all(piece).unwrap();
                sock.flush().unwrap();
            }
        });
        let mut sock = TcpStream::connect(addr).unwrap();
        let mut buf = Vec::new();
        let (status, headers, body) = read_response(&mut sock, &mut buf).unwrap();
        server.join().unwrap();
        assert_eq!(status, 200);
        assert_eq!(body, expected);
        assert!(headers
            .iter()
            .any(|(n, v)| n == "x-wal-next-from" && v == "42"));
        assert!(buf.is_empty(), "no surplus bytes after the terminator");
    }
}
