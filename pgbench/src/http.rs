//! A minimal keep-alive HTTP/1.1 client: the daemon is reached only
//! through bytes on a loopback socket.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// No response takes this long on a healthy daemon; a read that does is
/// a hang and fails the run instead of stalling it.
const IO_TIMEOUT: Duration = Duration::from_secs(30);

/// Status and body of one response.
#[derive(Debug, PartialEq)]
pub struct Response {
    pub status: u16,
    pub body: Vec<u8>,
}

impl Response {
    pub fn text(&self) -> &str {
        std::str::from_utf8(&self.body).unwrap_or("<body is not UTF-8>")
    }
}

fn invalid(message: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, message)
}

/// Takes one complete `Content-Length`-framed response off the front of
/// `buf`, or returns `None` (leaving `buf` alone) while bytes are still
/// missing. Surplus bytes of a following response stay in `buf`.
pub fn take_response(buf: &mut Vec<u8>) -> io::Result<Option<Response>> {
    let Some(head_end) = buf.windows(4).position(|w| w == b"\r\n\r\n") else {
        return Ok(None);
    };
    let head = std::str::from_utf8(&buf[..head_end]).map_err(|_| invalid("head is not UTF-8"))?;
    let mut lines = head.split("\r\n");
    let status = lines
        .next()
        .and_then(|line| line.split(' ').nth(1))
        .and_then(|code| code.parse::<u16>().ok())
        .ok_or_else(|| invalid("bad status line"))?;
    let mut body_len = None;
    for line in lines {
        if let Some((name, value)) = line.split_once(':') {
            if name.trim().eq_ignore_ascii_case("content-length") {
                body_len = Some(
                    value
                        .trim()
                        .parse::<usize>()
                        .map_err(|_| invalid("bad content-length"))?,
                );
            }
        }
    }
    let body_len = body_len.ok_or_else(|| invalid("response without content-length"))?;
    let total = head_end + 4 + body_len;
    if buf.len() < total {
        return Ok(None);
    }
    let body = buf[head_end + 4..total].to_vec();
    buf.drain(..total);
    Ok(Some(Response { status, body }))
}

/// Appends one request (head and body) to `out`.
pub fn push_request(out: &mut Vec<u8>, method: &str, path: &str, body: &[u8]) {
    out.extend_from_slice(
        format!(
            "{method} {path} HTTP/1.1\r\nhost: pgbench\r\ncontent-length: {}\r\n\r\n",
            body.len()
        )
        .as_bytes(),
    );
    out.extend_from_slice(body);
}

/// One keep-alive connection.
pub struct Conn {
    stream: TcpStream,
    /// Bytes received and not yet consumed by a response.
    buf: Vec<u8>,
    /// Read scratch, kept so a call does not zero 64 KiB of stack.
    chunk: Vec<u8>,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect_timeout(&addr, IO_TIMEOUT)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(IO_TIMEOUT))?;
        stream.set_write_timeout(Some(IO_TIMEOUT))?;
        Ok(Conn {
            stream,
            buf: Vec::with_capacity(64 * 1024),
            chunk: vec![0; 64 * 1024],
        })
    }

    /// Sends pre-built request bytes and waits for the response.
    pub fn call(&mut self, request: &[u8]) -> io::Result<Response> {
        self.stream.write_all(request)?;
        loop {
            if let Some(response) = take_response(&mut self.buf)? {
                return Ok(response);
            }
            let n = self.stream.read(&mut self.chunk)?;
            if n == 0 {
                return Err(invalid("connection closed before the response ended"));
            }
            self.buf.extend_from_slice(&self.chunk[..n]);
        }
    }

    pub fn get(&mut self, path: &str) -> io::Result<Response> {
        let mut request = Vec::new();
        push_request(&mut request, "GET", path, b"");
        self.call(&request)
    }

    pub fn post(&mut self, path: &str, body: &[u8]) -> io::Result<Response> {
        let mut request = Vec::new();
        push_request(&mut request, "POST", path, body);
        self.call(&request)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ONE: &[u8] = b"HTTP/1.1 200 OK\r\ncontent-type: application/json\r\n\
        Content-Length: 5\r\nconnection: keep-alive\r\n\r\nhello";
    const TWO: &[u8] = b"HTTP/1.1 409 Conflict\r\ncontent-length: 2\r\n\r\nno";

    #[test]
    fn a_response_split_at_every_byte_boundary_parses_once_complete() {
        for cut in 0..ONE.len() {
            let mut buf = ONE[..cut].to_vec();
            assert_eq!(take_response(&mut buf).unwrap(), None, "cut {cut}");
            assert_eq!(buf.len(), cut, "an incomplete response is left in place");
            buf.extend_from_slice(&ONE[cut..]);
            let response = take_response(&mut buf).unwrap().expect("complete");
            assert_eq!((response.status, response.text()), (200, "hello"));
            assert!(buf.is_empty());
        }
    }

    #[test]
    fn coalesced_responses_come_off_one_at_a_time() {
        let mut buf = [ONE, TWO, &TWO[..10]].concat();
        assert_eq!(take_response(&mut buf).unwrap().unwrap().status, 200);
        let second = take_response(&mut buf).unwrap().unwrap();
        assert_eq!((second.status, second.text()), (409, "no"));
        assert_eq!(take_response(&mut buf).unwrap(), None);
        assert_eq!(buf, &TWO[..10]);
    }

    #[test]
    fn unframed_or_garbled_heads_are_errors() {
        assert!(take_response(&mut b"HTTP/1.1 200 OK\r\n\r\n".to_vec()).is_err());
        assert!(take_response(&mut b"nonsense\r\n\r\n".to_vec()).is_err());
    }

    #[test]
    fn requests_carry_their_length() {
        let mut out = Vec::new();
        push_request(&mut out, "POST", "/validate", b"{}");
        assert_eq!(
            out,
            b"POST /validate HTTP/1.1\r\nhost: pgbench\r\ncontent-length: 2\r\n\r\n{}"
        );
    }
}
