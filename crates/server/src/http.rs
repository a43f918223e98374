//! A deliberately small HTTP/1.1 layer over `std::net::TcpStream`.
//!
//! One request per connection (`Connection: close`), bodies sized by
//! `Content-Length`, no keep-alive. The one extension beyond that is
//! server-to-client `Transfer-Encoding: chunked`, which the coordinator
//! uses to stream campaign progress lines as shards land. That subset is
//! all the campaign service needs, and it keeps the crate std-only.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Largest request body the server accepts (a merge of many shard ids is
/// tiny; campaign specs are smaller still).
pub const MAX_BODY: usize = 1 << 26;

/// One parsed request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// The method verb (`GET`, `POST`, …), as sent.
    pub method: String,
    /// The request path (query strings are not split off; the service
    /// does not use them).
    pub path: String,
    /// The body, empty when no `Content-Length` was sent.
    pub body: String,
}

/// A socket whose reads and writes all end by one instant: before each
/// call the socket timeout shrinks to the time left, so a peer that
/// trickles bytes cannot stretch a request (or a reply) past the
/// deadline the way it can stretch a per-call timeout.
pub struct Deadline<'a> {
    stream: &'a TcpStream,
    until: Instant,
}

impl<'a> Deadline<'a> {
    /// A deadline `timeout` from now.
    pub fn after(stream: &'a TcpStream, timeout: Duration) -> Deadline<'a> {
        Deadline {
            stream,
            until: Instant::now() + timeout,
        }
    }

    /// The time left, or a `TimedOut` error once there is none.
    fn left(&self) -> std::io::Result<Duration> {
        match self.until.checked_duration_since(Instant::now()) {
            Some(left) if !left.is_zero() => Ok(left),
            _ => Err(std::io::ErrorKind::TimedOut.into()),
        }
    }
}

impl Read for Deadline<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        self.stream.set_read_timeout(Some(self.left()?))?;
        (&mut &*self.stream).read(buf)
    }
}

impl Write for Deadline<'_> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.stream.set_write_timeout(Some(self.left()?))?;
        (&mut &*self.stream).write(buf)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        (&mut &*self.stream).flush()
    }
}

/// Read one request from the stream (wrap it in a [`Deadline`] to bound
/// the whole request, not just each read).
///
/// # Errors
///
/// Fails on I/O errors, a malformed request line, a non-numeric or
/// oversized `Content-Length`, or a body that is not UTF-8.
pub fn read_request(stream: impl Read) -> std::io::Result<Request> {
    let bad = |reason: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, reason);
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    reader.read_line(&mut line)?;
    let mut parts = line.split_whitespace();
    let method = parts.next().ok_or_else(|| bad("empty request line"))?;
    let path = parts
        .next()
        .ok_or_else(|| bad("request line has no path"))?;
    let request = Request {
        method: method.to_string(),
        path: path.to_string(),
        body: String::new(),
    };
    let mut content_length = 0usize;
    loop {
        let mut header = String::new();
        if reader.read_line(&mut header)? == 0 {
            return Err(bad("connection closed inside headers"));
        }
        let header = header.trim_end();
        if header.is_empty() {
            break;
        }
        if let Some((name, value)) = header.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value
                    .trim()
                    .parse()
                    .map_err(|_| bad("bad content-length"))?;
                if content_length > MAX_BODY {
                    return Err(bad("body too large"));
                }
            }
        }
    }
    if content_length == 0 {
        return Ok(request);
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body)?;
    Ok(Request {
        body: String::from_utf8(body).map_err(|_| bad("body is not UTF-8"))?,
        ..request
    })
}

/// The reason phrase for the status codes the service emits.
fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Write one JSON response and flush it. The connection is closed by the
/// caller dropping the stream.
///
/// # Errors
///
/// Fails on I/O errors.
pub fn write_response(stream: &mut impl Write, status: u16, body: &str) -> std::io::Result<()> {
    write_response_with(stream, status, &[], body)
}

/// [`write_response`] with extra response headers (each a `(name, value)`
/// pair, e.g. `("retry-after", "2")` on a 503).
///
/// # Errors
///
/// Fails on I/O errors.
pub fn write_response_with(
    stream: &mut impl Write,
    status: u16,
    headers: &[(&str, &str)],
    body: &str,
) -> std::io::Result<()> {
    let mut head = format!("HTTP/1.1 {status} {}\r\n", reason(status));
    for (name, value) in headers {
        let _ = std::fmt::Write::write_fmt(&mut head, format_args!("{name}: {value}\r\n"));
    }
    let _ = std::fmt::Write::write_fmt(
        &mut head,
        format_args!(
            "content-type: application/json\r\ncontent-length: {}\r\nconnection: close\r\n\r\n",
            body.len()
        ),
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

/// Start a chunked response: status line plus
/// `Transfer-Encoding: chunked` headers, no body yet. Follow with any
/// number of [`write_chunk`] calls and one [`finish_chunks`].
///
/// # Errors
///
/// Fails on I/O errors.
pub fn write_chunked_head(stream: &mut TcpStream, status: u16) -> std::io::Result<()> {
    let head = format!(
        "HTTP/1.1 {status} {}\r\ncontent-type: application/json\r\n\
         transfer-encoding: chunked\r\nconnection: close\r\n\r\n",
        reason(status),
    );
    stream.write_all(head.as_bytes())?;
    stream.flush()
}

/// Write one chunk of a chunked response and flush it so the client sees
/// it immediately. Empty data is skipped (a zero-length chunk would
/// terminate the stream).
///
/// # Errors
///
/// Fails on I/O errors.
pub fn write_chunk(stream: &mut TcpStream, data: &str) -> std::io::Result<()> {
    if data.is_empty() {
        return Ok(());
    }
    stream.write_all(format!("{:x}\r\n", data.len()).as_bytes())?;
    stream.write_all(data.as_bytes())?;
    stream.write_all(b"\r\n")?;
    stream.flush()
}

/// Terminate a chunked response (the zero-length chunk).
///
/// # Errors
///
/// Fails on I/O errors.
pub fn finish_chunks(stream: &mut TcpStream) -> std::io::Result<()> {
    stream.write_all(b"0\r\n\r\n")?;
    stream.flush()
}

/// Write one request onto a client stream and flush it.
///
/// # Errors
///
/// Fails on I/O errors.
pub fn write_request(
    stream: &mut TcpStream,
    method: &str,
    path: &str,
    body: &str,
) -> std::io::Result<()> {
    let head = format!(
        "{method} {path} HTTP/1.1\r\nhost: verifd\r\ncontent-type: application/json\r\n\
         content-length: {}\r\nconnection: close\r\n\r\n",
        body.len(),
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

/// One parsed response: status, lower-cased headers, full body (chunked
/// bodies arrive reassembled).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// The status code.
    pub status: u16,
    /// All response headers, names lower-cased.
    pub headers: Vec<(String, String)>,
    /// The body (chunked transfer decoded).
    pub body: String,
}

impl Response {
    /// Look up a header by (case-insensitive) name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }
}

/// Read one response, invoking `on_chunk` with each transfer chunk as it
/// arrives (for fixed-length and read-to-close bodies, `on_chunk` fires
/// once with the whole body). The returned [`Response`] still carries the
/// reassembled body.
///
/// # Errors
///
/// Fails on I/O errors, a malformed status line, `Content-Length` or
/// chunk framing.
pub fn read_response_streaming(
    stream: &TcpStream,
    on_chunk: &mut dyn FnMut(&str),
) -> std::io::Result<Response> {
    let bad = |reason: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, reason);
    let utf8 = |buf: Vec<u8>| String::from_utf8(buf).map_err(|_| bad("body is not UTF-8"));
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut line = String::new();
    reader.read_line(&mut line)?;
    let status: u16 = line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad("bad status line"))?;
    let mut headers = Vec::new();
    let mut content_length: Option<usize> = None;
    let mut chunked = false;
    loop {
        let mut header = String::new();
        if reader.read_line(&mut header)? == 0 {
            return Err(bad("connection closed inside headers"));
        }
        let header = header.trim_end();
        if header.is_empty() {
            break;
        }
        if let Some((name, value)) = header.split_once(':') {
            let name = name.to_ascii_lowercase();
            let value = value.trim().to_string();
            if name == "content-length" {
                content_length = Some(value.parse().map_err(|_| bad("bad content-length"))?);
            }
            if name == "transfer-encoding" && value.eq_ignore_ascii_case("chunked") {
                chunked = true;
            }
            headers.push((name, value));
        }
    }
    let body = if chunked {
        let mut body = String::new();
        loop {
            let mut size_line = String::new();
            if reader.read_line(&mut size_line)? == 0 {
                return Err(bad("connection closed inside chunk framing"));
            }
            let size =
                usize::from_str_radix(size_line.trim(), 16).map_err(|_| bad("bad chunk size"))?;
            let mut chunk = vec![0u8; size + 2];
            reader.read_exact(&mut chunk)?;
            if &chunk[size..] != b"\r\n" {
                return Err(bad("chunk missing terminator"));
            }
            chunk.truncate(size);
            if size == 0 {
                break;
            }
            let chunk = utf8(chunk)?;
            on_chunk(&chunk);
            body.push_str(&chunk);
        }
        body
    } else {
        let buf = match content_length {
            Some(n) => {
                let mut buf = vec![0u8; n];
                reader.read_exact(&mut buf)?;
                buf
            }
            // No length: the server closes the connection after the body.
            None => {
                let mut buf = Vec::new();
                reader.read_to_end(&mut buf)?;
                buf
            }
        };
        let body = utf8(buf)?;
        if !body.is_empty() {
            on_chunk(&body);
        }
        body
    };
    Ok(Response {
        status,
        headers,
        body,
    })
}
