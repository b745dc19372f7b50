//! A deliberately small HTTP/1.1 layer over [`std::net::TcpStream`].
//!
//! The server speaks exactly the subset its JSON API needs: `GET`/`POST`
//! request lines, `Content-Length` bodies, keep-alive connections, and
//! fixed-length responses. Chunked encoding, continuations, and multi-line
//! headers are rejected as malformed — every parse failure maps to one
//! structured `400` and the connection closes, so a confused client can
//! never wedge a worker thread.

use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;

/// Largest accepted header block (request line + headers).
const MAX_HEAD_BYTES: usize = 16 * 1024;

/// Largest accepted request body.
pub const MAX_BODY_BYTES: usize = 1024 * 1024;

/// One parsed request.
#[derive(Debug)]
pub struct Request {
    /// The method, uppercased by the client (`GET`, `POST`, ...).
    pub method: String,
    /// The request target, e.g. `/v1/sweep`.
    pub path: String,
    /// Header `(name, value)` pairs; names are lowercased.
    pub headers: Vec<(String, String)>,
    /// The body, exactly `Content-Length` bytes.
    pub body: Vec<u8>,
}

impl Request {
    /// The first value of a header, by lowercase name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// Whether the client asked to keep the connection open (the
    /// HTTP/1.1 default; an explicit `Connection: close` wins).
    pub fn keep_alive(&self) -> bool {
        !self
            .header("connection")
            .is_some_and(|v| v.eq_ignore_ascii_case("close"))
    }
}

/// Why a request could not be read.
#[derive(Debug)]
pub enum ReadError {
    /// The peer closed the connection, or stayed silent past the read
    /// timeout, before sending anything — the normal end of a keep-alive
    /// session, not an error.
    Eof,
    /// The socket failed mid-read.
    Io(std::io::Error),
    /// The bytes were not a request this server accepts.
    Malformed(&'static str),
    /// The declared body exceeds [`MAX_BODY_BYTES`].
    TooLarge,
}

/// Reads one request off the stream.
///
/// # Errors
///
/// [`ReadError::Eof`] on a clean close or a read timeout before the first
/// byte; otherwise the malformed/too-large/IO variants, after which the
/// caller should answer (where possible) and drop the connection.
pub fn read_request(stream: &mut TcpStream) -> Result<Request, ReadError> {
    let mut buf: Vec<u8> = Vec::with_capacity(1024);
    let mut chunk = [0u8; 4096];
    let head_end = loop {
        if let Some(pos) = find_head_end(&buf) {
            break pos;
        }
        if buf.len() > MAX_HEAD_BYTES {
            return Err(ReadError::Malformed("header block too large"));
        }
        let n = match stream.read(&mut chunk) {
            Ok(n) => n,
            // An idle keep-alive connection that outlives the socket's read
            // timeout (`WouldBlock` on Unix, `TimedOut` on Windows) ends
            // like a clean close.
            Err(e)
                if buf.is_empty()
                    && matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) =>
            {
                return Err(ReadError::Eof)
            }
            Err(e) => return Err(ReadError::Io(e)),
        };
        if n == 0 {
            if buf.is_empty() {
                return Err(ReadError::Eof);
            }
            return Err(ReadError::Malformed("connection closed mid-header"));
        }
        buf.extend_from_slice(&chunk[..n]);
    };

    let head = std::str::from_utf8(&buf[..head_end])
        .map_err(|_| ReadError::Malformed("header block is not UTF-8"))?;
    let mut lines = head.split("\r\n");
    let request_line = lines.next().unwrap_or_default();
    let mut parts = request_line.split(' ');
    let (Some(method), Some(path), Some(version)) = (parts.next(), parts.next(), parts.next())
    else {
        return Err(ReadError::Malformed("bad request line"));
    };
    if parts.next().is_some() || !version.starts_with("HTTP/1.") {
        return Err(ReadError::Malformed("bad request line"));
    }

    let mut headers = Vec::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(ReadError::Malformed("bad header line"));
        };
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }

    let content_length = match headers.iter().find(|(k, _)| k == "content-length") {
        None => 0usize,
        Some((_, v)) => v
            .parse()
            .map_err(|_| ReadError::Malformed("bad content-length"))?,
    };
    if content_length > MAX_BODY_BYTES {
        return Err(ReadError::TooLarge);
    }

    // The header read may have pulled in part (or all) of the body.
    let mut body: Vec<u8> = buf[head_end + 4..].to_vec();
    while body.len() < content_length {
        let n = stream.read(&mut chunk).map_err(ReadError::Io)?;
        if n == 0 {
            return Err(ReadError::Malformed("connection closed mid-body"));
        }
        body.extend_from_slice(&chunk[..n]);
    }
    body.truncate(content_length);

    Ok(Request {
        method: method.to_string(),
        path: path.to_string(),
        headers,
        body,
    })
}

fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

/// One response to write: status, JSON body, and the optional
/// `X-Gasnub-Source` header the sweep endpoint uses to report where the
/// payload came from (`computed`, `coalesced`, `memory`, `disk`).
#[derive(Debug)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// The body, already rendered (canonical JSON).
    pub body: String,
    /// Value for the `X-Gasnub-Source` header, if any.
    pub source: Option<&'static str>,
}

impl Response {
    /// A 200 response with the given body.
    pub fn ok(body: String) -> Self {
        Response {
            status: 200,
            body,
            source: None,
        }
    }

    /// Attaches the payload-source header.
    pub fn with_source(mut self, source: &'static str) -> Self {
        self.source = Some(source);
        self
    }
}

fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Payload Too Large",
        500 => "Internal Server Error",
        _ => "Unknown",
    }
}

/// Writes `response`, honoring `keep_alive`.
///
/// The head and the body go out in one `write_all`: written separately, a
/// keep-alive response leaves the body waiting on the client's delayed
/// ACK of the head (Nagle), ~40 ms per request.
///
/// # Errors
///
/// Propagates socket write failures; the caller drops the connection.
pub fn write_response(
    stream: &mut impl Write,
    response: &Response,
    keep_alive: bool,
) -> std::io::Result<()> {
    let mut out = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: application/json\r\nContent-Length: {}\r\n",
        response.status,
        reason(response.status),
        response.body.len()
    );
    if let Some(source) = response.source {
        out.push_str(&format!("X-Gasnub-Source: {source}\r\n"));
    }
    out.push_str(if keep_alive {
        "Connection: keep-alive\r\n\r\n"
    } else {
        "Connection: close\r\n\r\n"
    });
    out.push_str(&response.body);
    stream.write_all(out.as_bytes())?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Records every `write` call separately.
    #[derive(Default)]
    struct CountingWriter {
        writes: Vec<Vec<u8>>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes.push(buf.to_vec());
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn write_response_issues_one_write_carrying_head_and_body() {
        let body = "{\"ok\":true}\n".to_string();
        let response = Response::ok(body.clone()).with_source("memory");
        let mut out = CountingWriter::default();
        write_response(&mut out, &response, true).unwrap();
        assert_eq!(out.writes.len(), 1, "head and body must share one write");
        let text = String::from_utf8(out.writes.remove(0)).unwrap();
        let (head, sent) = text.split_once("\r\n\r\n").unwrap();
        assert!(head.starts_with("HTTP/1.1 200 OK\r\n"), "{head}");
        assert!(head.contains(&format!("Content-Length: {}\r\n", body.len())));
        assert!(head.contains("X-Gasnub-Source: memory\r\n"));
        assert!(head.ends_with("Connection: keep-alive"), "{head}");
        assert_eq!(sent, body);
    }
}
