//! A small HTTP/1.1 client for driving `gasnub serve`. Each request goes
//! out in a single write on a `TCP_NODELAY` socket, as pooled HTTP clients
//! send them, so any stall measured is the server's.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// A parsed response.
#[derive(Debug, Clone)]
pub struct Response {
    pub status: u16,
    pub source: Option<String>,
    pub body: String,
}

/// One client connection.
pub struct Conn {
    reader: BufReader<TcpStream>,
}

impl Conn {
    pub fn open(addr: &str) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream
            .set_nodelay(true)
            .map_err(|e| format!("set TCP_NODELAY: {e}"))?;
        // A stuck server fails the run instead of hanging it.
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .map_err(|e| format!("set read timeout: {e}"))?;
        Ok(Conn {
            reader: BufReader::new(stream),
        })
    }

    /// Sends one request and reads its response. With `keep_alive` false
    /// the request asks the server to close the connection afterwards.
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        body: &str,
        keep_alive: bool,
    ) -> Result<Response, String> {
        let wire = format!(
            "{method} {path} HTTP/1.1\r\nHost: gasbench\r\nContent-Type: application/json\r\n\
             Content-Length: {}\r\nConnection: {}\r\n\r\n{body}",
            body.len(),
            if keep_alive { "keep-alive" } else { "close" }
        );
        self.reader
            .get_mut()
            .write_all(wire.as_bytes())
            .map_err(|e| format!("write {path}: {e}"))?;
        let mut line = String::new();
        self.read_line(&mut line)?;
        let status = line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| format!("bad status line {line:?}"))?;
        let mut length = None;
        let mut source = None;
        loop {
            line.clear();
            self.read_line(&mut line)?;
            let header = line.trim_end();
            if header.is_empty() {
                break;
            }
            if let Some((name, value)) = header.split_once(':') {
                let value = value.trim();
                if name.eq_ignore_ascii_case("content-length") {
                    length = value.parse::<usize>().ok();
                } else if name.eq_ignore_ascii_case("x-gasnub-source") {
                    source = Some(value.to_string());
                }
            }
        }
        let length = length.ok_or("response without Content-Length")?;
        let mut body = vec![0u8; length];
        self.reader
            .read_exact(&mut body)
            .map_err(|e| format!("read body of {path}: {e}"))?;
        let body = String::from_utf8(body).map_err(|_| "response body is not UTF-8")?;
        Ok(Response {
            status,
            source,
            body,
        })
    }

    fn read_line(&mut self, line: &mut String) -> Result<(), String> {
        match self.reader.read_line(line) {
            Ok(0) => Err("connection closed mid-response".to_string()),
            Ok(_) => Ok(()),
            Err(e) => Err(format!("read: {e}")),
        }
    }
}

/// One request on a fresh connection that closes after the response.
pub fn once(addr: &str, method: &str, path: &str, body: &str) -> Result<Response, String> {
    Conn::open(addr)?.request(method, path, body, false)
}
