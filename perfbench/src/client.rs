//! A minimal HTTP/1.1 client for the sweep daemon that timestamps each
//! phase of an exchange: connect, the `accepted` handshake, the first
//! and last `progress` events, and the end of the stream.

use ctcp_telemetry::json::Value;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::Instant;

/// One request/response exchange, times in ms from before `connect`.
#[derive(Debug, Clone, Default)]
pub struct Exchange {
    /// HTTP status.
    pub status: u16,
    /// Time to establish the connection, µs.
    pub connect_us: f64,
    /// The `accepted` handshake arrived.
    pub accepted_ms: Option<f64>,
    /// The first `progress` event arrived.
    pub first_progress_ms: Option<f64>,
    /// The last `progress` event arrived.
    pub last_progress_ms: Option<f64>,
    /// Summed `took_s` of the `progress` events: pool-worker time.
    pub cells_busy_s: f64,
    /// The response was complete.
    pub total_ms: f64,
    /// Resume token from the handshake.
    pub token: Option<String>,
    /// The terminal `result` event.
    pub result: Option<Value>,
    /// The body of a non-streamed response.
    pub body: String,
}

fn bad(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_string())
}

fn read_line(r: &mut impl BufRead) -> io::Result<String> {
    let mut line = String::new();
    if r.read_line(&mut line)? == 0 {
        return Err(bad("connection closed mid-response"));
    }
    Ok(line.trim_end_matches(['\r', '\n']).to_string())
}

/// Sends one request and reads the whole response.
pub fn exchange(addr: &str, method: &str, path: &str, body: &str) -> io::Result<Exchange> {
    let t0 = Instant::now();
    let ms = |t0: Instant| t0.elapsed().as_secs_f64() * 1e3;
    let stream = TcpStream::connect(addr)?;
    let mut ex = Exchange {
        connect_us: t0.elapsed().as_secs_f64() * 1e6,
        ..Exchange::default()
    };
    stream.set_nodelay(true)?;
    let mut w = stream.try_clone()?;
    write!(
        w,
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )?;
    w.flush()?;

    let mut r = BufReader::new(stream);
    let status = read_line(&mut r)?;
    ex.status = status
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad("malformed status line"))?;
    let mut chunked = false;
    let mut length = None;
    loop {
        let line = read_line(&mut r)?;
        if line.is_empty() {
            break;
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| bad("malformed header"))?;
        let name = name.trim().to_ascii_lowercase();
        if name == "transfer-encoding" && value.trim().eq_ignore_ascii_case("chunked") {
            chunked = true;
        } else if name == "content-length" {
            length = value.trim().parse::<usize>().ok();
        }
    }
    if !chunked {
        let mut buf = Vec::new();
        match length {
            Some(n) => {
                buf.resize(n, 0);
                r.read_exact(&mut buf)?;
            }
            None => {
                r.read_to_end(&mut buf)?;
            }
        }
        ex.body = String::from_utf8_lossy(&buf).into_owned();
        ex.total_ms = ms(t0);
        return Ok(ex);
    }
    loop {
        let size = read_line(&mut r)?;
        let size = usize::from_str_radix(size.split(';').next().unwrap_or("").trim(), 16)
            .map_err(|_| bad("bad chunk size"))?;
        if size == 0 {
            while !read_line(&mut r)?.is_empty() {}
            break;
        }
        let mut chunk = vec![0u8; size + 2];
        r.read_exact(&mut chunk)?;
        let at = ms(t0);
        for line in String::from_utf8_lossy(&chunk[..size]).lines() {
            let Ok(event) = Value::parse(line) else {
                continue;
            };
            match event.get("event").and_then(Value::as_str) {
                Some("accepted") => {
                    ex.accepted_ms = Some(at);
                    ex.token = event
                        .get("token")
                        .and_then(Value::as_str)
                        .map(str::to_string);
                }
                Some("progress") => {
                    ex.first_progress_ms.get_or_insert(at);
                    ex.last_progress_ms = Some(at);
                    ex.cells_busy_s += event.get("took_s").and_then(Value::as_f64).unwrap_or(0.0);
                }
                Some("result") => ex.result = Some(event),
                _ => {}
            }
        }
    }
    ex.total_ms = ms(t0);
    Ok(ex)
}
