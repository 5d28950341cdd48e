//! The farm's live observability and lifecycle endpoint: a zero-dependency
//! HTTP server exposing `/metrics` (Prometheus text exposition), `/status`
//! (deterministic JSON of per-tenant state), and `/healthz` over a plain
//! `std::net::TcpListener`, plus the dynamic tenant lifecycle API —
//! `POST /tenants` (admit a tenant mid-run; 429 over capacity) and
//! `DELETE /tenants/<id>` (graceful drain).
//!
//! The server is deliberately tiny: one thread, blocking per-request I/O
//! with short deadlines, `Connection: close` semantics. It exists so a
//! running `sgml_processor serve --status-addr …` can be scraped by
//! Prometheus, watched by `sgml_processor watch`, and administered while
//! thousands of tenants soak — not to be a general web server. Hostile or
//! malformed input (oversized request heads, truncated headers, unknown
//! methods) is answered with a best-effort 4xx and the connection closed;
//! the accept loop itself never panics or wedges on a bad client.

use crate::{AdmitRejected, FarmShared};
use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::time::{Duration, Instant};

/// How long a request head may take to arrive, counted from accept, and a
/// response to be written before the connection is abandoned. Keeps a
/// stuck or dripping client from wedging the endpoint.
const IO_TIMEOUT: Duration = Duration::from_millis(500);

/// How often the accept loop re-checks the farm's shutdown flag.
const ACCEPT_POLL: Duration = Duration::from_millis(10);

/// Largest request head (request line + headers) accepted before the
/// request is rejected as oversized.
const MAX_REQUEST_HEAD: usize = 8192;

const TEXT_PLAIN: &str = "text/plain; charset=utf-8";
const APP_JSON: &str = "application/json";

/// A bound (but not yet serving) status endpoint.
///
/// Binding is separated from serving so callers can bind port 0, read the
/// kernel-assigned [`local_addr`](StatusServer::local_addr), and only then
/// start the farm — the pattern the tests and the CLI's `--status-addr`
/// share.
#[derive(Debug)]
pub struct StatusServer {
    listener: TcpListener,
    addr: SocketAddr,
}

impl StatusServer {
    /// Binds the endpoint to `addr` (e.g. `127.0.0.1:9644`, or `…:0` for a
    /// kernel-assigned port).
    ///
    /// # Errors
    ///
    /// Propagates the bind failure (address in use, bad address, …).
    pub fn bind(addr: &str) -> std::io::Result<StatusServer> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        Ok(StatusServer { listener, addr })
    }

    /// The address the endpoint actually listens on.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }
}

/// Serves requests until the farm signals shutdown. Runs on its own thread
/// inside `run_farm`'s scope.
pub(crate) fn serve(server: StatusServer, shared: &FarmShared) {
    if server.listener.set_nonblocking(true).is_err() {
        return;
    }
    while !shared.is_shutdown() {
        match server.listener.accept() {
            Ok((stream, _)) => handle(stream, shared),
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(ACCEPT_POLL);
            }
            Err(_) => std::thread::sleep(ACCEPT_POLL),
        }
    }
}

/// The outcome of reading one request head off a connection.
enum RequestHead {
    /// A complete head (terminated by a blank line) arrived.
    Complete(String),
    /// The head exceeded [`MAX_REQUEST_HEAD`] without terminating.
    Oversized,
    /// The client sent something but hung up, or ran out of time, mid-head.
    Truncated,
    /// The client connected and went away without sending a byte.
    Empty,
}

fn handle(mut stream: TcpStream, shared: &FarmShared) {
    let deadline = Instant::now() + IO_TIMEOUT;
    if stream.set_nonblocking(false).is_err() {
        return;
    }
    let _ = stream.set_write_timeout(Some(IO_TIMEOUT));
    let head = match read_request_head(&mut stream, deadline) {
        RequestHead::Complete(head) => head,
        RequestHead::Oversized => {
            respond(
                &mut stream,
                "431 Request Header Fields Too Large",
                TEXT_PLAIN,
                "request head too large\n",
            );
            return;
        }
        RequestHead::Truncated => {
            respond(
                &mut stream,
                "400 Bad Request",
                TEXT_PLAIN,
                "truncated request\n",
            );
            return;
        }
        RequestHead::Empty => return,
    };
    let request_line = head.lines().next().unwrap_or("").trim();
    let mut parts = request_line.split_whitespace();
    let method = parts.next().unwrap_or("");
    let Some(path) = parts.next() else {
        respond(
            &mut stream,
            "400 Bad Request",
            TEXT_PLAIN,
            "malformed request line\n",
        );
        return;
    };
    let (status, content_type, body) = route(method, path, shared);
    respond(&mut stream, status, content_type, &body);
}

/// Maps one parsed request onto a response triple.
fn route(method: &str, path: &str, shared: &FarmShared) -> (&'static str, &'static str, String) {
    let not_found = || ("404 Not Found", TEXT_PLAIN, "not found\n".to_string());
    match method {
        "GET" => match path {
            "/metrics" => (
                "200 OK",
                "text/plain; version=0.0.4; charset=utf-8",
                shared.metrics_text(),
            ),
            "/status" => ("200 OK", APP_JSON, shared.status_json()),
            "/healthz" => ("200 OK", TEXT_PLAIN, "ok\n".to_string()),
            _ => not_found(),
        },
        "POST" => match path {
            "/tenants" => match shared.admit() {
                Ok(tenant) => (
                    "201 Created",
                    APP_JSON,
                    format!("{{\"tenant\":{tenant}}}\n"),
                ),
                Err(AdmitRejected::AtCapacity) => (
                    "429 Too Many Requests",
                    TEXT_PLAIN,
                    "farm at tenant capacity\n".to_string(),
                ),
                Err(AdmitRejected::Closed) => (
                    "503 Service Unavailable",
                    TEXT_PLAIN,
                    "farm is finishing; admissions closed\n".to_string(),
                ),
            },
            _ => not_found(),
        },
        "DELETE" => match path.strip_prefix("/tenants/") {
            Some(id) => match id.parse::<usize>() {
                Ok(tenant) if shared.drain(tenant) => (
                    "202 Accepted",
                    APP_JSON,
                    format!("{{\"tenant\":{tenant},\"draining\":true}}\n"),
                ),
                Ok(_) => (
                    "404 Not Found",
                    TEXT_PLAIN,
                    "unknown or already-terminal tenant\n".to_string(),
                ),
                Err(_) => (
                    "400 Bad Request",
                    TEXT_PLAIN,
                    "tenant id must be a non-negative integer\n".to_string(),
                ),
            },
            None => not_found(),
        },
        _ => (
            "405 Method Not Allowed",
            TEXT_PLAIN,
            "method not allowed\n".to_string(),
        ),
    }
}

fn respond(stream: &mut TcpStream, status: &str, content_type: &str, body: &str) {
    let _ = write!(
        stream,
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    let _ = stream.flush();
}

/// Reads one request head off the connection by `deadline`, classifying
/// malformed input instead of guessing at it.
fn read_request_head(stream: &mut TcpStream, deadline: Instant) -> RequestHead {
    let mut buf = Vec::with_capacity(512);
    let mut chunk = [0u8; 512];
    loop {
        // Each read waits only for what is left of the one deadline, so a
        // client that drips its head cannot hold the endpoint past it.
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() || stream.set_read_timeout(Some(left)).is_err() {
            break;
        }
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => {
                buf.extend_from_slice(&chunk[..n]);
                if buf.windows(4).any(|w| w == b"\r\n\r\n") {
                    return RequestHead::Complete(String::from_utf8_lossy(&buf).into_owned());
                }
                if buf.len() > MAX_REQUEST_HEAD {
                    return RequestHead::Oversized;
                }
            }
            Err(_) => break,
        }
    }
    if buf.is_empty() {
        RequestHead::Empty
    } else {
        RequestHead::Truncated
    }
}

/// Sends one bodyless HTTP/1.1 request to a status endpoint and returns the
/// numeric status code plus the response body. The building block for the
/// lifecycle API clients (`POST /tenants`, `DELETE /tenants/<id>`) and for
/// the hostile-input tests.
///
/// # Errors
///
/// I/O errors propagate; a response without a valid status line or header
/// terminator maps to [`std::io::ErrorKind::InvalidData`].
pub fn http_request(addr: &str, method: &str, path: &str) -> std::io::Result<(u16, String)> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(5)))?;
    stream.set_write_timeout(Some(Duration::from_secs(5)))?;
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n"
    )?;
    stream.flush()?;
    let mut response = String::new();
    stream.read_to_string(&mut response)?;
    let bad = |what: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, what.to_string());
    let (head, body) = response
        .split_once("\r\n\r\n")
        .ok_or_else(|| bad("response without header terminator"))?;
    let status_line = head.lines().next().unwrap_or("");
    let code = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|c| c.parse::<u16>().ok())
        .ok_or_else(|| bad(&format!("malformed status line: {status_line}")))?;
    Ok((code, body.to_string()))
}

/// Fetches `path` from a status endpoint with a minimal HTTP/1.1 GET and
/// returns the response body. Shared by the `watch` dashboard and the tests.
///
/// # Errors
///
/// I/O errors propagate; a non-200 status or a malformed response maps to
/// [`std::io::ErrorKind::InvalidData`].
pub fn http_get(addr: &str, path: &str) -> std::io::Result<String> {
    let (code, body) = http_request(addr, "GET", path)?;
    if code != 200 {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("unexpected status: {code}"),
        ));
    }
    Ok(body)
}
