//! Minimal HTTP/1.1 gateway over the same request semantics as the
//! binary frame protocol — `curl`-able frame submission and manager-event
//! injection, flowd-style.
//!
//! Routes (all responses are JSON, `Connection: close`):
//!
//! | route | maps to |
//! |-------|---------|
//! | `GET  /healthz` | liveness probe |
//! | `GET  /metrics` | Prometheus text exposition ([`crate::telemetry`]) — the one non-JSON route |
//! | `GET  /stats[?graph=N]` | [`Request::Stats`] |
//! | `POST /spawn?app=pip1[&depth=5][&backlog=32]` | [`Request::Spawn`] |
//! | `POST /submit?graph=N&frames=K` | [`Request::Submit`] — response carries `accepted` (admission control) |
//! | `POST /inject?graph=N&queue=mq&event=flip[&payload=0]` | [`Request::Inject`] |
//! | `POST /drain?graph=N` | [`Request::Drain`] |
//! | `POST /shutdown` | [`Request::Shutdown`] |
//!
//! Hand-rolled on `std::net` — request line + headers are read and the
//! body (none of the routes needs one) is ignored. Not a general HTTP
//! server; just enough for scripted ingress and smoke tests.

use crate::protocol::{Request, Response, WireDiagnostic, ALL_GRAPHS};
use crate::server::Inner;
use crate::telemetry::FORMAT_PROMETHEUS;
use std::collections::HashMap;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;
use trace::json::{array, JsonObject};

/// A connection that sends no complete request within this window is
/// dropped — an idle client must not pin its handler thread (or delay
/// shutdown joins) indefinitely.
const HTTP_READ_TIMEOUT: Duration = Duration::from_secs(5);

pub(crate) fn accept_loop(listener: TcpListener, inner: Arc<Inner>, tcp_addr: SocketAddr) {
    // One handler thread per connection, mirroring the frame-protocol
    // front-end: a slow or idle client stalls only its own request, never
    // the accept loop or other clients.
    let http_addr = listener.local_addr().ok();
    let mut joins = Vec::new();
    for conn in listener.incoming() {
        if inner.stop.load(Ordering::SeqCst) {
            break;
        }
        crate::server::reap_finished(&mut joins);
        if let Ok(stream) = conn {
            let inner = Arc::clone(&inner);
            if let Ok(j) = std::thread::Builder::new()
                .name("serve-http-conn".into())
                .spawn(move || {
                    let _ = handle(stream, &inner);
                    // The handler that carried a shutdown request pokes
                    // its own accept loop awake so it can exit.
                    if inner.stop.load(Ordering::SeqCst) {
                        if let Some(addr) = http_addr {
                            let _ = TcpStream::connect(addr);
                        }
                    }
                })
            {
                joins.push(j);
            }
        }
    }
    // Unblock the frame-protocol accept loop so shutdown initiated over
    // HTTP propagates (and vice versa — poking an already-closed
    // listener is harmless).
    let _ = TcpStream::connect(tcp_addr);
    // Handlers terminate on their own: each reads with a timeout and a
    // connection serves exactly one request.
    for j in joins {
        let _ = j.join();
    }
}

fn parse_query(query: &str) -> HashMap<&str, &str> {
    query
        .split('&')
        .filter_map(|kv| kv.split_once('='))
        .collect()
}

fn param<T: std::str::FromStr>(
    q: &HashMap<&str, &str>,
    key: &str,
    default: Option<T>,
) -> Result<T, String> {
    match q.get(key) {
        Some(v) => v.parse().map_err(|_| format!("bad parameter '{key}'")),
        None => default.ok_or(format!("missing parameter '{key}'")),
    }
}

fn error_json(msg: &str) -> String {
    JsonObject::new().str("error", msg).build()
}

/// Render analyzer diagnostics as the 422 response body.
fn reject_json(diags: &[WireDiagnostic]) -> String {
    let items = diags.iter().map(|d| {
        JsonObject::new()
            .str("severity", if d.is_error() { "error" } else { "warning" })
            .str("code", &d.code)
            .str("message", &d.message)
            .build()
    });
    JsonObject::new()
        .str("error", "rejected by static analysis")
        .raw("diagnostics", &array(items))
        .build()
}

/// Unwrap a protocol response into its payload, or the `(status, body)`
/// to answer with: server errors are 400, analyzer rejections 422.
fn expect_ok(resp: Response) -> Result<Vec<u8>, (u16, String)> {
    match resp {
        Response::Ok(b) => Ok(b),
        Response::Err(e) => Err((400, error_json(&e))),
        Response::Rejected(diags) => Err((422, reject_json(&diags))),
    }
}

const CT_JSON: &str = "application/json";
/// Prometheus text exposition format 0.0.4 — what scrapers negotiate.
const CT_PROM: &str = "text/plain; version=0.0.4; charset=utf-8";

/// Translate one HTTP request into a protocol [`Request`], run it, and
/// render the body. Returns `(http status, content type, body)` — every
/// route is JSON except `GET /metrics`, which serves Prometheus text.
fn route(method: &str, path: &str, query: &str, inner: &Inner) -> (u16, &'static str, String) {
    if (method, path) == ("GET", "/metrics") {
        return match inner.telemetry_payload(FORMAT_PROMETHEUS) {
            Ok(body) => (200, CT_PROM, body),
            Err(crate::server::Refusal::Error(e)) => (400, CT_JSON, error_json(&e)),
            Err(crate::server::Refusal::Rejected(d)) => (422, CT_JSON, reject_json(&d)),
        };
    }
    let q = parse_query(query);
    let bad = |e: String| (400u16, error_json(&e));
    let result: Result<String, (u16, String)> = (|| match (method, path) {
        ("GET", "/healthz") => Ok("{\"ok\":true}".to_string()),
        ("GET", "/stats") => {
            let graph = param(&q, "graph", Some(ALL_GRAPHS)).map_err(bad)?;
            let json = expect_ok(inner.handle(Request::Stats { graph }))?;
            Ok(String::from_utf8_lossy(&json).into_owned())
        }
        ("POST", "/spawn") => {
            let req = Request::Spawn {
                app: param::<String>(&q, "app", None).map_err(bad)?,
                pipeline_depth: param(&q, "depth", Some(5)).map_err(bad)?,
                max_backlog: param(&q, "backlog", Some(32)).map_err(bad)?,
            };
            let b = expect_ok(inner.handle(req))?;
            match <[u8; 4]>::try_from(b.as_slice()) {
                Ok(id) => Ok(format!("{{\"graph\":{}}}", u32::from_be_bytes(id))),
                Err(_) => Err(bad("malformed spawn response".into())),
            }
        }
        ("POST", "/submit") => {
            let req = Request::Submit {
                graph: param(&q, "graph", None).map_err(bad)?,
                frames: param(&q, "frames", None).map_err(bad)?,
            };
            let b = expect_ok(inner.handle(req))?;
            match <[u8; 8]>::try_from(b.as_slice()) {
                Ok(n) => Ok(format!("{{\"accepted\":{}}}", u64::from_be_bytes(n))),
                Err(_) => Err(bad("malformed submit response".into())),
            }
        }
        ("POST", "/inject") => {
            let req = Request::Inject {
                graph: param(&q, "graph", None).map_err(bad)?,
                queue: param::<String>(&q, "queue", None).map_err(bad)?,
                kind: param::<String>(&q, "event", None).map_err(bad)?,
                payload: param(&q, "payload", Some(0)).map_err(bad)?,
            };
            expect_ok(inner.handle(req))?;
            Ok("{\"ok\":true}".to_string())
        }
        ("POST", "/drain") => {
            let req = Request::Drain {
                graph: param(&q, "graph", None).map_err(bad)?,
            };
            let json = expect_ok(inner.handle(req))?;
            Ok(String::from_utf8_lossy(&json).into_owned())
        }
        ("POST", "/shutdown") => {
            expect_ok(inner.handle(Request::Shutdown))?;
            Ok("{\"ok\":true}".to_string())
        }
        _ => Err(bad(format!("no route {method} {path}"))),
    })();
    match result {
        Ok(body) => (200, CT_JSON, body),
        Err((status, body)) => (status, CT_JSON, body),
    }
}

fn handle(stream: TcpStream, inner: &Inner) -> io::Result<()> {
    stream.set_read_timeout(Some(HTTP_READ_TIMEOUT))?;
    stream.set_write_timeout(Some(HTTP_READ_TIMEOUT))?;
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    reader.read_line(&mut line)?;
    let mut parts = line.split_whitespace();
    let method = parts.next().unwrap_or("").to_string();
    let target = parts.next().unwrap_or("").to_string();
    // Drain the headers; no route carries a body.
    loop {
        let mut header = String::new();
        if reader.read_line(&mut header)? == 0 || header.trim().is_empty() {
            break;
        }
    }
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p, q),
        None => (target.as_str(), ""),
    };
    let (status, content_type, body) = if method.is_empty() || target.is_empty() {
        (
            400,
            CT_JSON,
            "{\"error\":\"malformed request line\"}".to_string(),
        )
    } else {
        route(&method, path, query, inner)
    };
    let reason = match status {
        200 => "OK",
        422 => "Unprocessable Entity",
        _ => "Bad Request",
    };
    // Head and body in one write: `write!` straight onto the socket is a
    // `write` per format fragment, and each may leave as its own segment.
    let response = format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len(),
    );
    let mut stream = reader.into_inner();
    stream.write_all(response.as_bytes())?;
    stream.flush()
}
