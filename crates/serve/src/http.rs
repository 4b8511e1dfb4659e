//! A deliberately tiny blocking HTTP/1.1 endpoint.
//!
//! The workspace is offline (no hyper/tokio), and the daemon's API is
//! five read-only GET routes, so `std::net` is the whole server:
//!
//! - One thread blocks in `accept` and serves nothing itself. It
//!   hands each connection to a handler thread of its own, at most
//!   [`MAX_IN_FLIGHT`] in flight; beyond that the accept thread
//!   answers `429 Too Many Requests` with `Retry-After`. A handler
//!   thread is spawned whenever every one is busy, and kept for later
//!   connections, so a connection never waits behind another.
//! - Each request has one deadline, [`REQUEST_DEADLINE`] from its
//!   accept, covering reading the head, routing and writing. A client
//!   whose head is not in by then gets `408 Request Timeout`, so a
//!   client that trickles bytes holds one handler, never the endpoint.
//! - One request per connection (`Connection: close`); bodies are
//!   pre-rendered by the router.
//!
//! The server never produces a 5xx status, and [`Status`] has no
//! variant for one: degradation and readiness are body-level fields,
//! malformed requests get 4xx, and an unroutable path gets 404. That
//! invariant is part of the serve contract and is enforced by the
//! `lpr-bench serve` soak.

use std::io::{ErrorKind, Read, Write};
use std::net::{Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

/// Connections served at once. The accept thread answers 429 to any
/// connection beyond it.
pub const MAX_IN_FLIGHT: usize = 32;

/// Time from accept to the end of the response. A head not read by
/// then is answered 408.
pub const REQUEST_DEADLINE: Duration = Duration::from_secs(2);

/// The header line a 429 carries.
const RETRY_AFTER: &str = "Retry-After: 1\r\n";

/// Pause after a failed `accept` (e.g. out of file descriptors), so
/// the loop cannot spin.
const ACCEPT_ERROR_PAUSE: Duration = Duration::from_millis(5);

/// Every status the server emits. There is no 5xx.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Status {
    /// 200.
    Ok,
    /// 400: the request line does not parse.
    BadRequest,
    /// 404: no route for the path.
    NotFound,
    /// 405: any method but GET.
    MethodNotAllowed,
    /// 408: the head missed the request deadline.
    RequestTimeout,
    /// 429: [`MAX_IN_FLIGHT`] connections are already being served.
    TooManyRequests,
}

impl Status {
    /// The numeric status code.
    pub fn code(self) -> u16 {
        match self {
            Status::Ok => 200,
            Status::BadRequest => 400,
            Status::NotFound => 404,
            Status::MethodNotAllowed => 405,
            Status::RequestTimeout => 408,
            Status::TooManyRequests => 429,
        }
    }

    /// The reason phrase of the status line.
    pub fn reason(self) -> &'static str {
        match self {
            Status::Ok => "OK",
            Status::BadRequest => "Bad Request",
            Status::NotFound => "Not Found",
            Status::MethodNotAllowed => "Method Not Allowed",
            Status::RequestTimeout => "Request Timeout",
            Status::TooManyRequests => "Too Many Requests",
        }
    }
}

/// A routed response: status plus pre-rendered body.
pub struct Response {
    /// HTTP status.
    pub status: Status,
    /// `Content-Type` header value.
    pub content_type: &'static str,
    /// Response body.
    pub body: String,
}

impl Response {
    /// A 200 JSON response.
    pub fn json(body: String) -> Self {
        Response { status: Status::Ok, content_type: "application/json", body }
    }

    /// A 200 plain-text response (Prometheus exposition format).
    pub fn text(body: String) -> Self {
        Response { status: Status::Ok, content_type: "text/plain; version=0.0.4", body }
    }

    /// A 404 for unroutable paths.
    pub fn not_found() -> Self {
        Response::error(Status::NotFound, "not found")
    }

    /// A JSON error body, `{"error":"<message>"}`.
    fn error(status: Status, message: &str) -> Self {
        Response {
            status,
            content_type: "application/json",
            body: format!("{{\"error\":\"{message}\"}}"),
        }
    }
}

/// Runs the accept loop until `stop` is set and a connection (any
/// connection, e.g. the one [`wake`] makes) wakes the blocking
/// `accept`. Returns once every handler has finished, each request
/// within [`REQUEST_DEADLINE`]. `route` maps a path to a [`Response`].
pub fn serve(
    listener: TcpListener,
    stop: Arc<AtomicBool>,
    route: impl Fn(&str) -> Response + Sync,
) {
    let (in_flight, handlers) = (AtomicUsize::new(0), AtomicUsize::new(0));
    let (tx, rx) = mpsc::channel::<(TcpStream, Instant, Slot)>();
    let rx = Mutex::new(rx);
    let (route, rx, in_flight, handlers) = (&route, &rx, &in_flight, &handlers);
    std::thread::scope(|scope| {
        while !stop.load(Ordering::SeqCst) {
            let stream = match listener.accept() {
                Ok((stream, _peer)) => stream,
                Err(_) => {
                    std::thread::sleep(ACCEPT_ERROR_PAUSE);
                    continue;
                }
            };
            let deadline = Instant::now() + REQUEST_DEADLINE;
            if stop.load(Ordering::SeqCst) {
                break;
            }
            // Only this thread adds to the count, so it cannot pass
            // the cap between this check and the hand-off.
            if in_flight.load(Ordering::SeqCst) >= MAX_IN_FLIGHT {
                let _ = refuse(stream, deadline);
                continue;
            }
            let slot = Slot::take(in_flight);
            // Never fewer handlers than connections in flight, so a
            // connection never waits behind another. Handlers are kept:
            // a thread per connection would hand glibc's per-thread
            // malloc arenas back and forth with the ingest workers, and
            // peak memory would grow with it.
            if handlers.load(Ordering::SeqCst) < in_flight.load(Ordering::SeqCst) {
                let alive = Slot::take(handlers);
                let _ = std::thread::Builder::new()
                    .name("lpr-serve-conn".to_string())
                    .spawn_scoped(scope, move || {
                        let _alive = alive;
                        loop {
                            // The queue's lock is released at the `;`,
                            // before the request is served.
                            let next = rx.lock().expect("no handler panics holding it").recv();
                            let Ok((stream, deadline, _slot)) = next else { break };
                            let _ = handle(stream, deadline, route);
                        }
                    });
            }
            let _ = tx.send((stream, deadline, slot));
        }
        // Closing the queue lets each handler finish and exit.
        drop(tx);
    });
}

/// Wakes a [`serve`] loop blocked in `accept` on `addr` once its stop
/// flag is set: one connection to the listener's own port, on loopback
/// when the listener is bound to an unspecified address.
pub fn wake(mut addr: SocketAddr) {
    if addr.ip().is_unspecified() {
        addr.set_ip(match addr {
            SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
            SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
        });
    }
    let _ = TcpStream::connect_timeout(&addr, REQUEST_DEADLINE);
}

/// One unit of a count, given back on drop (a panicking route
/// included): a connection in flight, or a live handler thread.
struct Slot<'a>(&'a AtomicUsize);

impl<'a> Slot<'a> {
    fn take(count: &'a AtomicUsize) -> Self {
        count.fetch_add(1, Ordering::SeqCst);
        Slot(count)
    }
}

impl Drop for Slot<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Time left before `deadline`, never zero (a zero socket timeout is
/// an error): a late 408 still gets one write, which cannot block on
/// a connection nothing was written to.
fn left(deadline: Instant) -> Duration {
    deadline.saturating_duration_since(Instant::now()).max(Duration::from_millis(1))
}

/// The over-capacity answer, written on the accept thread.
fn refuse(mut stream: TcpStream, deadline: Instant) -> std::io::Result<()> {
    stream.set_write_timeout(Some(left(deadline)))?;
    write_response(&mut stream, &Response::error(Status::TooManyRequests, "too many requests"))
}

fn handle(
    mut stream: TcpStream,
    deadline: Instant,
    route: &impl Fn(&str) -> Response,
) -> std::io::Result<()> {
    let response = match read_head(&mut stream, deadline)? {
        None => Response::error(Status::RequestTimeout, "request timeout"),
        Some(request) => match parse_request_line(&request) {
            Some(("GET", path)) => route(path),
            Some((_, _)) => Response::error(Status::MethodNotAllowed, "method not allowed"),
            None => Response::error(Status::BadRequest, "malformed request"),
        },
    };
    stream.set_write_timeout(Some(left(deadline)))?;
    write_response(&mut stream, &response)
}

/// Reads until the end of the header block (or an 8 KiB cap — the API
/// has no request bodies). `None` when `deadline` passes first.
fn read_head(stream: &mut TcpStream, deadline: Instant) -> std::io::Result<Option<String>> {
    let mut buf = Vec::with_capacity(512);
    let mut chunk = [0u8; 512];
    loop {
        if Instant::now() >= deadline {
            return Ok(None);
        }
        stream.set_read_timeout(Some(left(deadline)))?;
        let n = match stream.read(&mut chunk) {
            Ok(n) => n,
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                return Ok(None)
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        if n == 0 {
            break;
        }
        buf.extend_from_slice(&chunk[..n]);
        if buf.windows(4).any(|w| w == b"\r\n\r\n") || buf.len() > 8192 {
            break;
        }
    }
    Ok(Some(String::from_utf8_lossy(&buf).into_owned()))
}

/// `"GET /snapshot HTTP/1.1" -> ("GET", "/snapshot")`; query strings
/// are stripped (no route takes parameters).
fn parse_request_line(request: &str) -> Option<(&str, &str)> {
    let line = request.lines().next()?;
    let mut parts = line.split_whitespace();
    let method = parts.next()?;
    let target = parts.next()?;
    let path = target.split('?').next().unwrap_or(target);
    if !path.starts_with('/') {
        return None;
    }
    Some((method, path))
}

fn write_response(stream: &mut TcpStream, response: &Response) -> std::io::Result<()> {
    let head = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\n{}Connection: close\r\n\r\n",
        response.status.code(),
        response.status.reason(),
        response.content_type,
        response.body.len(),
        if response.status == Status::TooManyRequests { RETRY_AFTER } else { "" },
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(response.body.as_bytes())?;
    stream.flush()?;
    // End with a FIN before the close: when request bytes are left
    // unread (a 429, a 408), the close resets the connection, and a
    // client that has the FIN still reads the whole response.
    stream.shutdown(Shutdown::Write)
}

/// A minimal blocking GET against `addr` (test/bench helper): returns
/// `(status, body)`.
pub fn get(addr: std::net::SocketAddr, path: &str) -> std::io::Result<(u16, String)> {
    let mut stream = TcpStream::connect_timeout(&addr, Duration::from_secs(2))?;
    stream.set_read_timeout(Some(Duration::from_secs(5))).ok();
    write!(stream, "GET {path} HTTP/1.1\r\nHost: lpr\r\nConnection: close\r\n\r\n")?;
    let mut raw = String::new();
    stream.read_to_string(&mut raw)?;
    let status = raw
        .lines()
        .next()
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| {
            std::io::Error::new(std::io::ErrorKind::InvalidData, "malformed status line")
        })?;
    let body = raw.split_once("\r\n\r\n").map(|(_, b)| b.to_string()).unwrap_or_default();
    Ok((status, body))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_line_parses_and_strips_queries() {
        assert_eq!(
            parse_request_line("GET /snapshot?x=1 HTTP/1.1\r\nHost: a\r\n\r\n"),
            Some(("GET", "/snapshot"))
        );
        assert_eq!(parse_request_line("POST / HTTP/1.1\r\n"), Some(("POST", "/")));
        assert_eq!(parse_request_line("garbage"), None);
        assert_eq!(parse_request_line(""), None);
    }

    #[test]
    fn end_to_end_over_a_real_socket() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = stop.clone();
        let server = std::thread::spawn(move || {
            serve(listener, stop2, |path| match path {
                "/ping" => Response::json("{\"pong\":true}".to_string()),
                _ => Response::not_found(),
            });
        });

        let (status, body) = get(addr, "/ping").unwrap();
        assert_eq!((status, body.as_str()), (200, "{\"pong\":true}"));
        let (status, _) = get(addr, "/nope").unwrap();
        assert_eq!(status, 404);

        stop.store(true, Ordering::SeqCst);
        wake(addr);
        server.join().unwrap();
    }
}
