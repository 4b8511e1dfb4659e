//! The request path of a live daemon: a client that trickles its
//! request head holds one handler, not the endpoint; it is answered
//! 408 at the request deadline; past the in-flight cap the endpoint
//! answers 429 with `Retry-After`; a pre-rendered GET is served when it
//! arrives; and shutdown is bounded while a slow client is connected.

use lpr_serve::http::{self, MAX_IN_FLIGHT, REQUEST_DEADLINE};
use lpr_serve::{ServeConfig, Server, ServerHandle};
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Starts a daemon on an empty spool. The returned directory is the
/// test's to remove.
fn start(name: &str) -> (ServerHandle, PathBuf) {
    let root = std::env::temp_dir().join(format!("lpr-serve-req-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    std::fs::create_dir_all(&root).unwrap();
    let rib = root.join("as.rib");
    std::fs::write(&rib, "10.0.0.0/8 65001\n").unwrap();
    let mut cfg = ServeConfig::new(root.join("spool"), rib);
    cfg.tick = Duration::from_millis(25);
    (Server::start(cfg).unwrap(), root)
}

/// One request written whole; returns the raw response.
fn raw_request(addr: SocketAddr, request: &str) -> String {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    stream.write_all(request.as_bytes()).unwrap();
    let mut raw = String::new();
    stream.read_to_string(&mut raw).unwrap();
    raw
}

fn status_line(raw: &str) -> &str {
    raw.split("\r\n").next().unwrap_or_default()
}

/// A client that sends its request head one byte every 50 ms and never
/// ends it. It signals `connected` after its first byte, and returns
/// the status line it is answered with and the time from connect to
/// that answer.
fn trickle(addr: SocketAddr, connected: mpsc::Sender<()>) -> (String, Duration) {
    let mut stream = TcpStream::connect(addr).unwrap();
    let started = Instant::now();
    stream
        .set_read_timeout(Some(Duration::from_millis(50)))
        .unwrap();
    let mut head = b"GET /snapshot HTTP/1.1\r\nX-Pad: "
        .iter()
        .copied()
        .chain(std::iter::repeat(b'a'));
    let mut connected = Some(connected);
    let mut answer = Vec::new();
    let mut chunk = [0u8; 256];
    while started.elapsed() < Duration::from_secs(10) && !answer.windows(2).any(|w| w == b"\r\n") {
        if answer.is_empty() && stream.write_all(&[head.next().unwrap()]).is_err() {
            break;
        }
        if let Some(tx) = connected.take() {
            tx.send(()).unwrap();
        }
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => answer.extend_from_slice(&chunk[..n]),
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
            Err(_) => break,
        }
    }
    let elapsed = started.elapsed();
    (
        status_line(&String::from_utf8_lossy(&answer)).to_string(),
        elapsed,
    )
}

/// Runs `n` tricklers and `during` once all have sent a byte; returns
/// what `during` returned and each trickler's answer.
fn with_tricklers<T>(
    addr: SocketAddr,
    n: usize,
    during: impl FnOnce() -> T,
) -> (T, Vec<(String, Duration)>) {
    std::thread::scope(|scope| {
        let (tx, rx) = mpsc::channel();
        let clients: Vec<_> = (0..n)
            .map(|_| {
                let tx = tx.clone();
                scope.spawn(move || trickle(addr, tx))
            })
            .collect();
        for _ in 0..n {
            rx.recv().unwrap();
        }
        let result = during();
        let answers = clients.into_iter().map(|c| c.join().unwrap()).collect();
        (result, answers)
    })
}

#[test]
fn trickling_clients_neither_black_out_healthz_nor_outlive_the_deadline() {
    let (handle, root) = start("trickle");
    let addr = handle.addr();
    let ((status, took), answers) = with_tricklers(addr, 6, || {
        let sent = Instant::now();
        let (status, _) = http::get(addr, "/healthz").unwrap();
        (status, sent.elapsed())
    });
    assert_eq!(status, 200);
    assert!(
        took < Duration::from_millis(500),
        "/healthz behind 6 tricklers took {took:?}"
    );
    for (line, after) in answers {
        assert_eq!(line, "HTTP/1.1 408 Request Timeout");
        assert!(
            after < REQUEST_DEADLINE + Duration::from_millis(500),
            "408 after {after:?}"
        );
    }
    handle.stop();
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn past_the_cap_the_endpoint_answers_429_then_recovers() {
    let (handle, root) = start("cap");
    let addr = handle.addr();
    let (refused, answers) = with_tricklers(addr, MAX_IN_FLIGHT, || {
        raw_request(addr, "GET /healthz HTTP/1.1\r\n\r\n")
    });
    assert_eq!(status_line(&refused), "HTTP/1.1 429 Too Many Requests");
    assert!(refused.contains("\r\nRetry-After: 1\r\n"), "{refused}");
    assert!(answers
        .iter()
        .all(|(line, _)| line == "HTTP/1.1 408 Request Timeout"));
    // Every held handler has answered, so the slots are free again.
    let served = raw_request(addr, "GET /healthz HTTP/1.1\r\n\r\n");
    assert_eq!(status_line(&served), "HTTP/1.1 200 OK");
    handle.stop();
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn every_status_line_is_exact() {
    let (handle, root) = start("lines");
    let addr = handle.addr();
    for (request, line) in [
        ("GET /healthz HTTP/1.1\r\n\r\n", "HTTP/1.1 200 OK"),
        ("GET /readyz?probe=1 HTTP/1.1\r\n\r\n", "HTTP/1.1 200 OK"),
        ("GET /nope HTTP/1.1\r\n\r\n", "HTTP/1.1 404 Not Found"),
        (
            "POST /snapshot HTTP/1.1\r\n\r\n",
            "HTTP/1.1 405 Method Not Allowed",
        ),
        ("garbage\r\n\r\n", "HTTP/1.1 400 Bad Request"),
    ] {
        assert_eq!(
            status_line(&raw_request(addr, request)),
            line,
            "{request:?}"
        );
    }
    let ((), answers) = with_tricklers(addr, 1, || ());
    assert_eq!(answers[0].0, "HTTP/1.1 408 Request Timeout");
    handle.stop();
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn a_prerendered_snapshot_is_served_when_it_arrives() {
    let (handle, root) = start("latency");
    let addr = handle.addr();
    let mut took: Vec<Duration> = (0..40)
        .map(|_| {
            std::thread::sleep(Duration::from_millis(5));
            let sent = Instant::now();
            let (status, _) = http::get(addr, "/snapshot").unwrap();
            assert_eq!(status, 200);
            sent.elapsed()
        })
        .collect();
    took.sort();
    let median = took[took.len() / 2];
    assert!(
        median < Duration::from_micros(2500),
        "median GET /snapshot {median:?}"
    );
    handle.stop();
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn stop_is_bounded_while_a_client_trickles() {
    let (handle, root) = start("stop");
    let addr = handle.addr();
    let (took, _) = with_tricklers(addr, 1, || {
        let started = Instant::now();
        handle.stop();
        started.elapsed()
    });
    assert!(
        took < REQUEST_DEADLINE + Duration::from_secs(1),
        "stop took {took:?}"
    );
    std::fs::remove_dir_all(&root).ok();
}
