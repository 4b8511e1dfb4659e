//! A drop whose every ingest attempt times out: the timed-out worker
//! runs on, abandoned, and no retry starts beside it. The test counts
//! the process's ingest threads, so it is the only test in its binary.

use lpr_core::prelude::*;
use lpr_core::trace::Hop;
use lpr_serve::{http, ServeConfig, Server};
use std::net::Ipv4Addr;
use std::time::{Duration, Instant};

/// Live threads named like the daemon's ingest workers. Linux keeps
/// the first 15 bytes of a thread name, `lpr-serve-inges`.
#[cfg(target_os = "linux")]
fn ingest_threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .unwrap()
        .flatten()
        .filter(|task| {
            std::fs::read_to_string(task.path().join("comm"))
                .is_ok_and(|comm| comm.trim_end() == "lpr-serve-inges")
        })
        .count()
}

fn traces(n: u32) -> Vec<Trace> {
    (0..n)
        .map(|i| {
            let asn = 1 + (i % 4) as u8;
            let dst = Ipv4Addr::new(192, 0, 2, (i % 250) as u8);
            let mut t = Trace::new(Ipv4Addr::new(203, 0, 113, 5), dst);
            t.push_hop(Hop::responsive(1, Ipv4Addr::new(10, asn, 0, 1)));
            t.push_hop(Hop::labelled(
                2,
                Ipv4Addr::new(10, asn, 0, 2),
                &[Lse::transit(100 + i % 5, 254)],
            ));
            t.push_hop(Hop::responsive(3, dst));
            t.reached = true;
            t
        })
        .collect()
}

fn healthz_field(addr: std::net::SocketAddr, key: &str) -> Option<u64> {
    let (_, body) = http::get(addr, "/healthz").ok()?;
    lpr_obs::json::parse(&body).ok()?.get(key)?.as_u64()
}

#[cfg(target_os = "linux")]
#[test]
fn a_timed_out_ingest_worker_is_never_joined_by_a_second() {
    let root = std::env::temp_dir().join(format!("lpr-serve-timeout-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let (spool, staging) = (root.join("spool"), root.join("staging"));
    std::fs::create_dir_all(&staging).unwrap();
    let rib = root.join("as.rib");
    std::fs::write(
        &rib,
        "10.0.0.0/8 65001\n192.0.2.0/24 64500\n203.0.113.0/24 64501\n",
    )
    .unwrap();
    let written = lpr_corpus::write_corpus_files(&staging, "big", &traces(60_000), 1).unwrap();

    let mut cfg = ServeConfig::new(&spool, &rib);
    cfg.tick = Duration::from_millis(5);
    cfg.ingest_timeout = Duration::from_millis(1);
    cfg.retries = 3;
    cfg.backoff_base = Duration::from_millis(1);
    let handle = Server::start(cfg).unwrap();
    let addr = handle.addr();
    std::fs::rename(&written[0], spool.join("big.warts")).unwrap();

    // Sample the ingest threads until the drop is quarantined and its
    // last abandoned worker has exited.
    let started = Instant::now();
    let (mut most, mut seen_abandoned) = (0, false);
    let settled = loop {
        most = most.max(ingest_threads());
        let abandoned = healthz_field(addr, "abandoned_ingest_workers");
        seen_abandoned |= abandoned.is_some_and(|n| n > 0);
        let quarantined = spool.join("quarantine/big.warts.reason.json").exists();
        if quarantined && abandoned == Some(0) && ingest_threads() == 0 {
            break true;
        }
        if started.elapsed() > Duration::from_secs(60) {
            break false;
        }
        std::thread::sleep(Duration::from_millis(1));
    };
    handle.stop();

    assert_eq!(most, 1, "at most one ingest thread for the one file");
    assert!(settled, "quarantined with no ingest worker left");
    assert!(seen_abandoned, "/healthz counted the abandoned worker");
    let reason = std::fs::read_to_string(spool.join("quarantine/big.warts.reason.json")).unwrap();
    let reason = lpr_obs::json::parse(&reason).unwrap();
    assert_eq!(
        reason.get("reason").and_then(|v| v.as_str()),
        Some("ingest_failed(timeout)")
    );
    std::fs::remove_dir_all(&root).ok();
}
