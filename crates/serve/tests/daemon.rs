//! End-to-end daemon test: a live `lpr-serve` instance over a temp
//! spool — clean drops merge into the window and serve snapshots
//! byte-identical to the batch pipeline; corrupt and never-finishing
//! drops are quarantined with structured reasons while the endpoint
//! keeps answering (degraded, never 5xx).

use lpr_core::prelude::*;
use lpr_core::trace::Hop;
use lpr_serve::{http, ServeConfig, Server};
use std::net::Ipv4Addr;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

fn rib_text() -> String {
    let mut trie = ip2as::Ip2AsTrie::new();
    for a in 1..=6u8 {
        trie.insert(ip2as::Prefix::new(Ipv4Addr::new(10, a, 0, 0), 16), Asn(a as u32));
    }
    trie.insert(ip2as::Prefix::new(Ipv4Addr::new(192, 0, 2, 0), 24), Asn(100));
    trie.insert(ip2as::Prefix::new(Ipv4Addr::new(198, 51, 100, 0), 24), Asn(101));
    trie.insert(ip2as::Prefix::new(Ipv4Addr::new(203, 0, 113, 0), 24), Asn(200));
    ip2as::to_rib_string(&trie)
}

fn cycle_traces(seed: u32) -> Vec<Trace> {
    let mut traces = Vec::new();
    for i in 0..24u32 {
        let asn = 1 + ((seed + i) % 4) as u8;
        let dst = if i % 2 == 0 {
            Ipv4Addr::new(192, 0, 2, 10 + ((seed / 2 + i) % 60) as u8)
        } else {
            Ipv4Addr::new(198, 51, 100, 10 + ((seed / 2 + i) % 60) as u8)
        };
        let label = 100 + (seed + 7 * i) % 5;
        let mut t = Trace::new(Ipv4Addr::new(203, 0, 113, 5), dst);
        t.push_hop(Hop::responsive(1, Ipv4Addr::new(10, asn, 0, 1)));
        t.push_hop(Hop::labelled(
            2,
            Ipv4Addr::new(10, asn, 0, 2),
            &[Lse::transit(label, 254)],
        ));
        t.push_hop(Hop::labelled(
            3,
            Ipv4Addr::new(10, asn, 0, 3),
            &[Lse::transit(label + 100, 253)],
        ));
        t.push_hop(Hop::responsive(4, Ipv4Addr::new(10, asn, 0, 9)));
        t.push_hop(Hop::responsive(5, dst));
        t.reached = true;
        traces.push(t);
    }
    traces
}

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("lpr-serve-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Writes one cycle's warts bytes and atomically drops them into the
/// spool under `name` (staging + rename, as a well-behaved producer
/// would).
fn drop_into_spool(staging: &Path, spool: &Path, name: &str, bytes: &[u8]) {
    let tmp = staging.join(name);
    std::fs::write(&tmp, bytes).unwrap();
    std::fs::rename(&tmp, spool.join(name)).unwrap();
}

fn cycle_bytes(staging: &Path, seed: u32) -> Vec<u8> {
    let paths =
        lpr_corpus::write_corpus_files(staging, &format!("stage{seed}"), &cycle_traces(seed), 1)
            .unwrap();
    let bytes = std::fs::read(&paths[0]).unwrap();
    std::fs::remove_file(&paths[0]).unwrap();
    let _ = std::fs::remove_file(staging.join(format!("stage{seed}.000.warts.lpridx")));
    bytes
}

/// Polls `f` until it returns true or ~5s elapse.
fn wait_for(mut f: impl FnMut() -> bool) -> bool {
    let deadline = Instant::now() + Duration::from_secs(5);
    while Instant::now() < deadline {
        if f() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    false
}

fn get_json(addr: std::net::SocketAddr, path: &str) -> lpr_obs::json::JsonValue {
    let (status, body) = http::get(addr, path).unwrap();
    assert!(status < 500, "no 5xx ever: {path} answered {status}");
    lpr_obs::json::parse(&body).unwrap_or(lpr_obs::json::JsonValue::Null)
}

#[test]
fn daemon_ingests_quarantines_and_serves_batch_identical_snapshots() {
    let root = tmp("e2e");
    let spool = root.join("spool");
    let staging = root.join("staging");
    std::fs::create_dir_all(&spool).unwrap();
    std::fs::create_dir_all(&staging).unwrap();
    let rib_path = root.join("as.rib");
    std::fs::write(&rib_path, rib_text()).unwrap();
    let rib = ip2as::parse_rib(&rib_text()).unwrap();

    // A crash leftover that must be swept at startup.
    std::fs::write(spool.join("old.warts.lpridx.tmp"), b"stale").unwrap();

    let mut cfg = ServeConfig::new(&spool, &rib_path);
    cfg.tick = Duration::from_millis(25);
    cfg.window = 2;
    cfg.growing_grace = 2;
    cfg.retries = 1;
    cfg.backoff_base = Duration::from_millis(10);
    let handle = Server::start(cfg).unwrap();
    let addr = handle.addr();

    // Startup: healthy, not degraded, leftovers swept, snapshot served
    // (empty window) from the very first request.
    assert!(wait_for(|| get_json(addr, "/healthz")
        .get("ready")
        .map(|v| *v == lpr_obs::json::JsonValue::Bool(true))
        .unwrap_or(false)));
    assert!(!spool.join("old.warts.lpridx.tmp").exists(), "startup sweep");
    let snap = get_json(addr, "/snapshot");
    assert_eq!(snap.get("files").unwrap().get("processed").unwrap().as_u64(), Some(0));

    // Drop 1: clean. It must merge and serve exactly the batch result.
    let c0 = cycle_bytes(&staging, 0);
    drop_into_spool(&staging, &spool, "c0.warts", &c0);
    assert!(wait_for(|| get_json(addr, "/snapshot")
        .get("files")
        .and_then(|f| f.get("kept"))
        .and_then(|v| v.as_u64())
        == Some(1)));
    let served = get_json(addr, "/snapshot");
    let reference =
        lpr_serve::batch_snapshot_pipeline(&[(0, spool.join("c0.warts"))], &rib, 1).unwrap();
    assert_eq!(served.get("pipeline").unwrap().render(), reference);

    // Drop 2: corrupt (a mid-file record header is trashed — damage
    // the index scan must notice). Quarantined wholesale with a
    // structured reason; daemon answers degraded, never 5xx.
    let mut corrupt = cycle_bytes(&staging, 1);
    let index = lpr_corpus::RecordIndex::build(&corrupt);
    let victim = index.records[index.records.len() / 2].offset as usize;
    corrupt[victim] = 0;
    corrupt[victim + 1] = 0;
    drop_into_spool(&staging, &spool, "c1-corrupt.warts", &corrupt);
    assert!(wait_for(|| get_json(addr, "/snapshot")
        .get("files")
        .and_then(|f| f.get("quarantined"))
        .and_then(|v| v.as_u64())
        == Some(1)));
    assert!(!spool.join("c1-corrupt.warts").exists(), "moved out of the spool");
    assert!(spool.join("quarantine/c1-corrupt.warts").exists());
    let reason = std::fs::read_to_string(spool.join("quarantine/c1-corrupt.warts.reason.json"))
        .unwrap();
    let reason = lpr_obs::json::parse(&reason).unwrap();
    assert_eq!(reason.get("reason").and_then(|v| v.as_str()), Some("corrupt"));
    assert!(reason.get("detail").unwrap().get("skipped").is_some());
    assert_eq!(
        get_json(addr, "/healthz").get("degraded"),
        Some(&lpr_obs::json::JsonValue::Bool(true))
    );

    // Drop 3: a truncated drop that never finishes growing — deferred
    // for the grace period, then quarantined as still-growing.
    let c2 = cycle_bytes(&staging, 2);
    drop_into_spool(&staging, &spool, "c2-stub.warts", &c2[..c2.len() - 3]);
    assert!(wait_for(|| get_json(addr, "/snapshot")
        .get("files")
        .and_then(|f| f.get("quarantined"))
        .and_then(|v| v.as_u64())
        == Some(2)));

    // Drop 4: clean again. The clean window (cycles 0 and 1) must stay
    // byte-identical to the batch pipeline over the clean subset.
    let c3 = cycle_bytes(&staging, 3);
    drop_into_spool(&staging, &spool, "c3.warts", &c3);
    assert!(wait_for(|| get_json(addr, "/snapshot")
        .get("files")
        .and_then(|f| f.get("kept"))
        .and_then(|v| v.as_u64())
        == Some(2)));
    let served = get_json(addr, "/snapshot");
    let reference = lpr_serve::batch_snapshot_pipeline(
        &[(0, spool.join("c0.warts")), (1, spool.join("c3.warts"))],
        &rib,
        1,
    )
    .unwrap();
    assert_eq!(served.get("pipeline").unwrap().render(), reference);

    // Two drops and no follow-up snapshots: no Persistence filter
    // applies, so every LSP passes it and no AS is tagged dynamic.
    let service = served.get("service").unwrap();
    assert_eq!(service.get("persistence_window").and_then(|v| v.as_u64()), Some(0));
    let pipeline = served.get("pipeline").unwrap();
    let remaining = pipeline.get("filter_report").unwrap().get("remaining").unwrap();
    let diverse = remaining.get("TransitDiversity").and_then(|v| v.as_u64()).unwrap();
    assert!(diverse > 0, "the drops carry transit-diverse LSPs");
    assert_eq!(remaining.get("Persistence").and_then(|v| v.as_u64()), Some(diverse));
    assert_eq!(pipeline.get("dynamic_ases").and_then(|v| v.as_array()).map(|a| a.len()), Some(0));

    // Reconciliation is exact: kept + quarantined == processed.
    let files = served.get("files").unwrap();
    assert_eq!(files.get("kept").unwrap().as_u64(), Some(2));
    assert_eq!(files.get("quarantined").unwrap().as_u64(), Some(2));
    assert_eq!(files.get("processed").unwrap().as_u64(), Some(4));

    // Per-AS report and metrics are live; unknown paths are 404.
    assert!(get_json(addr, "/report/per-as").get("ases").is_some());
    let (status, metrics) = http::get(addr, "/metrics").unwrap();
    assert_eq!(status, 200);
    assert!(metrics.contains("serve_files_ingested 2"), "{metrics}");
    assert!(metrics.contains("serve_files_quarantined 2"), "{metrics}");
    let (status, _) = http::get(addr, "/definitely-not-a-route").unwrap();
    assert_eq!(status, 404);

    handle.stop();
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn window_eviction_keeps_serving_the_recent_cycles() {
    let root = tmp("evict");
    let spool = root.join("spool");
    let staging = root.join("staging");
    std::fs::create_dir_all(&spool).unwrap();
    std::fs::create_dir_all(&staging).unwrap();
    let rib_path = root.join("as.rib");
    std::fs::write(&rib_path, rib_text()).unwrap();
    let rib = ip2as::parse_rib(&rib_text()).unwrap();

    let mut cfg = ServeConfig::new(&spool, &rib_path);
    cfg.tick = Duration::from_millis(25);
    cfg.window = 2;
    let handle = Server::start(cfg).unwrap();
    let addr = handle.addr();

    for i in 0..4u32 {
        let bytes = cycle_bytes(&staging, 10 + i);
        drop_into_spool(&staging, &spool, &format!("w{i}.warts"), &bytes);
        assert!(wait_for(|| get_json(addr, "/snapshot")
            .get("files")
            .and_then(|f| f.get("kept"))
            .and_then(|v| v.as_u64())
            == Some(i as u64 + 1)));
    }

    // Window of 2: only cycles 2 and 3 remain, equal to a batch run
    // over just those files.
    let served = get_json(addr, "/snapshot");
    let cycles: Vec<u64> = served
        .get("service")
        .unwrap()
        .get("window_cycles")
        .unwrap()
        .as_array()
        .unwrap()
        .iter()
        .filter_map(|v| v.as_u64())
        .collect();
    assert_eq!(cycles, vec![2, 3]);
    let reference = lpr_serve::batch_snapshot_pipeline(
        &[(2, spool.join("w2.warts")), (3, spool.join("w3.warts"))],
        &rib,
        1,
    )
    .unwrap();
    assert_eq!(served.get("pipeline").unwrap().render(), reference);

    handle.stop();
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn simulated_sigterm_shuts_down_cleanly() {
    let root = tmp("term");
    let spool = root.join("spool");
    std::fs::create_dir_all(&spool).unwrap();
    let rib_path = root.join("as.rib");
    std::fs::write(&rib_path, rib_text()).unwrap();

    let mut cfg = ServeConfig::new(&spool, &rib_path);
    cfg.tick = Duration::from_millis(25);
    let handle = Server::start(cfg).unwrap();
    lpr_serve::signal::set_termination_requested(true);
    let started = Instant::now();
    assert_eq!(handle.run_until_signal(), 0);
    assert!(started.elapsed() < Duration::from_secs(3), "graceful, not hung");
    lpr_serve::signal::set_termination_requested(false);
    std::fs::remove_dir_all(&root).ok();
}
