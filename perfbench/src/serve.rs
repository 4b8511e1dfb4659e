//! The `serve-spool` workload: an in-process `lpr serve` daemon fed
//! open-loop spool drops and read by one closed-loop HTTP client.
//!
//! Drops are distinct scale-1 cycles staged on disk during set-up; at
//! each due time the generator renames the next one into the spool
//! under a monotonically increasing name. The client polls `/snapshot`
//! with a short think time; a drop's visibility latency runs from its
//! due time to the first snapshot listing it in `kept_files`, so a
//! stalled generator or daemon shows in the latency.

use crate::inputs::{self, SpoolDrop};
use crate::layers::{Layers, Rendered};
use crate::stats::{median, quantile};
use crate::{repeat_setup, sys, Config, InputSizes, Outcome};
use lpr_core::pipeline::{IngestState, Pipeline};
use lpr_obs::json::JsonValue;
use std::hint::black_box;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Open-loop drop rate, drops/s.
const DROP_RATE: f64 = 5.0;
/// Client think time between requests.
const THINK: Duration = Duration::from_millis(5);
/// Cycles the daemon keeps in its window.
const WINDOW: usize = 4;
/// Daemon reconcile tick.
const TICK: Duration = Duration::from_millis(20);
/// Kept drops a traced run replays (the last ones), so the replays do
/// not outlast the measured window.
const REPLAY_MAX: usize = 40;
/// A drop not visible this long after its due time counts as failed.
const VISIBLE_DEADLINE: Duration = Duration::from_secs(10);

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn daemon_config(spool: &Path, rib: &Path) -> lpr_serve::ServeConfig {
    let mut cfg = lpr_serve::ServeConfig::new(spool, rib);
    cfg.window = WINDOW;
    cfg.tick = TICK;
    cfg.threads = 1;
    cfg
}

/// Starts a daemon and waits until `/readyz` reports ready. Returns the
/// handle and the start-to-ready time.
fn start_ready(spool: &Path, rib: &Path) -> Result<(lpr_serve::ServerHandle, f64), String> {
    let started = Instant::now();
    let handle = lpr_serve::Server::start(daemon_config(spool, rib))
        .map_err(|e| format!("daemon start: {e}"))?;
    loop {
        let ready = lpr_serve::http::get(handle.addr(), "/readyz")
            .ok()
            .and_then(|(status, body)| (status == 200).then_some(body))
            .and_then(|body| lpr_obs::json::parse(&body).ok())
            .is_some_and(|doc| matches!(doc.get("ready"), Some(JsonValue::Bool(true))));
        if ready {
            return Ok((handle, started.elapsed().as_secs_f64()));
        }
        if started.elapsed() > VISIBLE_DEADLINE {
            handle.stop();
            return Err("daemon never became ready".into());
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// The index a drop name was given (`d00042.warts` → 42).
fn drop_index(name: &str) -> Option<usize> {
    name.strip_prefix('d')?.strip_suffix(".warts")?.parse().ok()
}

/// `kept_files` of a snapshot document.
fn kept_files(doc: &JsonValue) -> Vec<String> {
    doc.get("kept_files")
        .and_then(JsonValue::as_array)
        .map(|files| {
            files
                .iter()
                .filter_map(|f| f.as_str().map(str::to_string))
                .collect()
        })
        .unwrap_or_default()
}

/// What the drop stream measured.
#[derive(Default)]
struct Stream {
    visible_ms: Vec<Option<f64>>,
    snapshot_ms: Vec<f64>,
    healthz_ms: Vec<f64>,
    late_ms: Vec<f64>,
    backlog_max: usize,
    failed_gets: u64,
    failed_renames: u64,
    last_visible: Duration,
}

/// Runs the drop stream against the daemon at `addr`. With
/// `healthz`, every other poll is a `/healthz` transport probe.
fn stream(addr: SocketAddr, spool: &Path, drops: &[SpoolDrop], healthz: bool) -> Stream {
    let period = Duration::from_secs_f64(1.0 / DROP_RATE);
    let start = Instant::now();
    let due = |i: usize| start + period * i as u32;
    let dropped = AtomicUsize::new(0);
    let mut s = Stream {
        visible_ms: vec![None; drops.len()],
        ..Stream::default()
    };
    std::thread::scope(|scope| {
        let generator = scope.spawn(|| {
            let mut late = Vec::with_capacity(drops.len());
            let mut failed = 0u64;
            for (i, d) in drops.iter().enumerate() {
                let now = Instant::now();
                if now < due(i) {
                    std::thread::sleep(due(i) - now);
                }
                late.push(ms(Instant::now() - due(i)));
                if std::fs::rename(&d.staged, spool.join(&d.name)).is_err() {
                    failed += 1;
                }
                dropped.store(i + 1, Ordering::SeqCst);
            }
            (late, failed)
        });
        let deadline = due(drops.len()) + VISIBLE_DEADLINE;
        let mut visible = 0usize;
        let mut poll = 0u64;
        while visible < drops.len() && Instant::now() < deadline {
            let path = if healthz && poll % 2 == 1 {
                "/healthz"
            } else {
                "/snapshot"
            };
            poll += 1;
            let sent = Instant::now();
            let response = lpr_serve::http::get(addr, path);
            let done = Instant::now();
            match response {
                Ok((200, _)) if path == "/healthz" => s.healthz_ms.push(ms(done - sent)),
                Ok((200, body)) => {
                    s.snapshot_ms.push(ms(done - sent));
                    let doc = lpr_obs::json::parse(&body).unwrap_or(JsonValue::Null);
                    for name in kept_files(&doc) {
                        let Some(i) = drop_index(&name).filter(|&i| i < drops.len()) else {
                            continue;
                        };
                        if s.visible_ms[i].is_none() {
                            s.visible_ms[i] = Some(ms(done - due(i)));
                            s.last_visible = done - start;
                            visible += 1;
                        }
                    }
                }
                _ => s.failed_gets += 1,
            }
            s.backlog_max = s
                .backlog_max
                .max(dropped.load(Ordering::SeqCst).saturating_sub(visible));
            std::thread::sleep(THINK);
        }
        let (late, failed) = generator.join().expect("drop generator panicked");
        s.late_ms = late;
        s.failed_renames = failed;
    });
    s
}

/// The pipeline section a batch run over the daemon's final window
/// renders: the last `WINDOW` kept files, tagged with the cycle ids the
/// daemon gave them (their position in `kept`).
fn batch_window_render(
    spool: &Path,
    kept: &[String],
    rib: &ip2as::Ip2AsTrie,
) -> Result<String, String> {
    let mut window = IngestState::default();
    for (cycle, name) in kept
        .iter()
        .enumerate()
        .skip(kept.len().saturating_sub(WINDOW))
    {
        let path = spool.join(name);
        let corpus = lpr_corpus::Corpus::open_with(std::slice::from_ref(&path), false, None)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        let (mut state, _) =
            lpr_corpus::ingest_cycle(&corpus, rib, lpr_corpus::IngestOptions::new(1), None);
        state.tag_cycle(cycle as u64);
        window.merge(state);
    }
    let out = Pipeline::default().finish_stages(window, &[], None, lpr_par::ShardOptions::new(1));
    Ok(lpr_serve::snapshot_pipeline_json(&out).render())
}

/// Replays the last [`REPLAY_MAX`] kept drops through the daemon's
/// per-file steps, one iteration per drop: index build, ingest, window
/// merge/evict plus the back half on a window clone, and the render.
fn replay(
    layers: &Layers,
    spool: &Path,
    kept: &[String],
    rib: &ip2as::Ip2AsTrie,
) -> Result<Vec<f64>, String> {
    let mut window = IngestState::default();
    let mut walls = Vec::with_capacity(kept.len());
    for (cycle, name) in kept
        .iter()
        .enumerate()
        .skip(kept.len().saturating_sub(REPLAY_MAX))
    {
        let path = spool.join(name);
        let started = Instant::now();
        let iteration = layers.iteration();
        let span = layers.span("serve.index");
        let corpus = lpr_corpus::Corpus::open_with(std::slice::from_ref(&path), false, None)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        drop(span);
        let span = layers.span("serve.ingest");
        let (mut state, _) =
            lpr_corpus::ingest_cycle(&corpus, rib, lpr_corpus::IngestOptions::new(1), None);
        drop(span);
        let span = layers.span("serve.rebuild");
        state.tag_cycle(cycle as u64);
        window.merge(state);
        if window.cycles().len() > WINDOW {
            window.evict_before(cycle as u64 + 1 - WINDOW as u64);
        }
        let out = Pipeline::default().finish_stages(
            window.clone(),
            &[],
            None,
            lpr_par::ShardOptions::new(1),
        );
        drop(span);
        let span = layers.span("serve.render");
        black_box(Rendered::of(&out));
        drop(span);
        drop(iteration);
        walls.push(started.elapsed().as_secs_f64());
    }
    Ok(walls)
}

/// `serve-spool`: see the module docs.
pub fn serve_spool(cfg: &Config) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let world = ark_dataset::standard_world();
    let rib = world.rib();
    let rib_path = cfg.work.join("rib.txt");
    std::fs::write(&rib_path, ip2as::to_rib_string(rib)).map_err(|e| e.to_string())?;
    let n = ((cfg.seconds * DROP_RATE).round() as usize).max(1);
    let staging = cfg.work.join("staging");
    let drops = inputs::stage_drops(&staging, &world, cfg.seed, n).map_err(|e| e.to_string())?;
    out.inputs = InputSizes {
        traces: drops.iter().map(|d| d.traces).sum(),
        files: n as u64,
        bytes: drops.iter().map(|d| d.bytes).sum(),
    };

    // Set-up: daemon start until ready, on a fresh spool each time; the
    // last daemon serves the measured stream.
    let mut daemon: Option<lpr_serve::ServerHandle> = None;
    let mut spool = PathBuf::new();
    let mut starts = 0usize;
    let setup = repeat_setup(|| {
        if let Some(previous) = daemon.take() {
            previous.stop();
        }
        spool = cfg.work.join(format!("spool{starts}"));
        starts += 1;
        let (handle, secs) = start_ready(&spool, &rib_path)?;
        daemon = Some(handle);
        Ok(secs)
    })?;
    let daemon = daemon.expect("at least one set-up");

    let rss_reset = sys::reset_peak_rss();
    let s = stream(daemon.addr(), &spool, &drops, cfg.trace);
    let peak_rss = sys::peak_rss_mb();
    let final_doc = lpr_serve::http::get(daemon.addr(), "/snapshot")
        .ok()
        .filter(|(status, _)| *status == 200)
        .and_then(|(_, body)| lpr_obs::json::parse(&body).ok());
    daemon.stop();

    let visible: Vec<f64> = s.visible_ms.iter().flatten().copied().collect();
    let invisible = (n - visible.len()) as u64;
    out.attempted +=
        n as u64 + s.snapshot_ms.len() as u64 + s.healthz_ms.len() as u64 + s.failed_gets;
    out.failed += invisible + s.failed_gets + s.failed_renames;
    if invisible > 0 {
        eprintln!("perfbench: {invisible} of {n} drops never became visible");
    }

    let kept = final_doc.as_ref().map(kept_files).unwrap_or_default();
    let names: Vec<String> = drops.iter().map(|d| d.name.clone()).collect();
    out.check("every drop is kept, in drop order", kept == names);
    let served = final_doc
        .as_ref()
        .and_then(|d| d.get("pipeline"))
        .map(JsonValue::render);
    let batch = batch_window_render(&spool, &kept, rib)?;
    out.check(
        "served pipeline equals the batch pipeline over its window",
        served.as_deref() == Some(batch.as_str()),
    );
    // A second set-up burst after the stream, so `setup_s` is not the
    // speed of the run's first instant alone.
    let mut setup = setup;
    setup.extend(repeat_setup(|| {
        let (handle, secs) = start_ready(&cfg.work.join(format!("spool{starts}")), &rib_path)?;
        starts += 1;
        handle.stop();
        Ok(secs)
    })?);
    out.setup(&setup);

    if cfg.trace {
        let layers = Layers::new(true);
        let traced = replay(&layers, &spool, &kept, rib)?;
        let plain = replay(&Layers::new(false), &spool, &kept, rib)?;
        let times = layers.times();
        crate::batch::record_span_layers(&mut out, &times);
        let m = &mut out.metrics;
        m.insert("trace_overhead_ratio", median(&traced) / median(&plain));
        m.insert("corpus.index_build_s", times.layer_s("serve.index"));
        m.insert("report.render_s", times.layer_s("serve.render"));
        m.insert("serve.healthz_get_ms.p50", median(&s.healthz_ms));
        m.insert("serve.backlog.max", s.backlog_max as f64);
        m.insert(
            "load.late_ms.max",
            s.late_ms.iter().copied().fold(0.0, f64::max),
        );
        out.timing("serve.healthz_get_ms", "ms", &s.healthz_ms);
        out.timing("load.late_ms", "ms", &s.late_ms);
    } else {
        if !rss_reset {
            eprintln!("perfbench: peak RSS could not be reset; reporting the process peak");
        }
        let m = &mut out.metrics;
        m.insert("peak_rss_mb", peak_rss);
        let visible_traces: u64 = drops
            .iter()
            .zip(&s.visible_ms)
            .filter(|(_, v)| v.is_some())
            .map(|(d, _)| d.traces)
            .sum();
        m.insert(
            "traces_per_s",
            visible_traces as f64 / s.last_visible.as_secs_f64().max(1e-9),
        );
        m.insert("drop_visible_ms.p50", quantile(&visible, 0.5));
        m.insert("drop_visible_ms.p90", quantile(&visible, 0.9));
        m.insert("snapshot_get_ms.p50", quantile(&s.snapshot_ms, 0.5));
        m.insert("snapshot_get_ms.p90", quantile(&s.snapshot_ms, 0.9));
    }
    out.timing("drop_visible_ms", "ms", &visible);
    out.timing("snapshot_get_ms", "ms", &s.snapshot_ms);
    Ok(out)
}
