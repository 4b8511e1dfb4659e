//! The daemon: reconcile loop, windowed state, quarantine, endpoint.

use crate::http::{self, Response};
use crate::render::{per_as_json, snapshot_pipeline_json};
use crate::ServeConfig;
use lpr_core::pipeline::{IngestState, Pipeline};
use lpr_corpus::{ingest_cycle, Corpus, DecodeReport, FileSkipReason, IngestOptions};
use lpr_obs::json::JsonValue;
use lpr_obs::{names, Recorder};
use std::collections::BTreeMap;
use std::io;
use std::net::{SocketAddr, TcpListener};
use std::panic::AssertUnwindSafe;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Everything the HTTP routes read; written by the reconcile loop.
struct Shared {
    stop: Arc<AtomicBool>,
    /// First reconcile pass completed (the snapshot is meaningful).
    ready: AtomicBool,
    /// At least one spool file is quarantined.
    degraded: AtomicBool,
    ticks: AtomicU64,
    /// Timed-out ingest workers still running.
    abandoned_workers: AtomicUsize,
    recorder: Recorder,
    /// Pre-rendered response bodies, swapped atomically per rebuild.
    snapshot: Mutex<Rendered>,
}

#[derive(Clone)]
struct Rendered {
    snapshot: String,
    per_as: String,
}

/// The daemon. [`Server::start`] binds, sweeps, spawns, and hands back
/// a [`ServerHandle`].
pub struct Server;

/// A running daemon: its bound address plus shutdown control. Dropping
/// the handle without [`ServerHandle::stop`] leaves the daemon running
/// detached for the rest of the process.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    threads: Vec<JoinHandle<()>>,
}

impl Server {
    /// Starts the daemon: loads the RIB, sweeps crash leftovers from
    /// the spool, binds the endpoint, and spawns the HTTP + reconcile
    /// threads.
    pub fn start(cfg: ServeConfig) -> io::Result<ServerHandle> {
        let rib_text = std::fs::read_to_string(&cfg.rib)?;
        let rib = ip2as::parse_rib(&rib_text).map_err(|e| {
            io::Error::new(io::ErrorKind::InvalidData, format!("{}: {e}", cfg.rib.display()))
        })?;
        std::fs::create_dir_all(&cfg.spool)?;
        std::fs::create_dir_all(cfg.spool.join("quarantine"))?;

        let recorder = Recorder::new("serve");
        // Crash-leftover hygiene before any index cache is touched.
        lpr_corpus::sweep_stale(&cfg.spool, Some(&recorder))?;

        let listener = TcpListener::bind(&cfg.addr)?;
        let addr = listener.local_addr()?;

        let stop = Arc::new(AtomicBool::new(false));
        let shared = Arc::new(Shared {
            stop: stop.clone(),
            ready: AtomicBool::new(false),
            degraded: AtomicBool::new(false),
            ticks: AtomicU64::new(0),
            abandoned_workers: AtomicUsize::new(0),
            recorder,
            snapshot: Mutex::new(Rendered {
                snapshot: "{}".to_string(),
                per_as: "{}".to_string(),
            }),
        });

        let http_shared = shared.clone();
        let http_stop = stop.clone();
        let http_thread = std::thread::Builder::new()
            .name("lpr-serve-http".to_string())
            .spawn(move || {
                let shared = http_shared;
                http::serve(listener, http_stop, move |path| route(&shared, path));
            })?;

        let loop_shared = shared.clone();
        let reconcile_thread = std::thread::Builder::new()
            .name("lpr-serve-reconcile".to_string())
            .spawn(move || {
                Reconciler::new(cfg, loop_shared, Arc::new(rib)).run();
            })?;

        Ok(ServerHandle { addr, shared, threads: vec![http_thread, reconcile_thread] })
    }
}

impl ServerHandle {
    /// The endpoint's bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Whether the first reconcile pass has completed.
    pub fn ready(&self) -> bool {
        self.shared.ready.load(Ordering::SeqCst)
    }

    /// Whether any spool file is currently quarantined.
    pub fn degraded(&self) -> bool {
        self.shared.degraded.load(Ordering::SeqCst)
    }

    /// Completed reconcile ticks.
    pub fn ticks(&self) -> u64 {
        self.shared.ticks.load(Ordering::SeqCst)
    }

    /// Graceful shutdown: stops the loops, wakes the blocking accept
    /// and joins both threads. Requests in flight finish first, each
    /// within [`http::REQUEST_DEADLINE`].
    pub fn stop(mut self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        http::wake(self.addr);
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }

    /// Foreground mode for the CLI: installs the SIGTERM/SIGINT
    /// handler and blocks until a signal arrives, then shuts down
    /// gracefully. Returns the process exit code (0).
    pub fn run_until_signal(self) -> i32 {
        crate::signal::install();
        while !crate::signal::termination_requested()
            && !self.shared.stop.load(Ordering::SeqCst)
        {
            std::thread::sleep(Duration::from_millis(50));
        }
        self.stop();
        0
    }
}

fn route(shared: &Shared, path: &str) -> Response {
    shared.recorder.counter(names::SERVE_HTTP_REQUESTS).inc();
    let ready = shared.ready.load(Ordering::SeqCst);
    let degraded = shared.degraded.load(Ordering::SeqCst);
    match path {
        "/healthz" => Response::json(
            JsonValue::Object(vec![
                ("ok".into(), JsonValue::Bool(true)),
                ("ready".into(), JsonValue::Bool(ready)),
                ("degraded".into(), JsonValue::Bool(degraded)),
                (
                    "ticks".into(),
                    JsonValue::Int(shared.ticks.load(Ordering::SeqCst) as i128),
                ),
                (
                    "abandoned_ingest_workers".into(),
                    JsonValue::Int(shared.abandoned_workers.load(Ordering::SeqCst) as i128),
                ),
            ])
            .render(),
        ),
        // Readiness is a body-level flag: the endpoint never answers
        // 5xx, not even before the first reconcile pass.
        "/readyz" => Response::json(
            JsonValue::Object(vec![("ready".into(), JsonValue::Bool(ready))]).render(),
        ),
        "/snapshot" => {
            Response::json(shared.snapshot.lock().expect("snapshot poisoned").snapshot.clone())
        }
        "/report/per-as" => {
            Response::json(shared.snapshot.lock().expect("snapshot poisoned").per_as.clone())
        }
        "/metrics" => Response::text(lpr_obs::export::prometheus_text(shared.recorder.registry())),
        _ => Response::not_found(),
    }
}

/// What one ingest attempt concluded about a spool file.
pub enum Attempt {
    /// Clean decode: the cycle's ingest state, ready to merge.
    Ingested(Box<IngestState>),
    /// File is empty or still growing — look again next tick.
    Defer(FileSkipReason),
    /// Decode damage: quarantine wholesale, nothing merged.
    Corrupt(DecodeReport),
    /// The file vanished or could not be read.
    Io(String),
    /// The ingest worker panicked.
    Panicked(String),
    /// The worker exceeded the ingest timeout. It runs on, abandoned,
    /// and no new attempt on the file starts until it has exited.
    TimedOut,
}

/// Retry bookkeeping for a not-yet-settled spool file.
#[derive(Default)]
struct Pending {
    /// Failed attempts so far (timeout / panic / IO).
    attempts: u32,
    /// Consecutive scans spent deferred as empty / still-growing.
    grace_used: u32,
    /// Earliest instant the next attempt may run (backoff).
    not_before: Option<Instant>,
}

struct Reconciler {
    cfg: ServeConfig,
    shared: Arc<Shared>,
    rib: Arc<ip2as::Ip2AsTrie>,
    window: IngestState,
    next_cycle: u64,
    /// Files fully settled (ingested or quarantined), by file name.
    kept: Vec<String>,
    quarantined: Vec<(String, String)>,
    pending: BTreeMap<PathBuf, Pending>,
    /// Timed-out workers and their files, joined once they exit; any
    /// still running at shutdown are left to finish detached.
    abandoned: Vec<(PathBuf, JoinHandle<()>)>,
}

impl Reconciler {
    fn new(cfg: ServeConfig, shared: Arc<Shared>, rib: Arc<ip2as::Ip2AsTrie>) -> Self {
        Reconciler {
            cfg,
            shared,
            rib,
            window: IngestState::default(),
            next_cycle: 0,
            kept: Vec::new(),
            quarantined: Vec::new(),
            pending: BTreeMap::new(),
            abandoned: Vec::new(),
        }
    }

    fn run(mut self) {
        // Serve a (empty-window) snapshot from the very first request.
        self.rebuild_snapshot();
        while !self.shared.stop.load(Ordering::SeqCst) {
            let tick_started = Instant::now();
            self.tick();
            self.shared.ticks.fetch_add(1, Ordering::SeqCst);
            self.shared.ready.store(true, Ordering::SeqCst);
            // Sleep out the remainder of the tick, stop-aware.
            while tick_started.elapsed() < self.cfg.tick {
                if self.shared.stop.load(Ordering::SeqCst) {
                    return;
                }
                std::thread::sleep(Duration::from_millis(10).min(self.cfg.tick));
            }
        }
    }

    fn tick(&mut self) {
        let tracer = self.shared.recorder.tracer();
        let _span = tracer.span("serve:tick");
        let mut changed = false;
        for path in self.scan_spool() {
            if self.shared.stop.load(Ordering::SeqCst) {
                break;
            }
            changed |= self.settle_file(&path);
        }
        if changed || self.shared.ticks.load(Ordering::SeqCst) == 0 {
            self.rebuild_snapshot();
        }
        self.reap_abandoned();
        self.shared.recorder.counter(names::SERVE_RECONCILE_TICKS).inc();
    }

    /// Unsettled `*.warts` files in the spool root, in name order (the
    /// drop order convention: producers name files monotonically).
    fn scan_spool(&self) -> Vec<PathBuf> {
        let Ok(entries) = std::fs::read_dir(&self.cfg.spool) else { return Vec::new() };
        let mut files: Vec<PathBuf> = entries
            .flatten()
            .map(|e| e.path())
            .filter(|p| {
                p.is_file()
                    && p.extension().is_some_and(|e| e == "warts")
                    && !self.is_settled(p)
            })
            .collect();
        files.sort();
        files
    }

    fn is_settled(&self, path: &Path) -> bool {
        let name = file_name(path);
        self.kept.contains(&name) || self.quarantined.iter().any(|(q, _)| *q == name)
    }

    /// Drives one file one step through the attempt/defer/retry state
    /// machine. Returns true when the window changed (merge or
    /// quarantine decision).
    fn settle_file(&mut self, path: &Path) -> bool {
        let entry = self.pending.entry(path.to_path_buf()).or_default();
        if entry.not_before.is_some_and(|t| Instant::now() < t) {
            return false;
        }
        // One worker per file: a retry waits for the timed-out one.
        if self.abandoned.iter().any(|(p, w)| p == path && !w.is_finished()) {
            return false;
        }

        match self.attempt_with_timeout(path) {
            Attempt::Ingested(state) => {
                let mut state = *state;
                let cycle = self.next_cycle;
                self.next_cycle += 1;
                state.tag_cycle(cycle);
                self.window.merge(state);
                if self.window.cycles().len() > self.cfg.window {
                    let cutoff = cycle + 1 - self.cfg.window as u64;
                    let evicted = self.window.evict_before(cutoff);
                    self.shared
                        .recorder
                        .counter(names::SERVE_CYCLES_EVICTED)
                        .add(evicted.len() as u64);
                }
                self.kept.push(file_name(path));
                self.pending.remove(path);
                self.shared.recorder.counter(names::SERVE_FILES_INGESTED).inc();
                true
            }
            Attempt::Defer(reason) => {
                let entry = self.pending.entry(path.to_path_buf()).or_default();
                entry.grace_used += 1;
                if entry.grace_used > self.cfg.growing_grace {
                    // Never finished growing: a truncated drop, not a
                    // live write. Quarantine with the structured reason.
                    self.quarantine(path, &reason.to_string(), JsonValue::Null);
                    true
                } else {
                    false
                }
            }
            Attempt::Corrupt(report) => {
                // Decode damage is deterministic — retrying cannot
                // help. Quarantine wholesale with the skip breakdown.
                let detail = JsonValue::Object(vec![
                    (
                        "skipped".into(),
                        JsonValue::Object(
                            report
                                .skipped
                                .iter()
                                .map(|(r, &n)| (r.name().to_string(), JsonValue::Int(n as i128)))
                                .collect(),
                        ),
                    ),
                    ("resync_bytes".into(), JsonValue::Int(report.resync_bytes as i128)),
                    (
                        "convert_failures".into(),
                        JsonValue::Int(report.convert_failures as i128),
                    ),
                ]);
                self.quarantine(path, "corrupt", detail);
                true
            }
            Attempt::Io(e) => self.note_failed_attempt(path, &format!("io({e})")),
            Attempt::Panicked(msg) => {
                self.note_failed_attempt(path, &format!("panicked({msg})"))
            }
            Attempt::TimedOut => self.note_failed_attempt(path, "timeout"),
        }
    }

    /// Counts a timed-out / panicked / IO-failed attempt; quarantines
    /// after the retry budget, otherwise schedules a backed-off retry.
    fn note_failed_attempt(&mut self, path: &Path, why: &str) -> bool {
        let retries = self.cfg.retries;
        let (base, cap) = (self.cfg.backoff_base, self.cfg.backoff_cap);
        let entry = self.pending.entry(path.to_path_buf()).or_default();
        entry.attempts += 1;
        if entry.attempts > retries {
            self.quarantine(path, &format!("ingest_failed({why})"), JsonValue::Null);
            return true;
        }
        let attempts = entry.attempts;
        entry.not_before = Some(Instant::now() + backoff(base, cap, attempts, path));
        self.shared.recorder.counter(names::SERVE_FILES_RETRIED).inc();
        false
    }

    /// One ingest attempt on a worker thread, bounded by the configured
    /// timeout. A panicking worker is caught; a timed-out worker is
    /// kept in `abandoned` (its result goes nowhere) until it exits.
    fn attempt_with_timeout(&mut self, path: &Path) -> Attempt {
        let (tx, rx) = mpsc::channel();
        let owned = path.to_path_buf();
        let rib = self.rib.clone();
        let threads = self.cfg.threads;
        let worker = std::thread::Builder::new()
            .name("lpr-serve-ingest".to_string())
            .spawn(move || {
                let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| {
                    attempt_ingest(&owned, &rib, threads)
                }));
                let _ = tx.send(match outcome {
                    Ok(attempt) => attempt,
                    Err(payload) => Attempt::Panicked(panic_message(&payload)),
                });
            });
        let worker = match worker {
            Ok(worker) => worker,
            Err(e) => return Attempt::Io(format!("spawn: {e}")),
        };
        match rx.recv_timeout(self.cfg.ingest_timeout) {
            Ok(attempt) => {
                // The worker has sent its last word: the join is
                // immediate, and it caught its own panic.
                let _ = worker.join();
                attempt
            }
            Err(_) => {
                self.abandoned.push((path.to_path_buf(), worker));
                Attempt::TimedOut
            }
        }
    }

    /// Joins the abandoned workers that have exited and publishes how
    /// many still run (once per tick, after every attempt of the tick).
    fn reap_abandoned(&mut self) {
        let (exited, running): (Vec<_>, Vec<_>) =
            std::mem::take(&mut self.abandoned).into_iter().partition(|(_, w)| w.is_finished());
        for (_, worker) in exited {
            let _ = worker.join();
        }
        self.abandoned = running;
        self.shared.abandoned_workers.store(self.abandoned.len(), Ordering::SeqCst);
    }

    /// Moves `path` into `spool/quarantine/` with a structured
    /// `<name>.reason.json`, and flips the daemon degraded.
    fn quarantine(&mut self, path: &Path, reason: &str, detail: JsonValue) {
        let name = file_name(path);
        let qdir = self.cfg.spool.join("quarantine");
        let _ = std::fs::create_dir_all(&qdir);
        // Rename, fall back to copy+remove (cross-device spools).
        if std::fs::rename(path, qdir.join(&name)).is_err()
            && std::fs::copy(path, qdir.join(&name)).is_ok()
        {
            let _ = std::fs::remove_file(path);
        }
        let doc = JsonValue::Object(vec![
            ("file".into(), JsonValue::Str(name.clone())),
            ("reason".into(), JsonValue::Str(reason.to_string())),
            ("detail".into(), detail),
        ]);
        let _ = std::fs::write(qdir.join(format!("{name}.reason.json")), doc.render_pretty());
        self.quarantined.push((name, reason.to_string()));
        self.pending.remove(path);
        self.shared.recorder.counter(names::SERVE_FILES_QUARANTINED).inc();
        self.shared.degraded.store(true, Ordering::SeqCst);
    }

    /// Re-runs the pipeline back half over a clone of the windowed
    /// state and swaps in freshly rendered response bodies.
    fn rebuild_snapshot(&mut self) {
        let output = Pipeline::default().finish_stages(
            self.window.clone(),
            &[],
            None,
            lpr_par::ShardOptions::new(self.cfg.threads),
        );
        let processed = self.kept.len() + self.quarantined.len();
        let doc = JsonValue::Object(vec![
            (
                "service".into(),
                JsonValue::Object(vec![
                    (
                        "ticks".into(),
                        JsonValue::Int(self.shared.ticks.load(Ordering::SeqCst) as i128),
                    ),
                    (
                        "degraded".into(),
                        JsonValue::Bool(!self.quarantined.is_empty()),
                    ),
                    (
                        "window_cycles".into(),
                        JsonValue::Array(
                            self.window
                                .cycles()
                                .into_iter()
                                .map(|c| JsonValue::Int(c as i128))
                                .collect(),
                        ),
                    ),
                    ("next_cycle".into(), JsonValue::Int(self.next_cycle as i128)),
                    // The rebuild passes no follow-up snapshots, and a
                    // window of none applies no Persistence filter.
                    ("persistence_window".into(), JsonValue::Int(0)),
                ]),
            ),
            (
                "files".into(),
                JsonValue::Object(vec![
                    ("processed".into(), JsonValue::Int(processed as i128)),
                    ("kept".into(), JsonValue::Int(self.kept.len() as i128)),
                    ("quarantined".into(), JsonValue::Int(self.quarantined.len() as i128)),
                    ("pending".into(), JsonValue::Int(self.pending.len() as i128)),
                ]),
            ),
            (
                "kept_files".into(),
                JsonValue::Array(self.kept.iter().map(|f| JsonValue::Str(f.clone())).collect()),
            ),
            (
                "quarantined_files".into(),
                JsonValue::Array(
                    self.quarantined
                        .iter()
                        .map(|(f, r)| {
                            JsonValue::Object(vec![
                                ("file".into(), JsonValue::Str(f.clone())),
                                ("reason".into(), JsonValue::Str(r.clone())),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("pipeline".into(), snapshot_pipeline_json(&output)),
        ]);
        let rendered =
            Rendered { snapshot: doc.render(), per_as: per_as_json(&output).render() };
        *self.shared.snapshot.lock().expect("snapshot poisoned") = rendered;
    }
}

/// The daemon's judge of one spool file, the body of one ingest
/// attempt (it runs on a worker thread): a file that decodes without
/// damage is ingested, an empty or still-growing one is deferred, and
/// decode damage makes it corrupt. The index cache it writes lands next
/// to the file.
pub fn attempt_ingest(path: &Path, rib: &ip2as::Ip2AsTrie, threads: usize) -> Attempt {
    let corpus = match Corpus::open_with(std::slice::from_ref(&path), true, None) {
        Ok(corpus) => corpus,
        Err(e) => return Attempt::Io(e.to_string()),
    };
    if let Some(skipped) = corpus.skipped_files.first() {
        return Attempt::Defer(skipped.reason.clone());
    }
    let (state, report) = ingest_cycle(&corpus, rib, IngestOptions::new(threads), None);
    if report.skipped_total() > 0 || report.convert_failures > 0 || report.resync_bytes > 0 {
        return Attempt::Corrupt(report);
    }
    Attempt::Ingested(Box::new(state))
}

/// Exponential backoff with deterministic ±25% jitter: `base·2^(n-1)`
/// capped at `cap`, jittered by an xorshift of the file name (so
/// retry storms across files de-synchronize without any clock or RNG
/// dependency).
fn backoff(base: Duration, cap: Duration, attempt: u32, path: &Path) -> Duration {
    let exp = base.saturating_mul(1u32 << (attempt - 1).min(16)).min(cap);
    let mut seed =
        crate::render::fnv1a64(file_name(path).as_bytes()) ^ (attempt as u64).wrapping_mul(0x9e3779b97f4a7c15);
    // xorshift64
    seed ^= seed << 13;
    seed ^= seed >> 7;
    seed ^= seed << 17;
    let jitter_pm = (seed % 51) as i64 - 25; // -25%..=+25%
    let nanos = exp.as_nanos() as i128;
    let jittered = nanos + nanos * jitter_pm as i128 / 100;
    Duration::from_nanos(jittered.max(0) as u64)
}

fn file_name(path: &Path) -> String {
    path.file_name().map(|n| n.to_string_lossy().into_owned()).unwrap_or_default()
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_grows_caps_and_jitters_deterministically() {
        let base = Duration::from_millis(100);
        let cap = Duration::from_secs(2);
        let p = Path::new("a.warts");
        let b1 = backoff(base, cap, 1, p);
        let b4 = backoff(base, cap, 4, p);
        assert!(b1 >= Duration::from_millis(75) && b1 <= Duration::from_millis(125), "{b1:?}");
        assert!(b4 > b1);
        assert!(backoff(base, cap, 12, p) <= Duration::from_millis(2500), "capped (+jitter)");
        assert_eq!(backoff(base, cap, 1, p), backoff(base, cap, 1, p), "deterministic");
        assert_ne!(
            backoff(base, cap, 1, Path::new("b.warts")),
            backoff(base, cap, 1, p),
            "jitter de-synchronizes distinct files"
        );
    }
}
