//! # lpr-serve — the continuous-measurement daemon
//!
//! The batch pipeline answers "what did this cycle's corpus classify
//! as"; real measurement infrastructures don't stop between cycles.
//! This crate turns the pipeline into a long-running service: a
//! supervised reconcile loop watches a **spool directory** for warts
//! corpus files, ingests each new file as one measurement cycle into a
//! **windowed** [`lpr_core::IngestState`] (old cycles age out via
//! [`lpr_core::IngestState::evict_before`] — no full recompute), and
//! serves classification snapshots, per-AS reports, health and
//! Prometheus metrics over a hand-rolled HTTP/1.1 endpoint on
//! `std::net` threads (the workspace is offline — no hyper, no tokio).
//!
//! ## Robustness contract
//!
//! - Every per-file ingest runs on a disposable worker thread under a
//!   **timeout**, with bounded **retries** and exponential backoff plus
//!   deterministic jitter. A panicking worker poisons only that file.
//!   A timed-out worker runs on, abandoned; no new attempt on its file
//!   starts until it exits, and `/healthz` counts those still running
//!   (`abandoned_ingest_workers`).
//! - Files that fail decode (corrupt bytes, failed conversions) are
//!   **quarantined wholesale** — moved to `spool/quarantine/` with a
//!   structured `*.reason.json` — and nothing from them is merged, so
//!   the served window stays byte-identical to a batch run over the
//!   clean subset.
//! - Empty and still-growing files ([`lpr_corpus::FileSkipReason`])
//!   are deferred, not failed; a file that never finishes growing is
//!   quarantined after a grace period.
//! - The endpoint **never answers 5xx**: readiness and degradation are
//!   body-level flags (`ready`, `degraded`), and the snapshot carries
//!   an exact kept/quarantined reconciliation at all times.
//! - Each request is served when it arrives. A thread blocks in
//!   `accept` and hands each connection to a handler thread of its
//!   own, at most [`http::MAX_IN_FLIGHT`] at once (429 with
//!   `Retry-After` beyond). One deadline, [`http::REQUEST_DEADLINE`], covers reading
//!   the head, routing and writing; a head not in by then is answered
//!   408. A client that trickles bytes holds one handler, never the
//!   endpoint.
//!
//! `lpr serve` is the CLI front end; `lpr-bench serve` soaks a live
//! daemon against chaos-corrupted spool drops and diffs its snapshots
//! against the batch pipeline.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod http;
pub mod render;
pub mod server;
pub mod signal;

pub use render::{batch_snapshot_pipeline, fnv1a64, per_as_json, snapshot_pipeline_json};
pub use server::{attempt_ingest, Attempt, Server, ServerHandle};

use std::path::PathBuf;
use std::time::Duration;

/// Daemon configuration. [`ServeConfig::new`] fills every knob with a
/// production-shaped default; benches and tests shrink the timings.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Directory watched for `*.warts` corpus drops. Quarantined files
    /// move to `<spool>/quarantine/`.
    pub spool: PathBuf,
    /// IP-to-AS mapping, as a RIB text file ([`ip2as::parse_rib`]).
    pub rib: PathBuf,
    /// Listen address (`127.0.0.1:0` picks a free port).
    pub addr: String,
    /// Measurement cycles kept in the window; older cycles are evicted.
    pub window: usize,
    /// Ingest worker threads per file.
    pub threads: usize,
    /// Reconcile-loop poll interval.
    pub tick: Duration,
    /// Per-attempt ingest timeout; a worker still running after this is
    /// abandoned and the attempt counts as failed.
    pub ingest_timeout: Duration,
    /// Retries after a timed-out / panicked / I/O-failed attempt (so a
    /// file gets `retries + 1` attempts before quarantine).
    pub retries: u32,
    /// First retry backoff; doubles per attempt.
    pub backoff_base: Duration,
    /// Backoff ceiling.
    pub backoff_cap: Duration,
    /// Scans a still-growing or empty file may sit in the spool before
    /// it is quarantined as never-finishing.
    pub growing_grace: u32,
}

impl ServeConfig {
    /// A daemon watching `spool` with the default knobs.
    pub fn new(spool: impl Into<PathBuf>, rib: impl Into<PathBuf>) -> Self {
        ServeConfig {
            spool: spool.into(),
            rib: rib.into(),
            addr: "127.0.0.1:0".to_string(),
            window: 4,
            threads: 1,
            tick: Duration::from_millis(500),
            ingest_timeout: Duration::from_secs(30),
            retries: 2,
            backoff_base: Duration::from_millis(250),
            backoff_cap: Duration::from_secs(5),
            growing_grace: 6,
        }
    }
}
