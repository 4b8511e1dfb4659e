//! # lpr-obs — the workspace observability layer
//!
//! The LPR pipeline (paper Fig. 3) is a five-stage funnel whose whole
//! story is *where LSPs drop and why*; scaling it further needs a
//! measurement substrate. This crate is that substrate: a lightweight,
//! dependency-free instrumentation layer every other crate threads its
//! hot paths through.
//!
//! * [`StageGuard`] — the one stage timer: two clock readings give a
//!   stage's row and its `stage:<name>` span;
//! * [`Counter`], [`Gauge`], [`Histogram`] — thread-safe (atomic)
//!   metrics held in a [`Registry`] keyed by static names;
//! * [`Recorder`] — one run's worth of stages + metrics, aggregated
//!   into a [`RunTelemetry`];
//! * [`RunTelemetry`] — the machine-readable result, serialized with a
//!   hand-rolled JSON writer/parser (the repo is zero-serde by design);
//! * [`Tracer`] — hierarchical spans (`run → cycle → stage → shard`)
//!   and leveled events in a fixed-capacity journal, exported by
//!   [`export`] as Chrome `trace_event` JSON, folded stacks, or
//!   Prometheus text;
//! * [`names`] — the single vocabulary of metric names the workspace
//!   emits.
//!
//! ```
//! use lpr_obs::{Recorder, StageGuard};
//!
//! let rec = Recorder::new("demo-run");
//! let processed = rec.counter("records.processed");
//! let stage = StageGuard::open(Some(&rec), "parse");
//! for _ in 0..100 {
//!     processed.inc();
//! }
//! stage.finish_counts(100, 97); // input / output
//! let telemetry = rec.finish();
//! assert_eq!(telemetry.stages[0].input, 100);
//! let json = telemetry.to_json();
//! let back = lpr_obs::RunTelemetry::from_json(&json).unwrap();
//! assert_eq!(back, telemetry);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod export;
pub mod json;
pub mod names;
pub mod registry;
pub mod telemetry;
pub mod time;
pub mod tracing;

pub use registry::{Counter, Gauge, Histogram, Registry};
pub use telemetry::{Recorder, RunTelemetry, StageGuard, StageTelemetry};
pub use tracing::{FieldValue, Level, Span, SpanContext, TraceEvent, TraceSnapshot, Tracer};
