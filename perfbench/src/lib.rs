//! # perfbench — the repository benchmark
//!
//! Three workloads over the three end-to-end paths of the system:
//!
//! * `corpus-ooc` — warts files on disk → out-of-core per-AS report
//!   (mmap'd corpus, spilled persistence window, two ingest threads),
//!   checked against the in-memory path;
//! * `campaign-reveal` — simulated MDA-Lite campaign with TNT-style
//!   revelation → report;
//! * `serve-spool` — open-loop spool drops into an in-process `lpr
//!   serve` daemon, read back by a closed-loop `/snapshot` client.
//!
//! An untraced run (`--trace 0`) reports the end-to-end metrics
//! ([`END_TO_END`]); a traced run (`--trace 1`) re-runs the workload
//! layer by layer with a span around each public call and reports the
//! per-layer metrics ([`PER_LAYER`]). Every run checks its outputs.
//! See `README.md` beside this crate for what each metric means on each
//! workload.

#![deny(unsafe_code)]

pub mod batch;
pub mod inputs;
pub mod layers;
pub mod serve;
pub mod stats;
pub mod sys;

use lpr_obs::json::JsonValue;
use std::collections::BTreeMap;
use std::path::PathBuf;

#[global_allocator]
static ALLOC: sys::counting_alloc::CountingAlloc = sys::counting_alloc::CountingAlloc;

/// End-to-end metrics `(name, unit)`, reported by every untraced run.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("traces_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
    ("drop_visible_ms.p50", "ms"),
    ("drop_visible_ms.p90", "ms"),
    ("snapshot_get_ms.p50", "ms"),
    ("snapshot_get_ms.p90", "ms"),
];

/// Per-layer metrics `(name, unit)`, reported by every traced run (0
/// where a workload does not run the layer).
pub const PER_LAYER: [(&str, &str); 43] = [
    ("warts.decode_s", "s"),
    ("warts.allocs_per_record", "count"),
    ("corpus.index_build_s", "s"),
    ("corpus.open_s", "s"),
    ("corpus.ingest_s", "s"),
    ("corpus.spill_s", "s"),
    ("tunnel.extract_s", "s"),
    ("ip2as.lookups", "count"),
    ("ip2as.lookup_s", "s"),
    ("filter.attribute_s", "s"),
    ("filter.incomplete.kept", "count"),
    ("filter.intra_as.kept", "count"),
    ("filter.target_as.kept", "count"),
    ("filter.transit_diversity_s", "s"),
    ("filter.transit_diversity.kept", "count"),
    ("filter.snapshot_keys_s", "s"),
    ("filter.persistence_s", "s"),
    ("filter.persistence.kept", "count"),
    ("classify.build_iotps_s", "s"),
    ("classify.classify_s", "s"),
    ("classify.iotps", "count"),
    ("reveal.detect_s", "s"),
    ("reveal.apply_s", "s"),
    ("reveal.upgraded", "count"),
    ("report.build_s", "s"),
    ("report.render_s", "s"),
    ("netsim.world_s", "s"),
    ("netsim.spf_s", "s"),
    ("netsim.spf_cache.hit_ratio", "ratio"),
    ("netsim.snapshot_s", "s"),
    ("netsim.probes_sent", "count"),
    ("netsim.probes_per_trace", "ratio"),
    ("netsim.pairs_pruned_ratio", "ratio"),
    ("netsim.revealed_per_probe", "ratio"),
    ("serve.index_s", "s"),
    ("serve.ingest_s", "s"),
    ("serve.rebuild_s", "s"),
    ("serve.render_s", "s"),
    ("serve.healthz_get_ms.p50", "ms"),
    ("serve.backlog.max", "count"),
    ("load.late_ms.max", "ms"),
    ("unaccounted_s", "s"),
    ("trace_overhead_ratio", "ratio"),
];

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Warts on disk → out-of-core report.
    CorpusOoc,
    /// Simulated campaign with revelation → report.
    CampaignReveal,
    /// Spool drops → served snapshot.
    ServeSpool,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::CorpusOoc,
        Workload::CampaignReveal,
        Workload::ServeSpool,
    ];

    /// The command-line spelling.
    pub fn name(self) -> &'static str {
        match self {
            Workload::CorpusOoc => "corpus-ooc",
            Workload::CampaignReveal => "campaign-reveal",
            Workload::ServeSpool => "serve-spool",
        }
    }

    /// Parses the command-line spelling.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// One run's parameters.
#[derive(Clone, Debug)]
pub struct Config {
    /// The workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Measured window, s.
    pub seconds: f64,
    /// Traced (per-layer) run.
    pub trace: bool,
    /// World scale of the batch workloads (serve drops are scale 1).
    pub scale: usize,
    /// Scratch directory for inputs; removed when the run ends.
    pub work: PathBuf,
}

/// Input sizes of one run.
#[derive(Clone, Copy, Debug, Default)]
pub struct InputSizes {
    /// Traces analysed per report.
    pub traces: u64,
    /// Input files.
    pub files: u64,
    /// Input bytes.
    pub bytes: u64,
}

/// Everything one run measured and checked.
#[derive(Clone, Debug, Default)]
pub struct Outcome {
    /// Input sizes.
    pub inputs: InputSizes,
    /// Raw timing samples `(name, unit, samples)`, summarised on output.
    pub timings: Vec<(String, &'static str, Vec<f64>)>,
    /// Reported metric values by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Named output checks and whether they passed.
    pub checks: Vec<(String, bool)>,
    /// Operations attempted (iterations, drops, requests, checks).
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
}

impl Outcome {
    /// Records a check; a failed check is a failed operation.
    pub fn check(&mut self, name: impl Into<String>, ok: bool) {
        let name = name.into();
        if !ok {
            eprintln!("perfbench: check failed: {name}");
            self.failed += 1;
        }
        self.attempted += 1;
        self.checks.push((name, ok));
    }

    /// Records the raw samples behind a timing.
    pub fn timing(&mut self, name: &str, unit: &'static str, samples: &[f64]) {
        self.timings
            .push((name.to_string(), unit, samples.to_vec()));
    }

    /// Records the set-up samples; `setup_s` is their median.
    pub fn setup(&mut self, samples: &[f64]) {
        self.timing("setup_s", "s", samples);
        self.metrics.insert("setup_s", stats::median(samples));
    }

    /// Whether every check passed and no operation failed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.checks.iter().all(|(_, ok)| *ok)
    }
}

/// Set-up repetitions: at least this many...
const SETUP_MIN_REPEATS: usize = 3;
/// ...covering at least this much wall time, s...
const SETUP_MIN_S: f64 = 0.25;
/// ...and never more than this many.
const SETUP_MAX_REPEATS: usize = 200;

/// Repeats a set-up step and returns its samples; `setup_s` is their
/// median. `step` returns the duration of its measured part, s (work it
/// does around that part, such as undoing the previous repetition, is
/// not counted).
pub fn repeat_setup(mut step: impl FnMut() -> Result<f64, String>) -> Result<Vec<f64>, String> {
    let started = std::time::Instant::now();
    let mut samples = Vec::new();
    while samples.len() < SETUP_MIN_REPEATS
        || (samples.len() < SETUP_MAX_REPEATS && started.elapsed().as_secs_f64() < SETUP_MIN_S)
    {
        samples.push(step()?);
    }
    Ok(samples)
}

/// Share of the measured window the batch workloads give to repeating
/// their set-up between iterations.
const SETUP_SHARE: f64 = 0.1;
/// Set-up repetitions between two iterations, at most.
const SETUP_SLOT_MAX: usize = 64;

/// Set-up samples gathered over a whole run: the first set-up plus
/// repetitions between iterations. On a shared host the speed of one
/// instant is not the speed of the run, so `setup_s` is a median over
/// samples spread across the measured window like every other timing.
pub struct SetupSamples {
    samples: Vec<f64>,
    /// Time spent in repetitions between iterations, s.
    spent_s: f64,
}

impl SetupSamples {
    /// Starts from the set-up before the first iteration.
    pub fn new(first: f64) -> SetupSamples {
        SetupSamples {
            samples: vec![first],
            spent_s: 0.0,
        }
    }

    /// Repeats `step` between two iterations while the repetitions have
    /// taken less than [`SETUP_SHARE`] of the `elapsed_s` measured so far
    /// (at most [`SETUP_SLOT_MAX`] times).
    pub fn slot(
        &mut self,
        elapsed_s: f64,
        step: &mut dyn FnMut() -> Result<f64, String>,
    ) -> Result<(), String> {
        let mut n = 0;
        while n < SETUP_SLOT_MAX && self.spent_s < SETUP_SHARE * elapsed_s {
            let s = step()?;
            self.spent_s += s;
            self.samples.push(s);
            n += 1;
        }
        Ok(())
    }

    /// Every sample.
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }
}

/// Runs one workload, removing its scratch directory afterwards.
pub fn run(cfg: &Config) -> Result<Outcome, String> {
    std::fs::create_dir_all(&cfg.work).map_err(|e| format!("{}: {e}", cfg.work.display()))?;
    let result = match cfg.workload {
        Workload::CorpusOoc => batch::corpus_ooc(cfg),
        Workload::CampaignReveal => batch::campaign_reveal(cfg),
        Workload::ServeSpool => serve::serve_spool(cfg),
    };
    let _ = std::fs::remove_dir_all(&cfg.work);
    // The shared parent goes too once no other run is using it.
    if let Some(parent) = cfg.work.parent() {
        let _ = std::fs::remove_dir(parent);
    }
    result
}

fn float(v: f64) -> JsonValue {
    JsonValue::Float(if v.is_finite() { v } else { 0.0 })
}

fn int(v: u64) -> JsonValue {
    JsonValue::Int(v as i128)
}

fn obj(fields: Vec<(&str, JsonValue)>) -> JsonValue {
    JsonValue::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// The metric table a run reports: end-to-end when untraced, per-layer
/// when traced.
pub fn metric_table(trace: bool) -> &'static [(&'static str, &'static str)] {
    if trace {
        &PER_LAYER
    } else {
        &END_TO_END
    }
}

/// The result line: `correct`, `attempted`, `failed` and every metric of
/// the run's table with its unit. Errors when the workload left an
/// end-to-end metric unmeasured.
pub fn result_line(cfg: &Config, out: &Outcome) -> Result<String, String> {
    let mut metrics = Vec::new();
    for &(name, unit) in metric_table(cfg.trace) {
        let value = match out.metrics.get(name) {
            Some(&v) => v,
            None if cfg.trace => 0.0,
            None => {
                return Err(format!(
                    "{}: metric {name} was not measured",
                    cfg.workload.name()
                ))
            }
        };
        metrics.push((
            name,
            obj(vec![
                ("value", float(value)),
                ("unit", JsonValue::Str(unit.into())),
            ]),
        ));
    }
    Ok(obj(vec![
        ("correct", JsonValue::Bool(out.correct())),
        ("attempted", int(out.attempted.max(1))),
        ("failed", int(out.failed)),
        ("metrics", obj(metrics)),
    ])
    .render())
}

/// The detail record printed before the result line: machine, revision,
/// seed, input sizes, every timing as median + qualifying tail + n, the
/// checks and the failure ratio.
pub fn detail_line(cfg: &Config, out: &Outcome, machine: &sys::Machine, rev: &str) -> String {
    let timings = out
        .timings
        .iter()
        .filter_map(|(name, unit, samples)| {
            let s = stats::Summary::of(samples)?;
            let (tail_pct, tail) = match s.tail {
                Some((p, v)) => (float(p), float(v)),
                None => (JsonValue::Null, JsonValue::Null),
            };
            Some((
                name.as_str(),
                obj(vec![
                    ("unit", JsonValue::Str(unit.to_string())),
                    ("n", int(s.n as u64)),
                    ("p50", float(s.p50)),
                    ("tail_pct", tail_pct),
                    ("tail", tail),
                ]),
            ))
        })
        .collect();
    let checks = out
        .checks
        .iter()
        .map(|(name, ok)| (name.as_str(), JsonValue::Bool(*ok)))
        .collect();
    obj(vec![
        ("workload", JsonValue::Str(cfg.workload.name().into())),
        ("trace", JsonValue::Bool(cfg.trace)),
        ("seed", int(cfg.seed)),
        ("seconds", float(cfg.seconds)),
        ("scale", int(cfg.scale as u64)),
        (
            "machine",
            obj(vec![
                ("nproc", int(machine.nproc as u64)),
                ("cpu_model", JsonValue::Str(machine.cpu_model.clone())),
                ("kernel", JsonValue::Str(machine.kernel.clone())),
            ]),
        ),
        ("git_rev", JsonValue::Str(rev.to_string())),
        (
            "inputs",
            obj(vec![
                ("traces", int(out.inputs.traces)),
                ("files", int(out.inputs.files)),
                ("bytes", int(out.inputs.bytes)),
            ]),
        ),
        ("timings", obj(timings)),
        ("checks", obj(checks)),
        (
            "failed_ratio",
            float(out.failed as f64 / out.attempted.max(1) as f64),
        ),
    ])
    .render()
}
