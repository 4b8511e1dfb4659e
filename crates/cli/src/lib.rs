//! # lpr-cli — the `lpr` command-line tool
//!
//! Runs the LPR analysis on scamper **warts** dumps, the way the paper
//! does on CAIDA Archipelago data:
//!
//! ```text
//! lpr classify --rib rib.txt cycleX.warts [--next cycleX+1.warts]...
//!              [--alias-rescue] [--trees] [--per-as]
//! lpr stats    --rib rib.txt cycleX.warts [--next ...]   filter survival
//! lpr tunnels  cycleX.warts                              dump explicit tunnels
//! lpr dump     file.warts                                scamper-style text dump
//! lpr info     file.warts                                record inventory
//! lpr demo     --out demo.warts --rib-out rib.txt        generate sample data
//! lpr help
//! ```
//!
//! The RIB file is the plain `prefix asn` snapshot format of the
//! `ip2as` crate (one routed prefix per line, `#` comments).
//!
//! The library entry point ([`run`]) takes the argument vector and a
//! writer, so the whole CLI is unit-testable without spawning
//! processes.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use lpr_core::prelude::*;
use lpr_corpus::{Corpus, DecodeReport, FileSkipReason};
use std::fmt;
use std::io::Write;
use std::path::{Path, PathBuf};

mod commands;

pub use commands::demo::{write_demo_files, write_demo_files_with};

/// A CLI failure, printable to the user.
#[derive(Debug)]
pub struct CliError(pub String);

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for CliError {}

impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> Self {
        CliError(e.to_string())
    }
}

impl From<warts::WartsError> for CliError {
    fn from(e: warts::WartsError) -> Self {
        CliError(format!("warts: {e}"))
    }
}

fn err(msg: impl Into<String>) -> CliError {
    CliError(msg.into())
}

/// How a successful run ended — the CLI's exit-code taxonomy.
///
/// | status | exit code | meaning |
/// |---|---|---|
/// | `Clean` | 0 | every record decoded, every trace entered the pipeline |
/// | `Degraded` | 3 | the run completed, but some input was skipped or quarantined |
///
/// Fatal errors (bad arguments, unreadable files, strict-mode decode
/// failures, `--fail-fast` degradation) exit 1 via [`CliError`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RunStatus {
    /// Full success: nothing skipped, nothing quarantined.
    Clean,
    /// Success with quarantine: results are valid over the surviving
    /// input, and the degradation is itemised on stdout.
    Degraded,
}

impl RunStatus {
    /// The process exit code for this status.
    pub fn exit_code(self) -> i32 {
        match self {
            RunStatus::Clean => 0,
            RunStatus::Degraded => 3,
        }
    }
}

/// What loading the inputs skipped, dropped or set aside.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct LoadReport {
    /// Decode accounting of the cycle and every `--next` snapshot:
    /// records skipped, resync bytes and failed conversions (trace
    /// counts too, but only the cycle's ingest counts `mpls_traces`).
    pub decode: DecodeReport,
    /// Input files set aside unread because they end in a half-written
    /// record, with the reason. Empty inputs contribute nothing and are
    /// not listed.
    pub set_aside: Vec<(PathBuf, FileSkipReason)>,
}

impl LoadReport {
    /// Whether nothing was skipped, dropped or set aside.
    pub fn is_clean(&self) -> bool {
        self.decode.skipped.is_empty()
            && self.decode.convert_failures == 0
            && self.set_aside.is_empty()
    }

    /// The batch verdict on one opened corpus (the cycle, or a `--next`
    /// snapshot) and the `report` of decoding it. Without `keep_going`
    /// a skipped record, a failed conversion or a set-aside file is
    /// fatal and the error names the file; with it they are tallied
    /// here.
    fn admit(
        &mut self,
        keep_going: bool,
        corpus: &Corpus,
        report: DecodeReport,
    ) -> Result<(), CliError> {
        let set_aside = corpus.skipped_files.iter().filter(|f| f.reason != FileSkipReason::Empty);
        if !keep_going {
            if let Some(f) = corpus.files.iter().find(|f| f.index.skipped_total() > 0) {
                return Err(err(format!(
                    "{}: {} records skipped (use --keep-going to accept)",
                    f.path.display(),
                    f.index.skipped_total(),
                )));
            }
            if report.convert_failures > 0 {
                let paths: Vec<String> =
                    corpus.files.iter().map(|f| f.path.display().to_string()).collect();
                return Err(err(format!(
                    "{}: {} conversions failed (use --keep-going to accept)",
                    paths.join(", "),
                    report.convert_failures,
                )));
            }
            if let Some(f) = set_aside.clone().next() {
                return Err(err(format!(
                    "{}: set aside ({}); use --keep-going to accept",
                    f.path.display(),
                    f.reason,
                )));
            }
        }
        self.decode.merge(report);
        self.set_aside.extend(set_aside.map(|f| (f.path.clone(), f.reason.clone())));
        Ok(())
    }
}

/// Everything [`run_pipeline`] produced: the pipeline output (with its
/// quarantine accounting), the load-stage degradation report and the
/// `--trees` view.
#[derive(Debug)]
pub struct PipelineArtifacts {
    /// Traces that entered the pipeline.
    pub trace_count: u64,
    /// The classified pipeline output.
    pub output: PipelineOutput,
    /// What loading skipped (empty in strict mode — skips are fatal
    /// there).
    pub load: LoadReport,
    /// With `--trees`, the egress-rooted LSP-trees over the LSPs that
    /// survive the per-LSP filters (tree analysis skips
    /// TransitDiversity on purpose, §5); empty otherwise.
    pub trees: Vec<lpr_core::tree::FecTree>,
}

impl PipelineArtifacts {
    /// Whether any input was skipped or quarantined anywhere.
    pub fn is_degraded(&self) -> bool {
        !self.load.is_clean() || !self.output.degraded.is_clean()
    }

    /// The [`RunStatus`] this run ends with.
    pub fn status(&self) -> RunStatus {
        if self.is_degraded() {
            RunStatus::Degraded
        } else {
            RunStatus::Clean
        }
    }
}

/// Parsed command-line options shared by the analysis subcommands.
#[derive(Debug, Default)]
pub struct Options {
    /// Input warts files (the cycle to classify).
    pub inputs: Vec<String>,
    /// Follow-up snapshot files for the Persistence filter; their
    /// number is the persistence window.
    pub next: Vec<String>,
    /// RIB snapshot path.
    pub rib: Option<String>,
    /// Enable the §5 alias rescue.
    pub alias_rescue: bool,
    /// Also run the egress-rooted LSP-tree analysis.
    pub trees: bool,
    /// Print per-AS tallies.
    pub per_as: bool,
    /// Aggregate IOTPs at the router level via label-based alias
    /// resolution (§5).
    pub router_level: bool,
    /// Write machine-readable run telemetry (stage timings, counters)
    /// to this path as JSON.
    pub metrics: Option<String>,
    /// Write a Chrome `trace_event` JSON span trace of the run
    /// (`run → cycle → stage → shard`) to this path; load it in
    /// `chrome://tracing` or Perfetto.
    pub trace_out: Option<String>,
    /// Minimum level journaled by `--trace-out`
    /// (debug/info/warn/error; default info).
    pub trace_level: Option<lpr_obs::Level>,
    /// Write a Prometheus-style text exposition of the run's
    /// counter/gauge/histogram registry to this path.
    pub prom_out: Option<String>,
    /// Print per-stage progress lines to stderr as the run finishes.
    pub progress: bool,
    /// Worker threads for the parallel pipeline (`None` = the machine's
    /// available parallelism; `1` forces the sequential path). The
    /// output is byte-identical for every value.
    pub threads: Option<usize>,
    /// Accept degraded input: skip corrupt records (resyncing on the
    /// magic), drop traces that fail conversion and set aside files
    /// that end in a half-written record, instead of aborting. The run
    /// then reports what was skipped and exits with the
    /// success-with-quarantine code.
    pub keep_going: bool,
    /// Treat any degradation — skipped records, failed conversions,
    /// quarantined traces — as fatal instead of quarantining it.
    pub fail_fast: bool,
    /// Spill the Persistence window's key sets to sorted files under
    /// this directory instead of holding them in memory.
    pub spill_dir: Option<String>,
}

impl Options {
    /// Parses `args` after the subcommand name.
    pub fn parse(args: &[String]) -> Result<Options, CliError> {
        let mut o = Options::default();
        let mut it = args.iter();
        while let Some(a) = it.next() {
            match a.as_str() {
                "--rib" => o.rib = Some(take(&mut it, "--rib")?),
                "--next" => o.next.push(take(&mut it, "--next")?),
                "--alias-rescue" => o.alias_rescue = true,
                "--keep-going" => o.keep_going = true,
                "--fail-fast" => o.fail_fast = true,
                "--spill-dir" => o.spill_dir = Some(take(&mut it, "--spill-dir")?),
                "--trees" => o.trees = true,
                "--per-as" => o.per_as = true,
                "--router-level" => o.router_level = true,
                "--metrics" => o.metrics = Some(take(&mut it, "--metrics")?),
                "--trace-out" => o.trace_out = Some(take(&mut it, "--trace-out")?),
                "--trace-level" => {
                    let level = take(&mut it, "--trace-level")?;
                    o.trace_level = Some(lpr_obs::Level::parse(&level).ok_or_else(|| {
                        err("--trace-level wants debug, info, warn or error")
                    })?);
                }
                "--prom-out" => o.prom_out = Some(take(&mut it, "--prom-out")?),
                "--progress" => o.progress = true,
                "--threads" => {
                    let n: usize = take(&mut it, "--threads")?
                        .parse()
                        .map_err(|_| err("--threads wants an integer"))?;
                    if n == 0 {
                        return Err(err("--threads wants at least 1"));
                    }
                    o.threads = Some(n);
                }
                flag if flag.starts_with("--") => {
                    return Err(err(format!("unknown flag {flag}")))
                }
                path => o.inputs.push(path.to_string()),
            }
        }
        if o.keep_going && o.fail_fast {
            return Err(err("--keep-going and --fail-fast contradict each other"));
        }
        Ok(o)
    }
}

fn take(it: &mut std::slice::Iter<'_, String>, flag: &str) -> Result<String, CliError> {
    it.next().cloned().ok_or_else(|| err(format!("{flag} wants a value")))
}

/// Loads the RIB snapshot into a longest-prefix-match trie.
pub fn load_rib(path: &str) -> Result<ip2as::Ip2AsTrie, CliError> {
    let text = std::fs::read_to_string(path).map_err(|e| err(format!("{path}: {e}")))?;
    ip2as::parse_rib(&text).map_err(|e| err(format!("{path}: {e}")))
}

/// Opens `paths` as one indexed corpus, caching each regular file's
/// `.lpridx` beside it. A killed run can leave an orphaned
/// `.lpridx.tmp` there; each input's own is removed first, and nothing
/// else in its directory is touched.
fn open_corpus(
    paths: &[String],
    recorder: Option<&lpr_obs::Recorder>,
) -> Result<Corpus, CliError> {
    for path in paths.iter().map(Path::new).filter(|p| p.is_file()) {
        if std::fs::remove_file(lpr_corpus::RecordIndex::tmp_cache_path(path)).is_ok() {
            if let Some(rec) = recorder {
                rec.counter(lpr_obs::names::CORPUS_INDEX_SWEPT).inc();
            }
        }
    }
    Ok(Corpus::open_with(paths, true, recorder)?)
}

/// Runs the analysis pipeline an analysis subcommand needs.
pub fn run_pipeline(o: &Options) -> Result<PipelineArtifacts, CliError> {
    run_pipeline_recorded(o, None)
}

/// [`run_pipeline`] with instrumentation: loading and every pipeline
/// stage land in `recorder` (see `lpr_obs`).
///
/// Every input goes through one path: the cycle's files are
/// memory-mapped and indexed ([`Corpus`]), their trace records decode
/// sharded straight out of the mappings, and each trace streams through
/// ingest without a trace list ever being built. Each `--next` snapshot
/// is opened the same way and becomes an in-memory key set or, with
/// `--spill-dir`, a sorted spill file. Each corpus gets the batch
/// verdict of [`LoadReport`]: skipped records, failed conversions and
/// files ending in a half-written record are fatal without
/// `--keep-going`. An empty input contributes nothing and is clean.
pub fn run_pipeline_recorded(
    o: &Options,
    recorder: Option<&lpr_obs::Recorder>,
) -> Result<PipelineArtifacts, CliError> {
    use lpr_core::pipeline::PersistenceWindow;
    if o.inputs.is_empty() {
        return Err(err("no input warts files (see `lpr help`)"));
    }
    let rib_path = o.rib.as_ref().ok_or_else(|| err("--rib <file> is required"))?;
    let rib = load_rib(rib_path)?;
    let threads = o.threads.unwrap_or_else(lpr_par::available_threads);
    if let Some(dir) = &o.spill_dir {
        // Spill files a killed run left behind are never valid input.
        let _ = lpr_corpus::sweep_stale(Path::new(dir), recorder);
    }
    // One classify/stats invocation processes one cycle; its span nests
    // under the subcommand's `run:` root and everything the pipeline
    // opens (stage, shard spans) nests under it in turn.
    let disabled = lpr_obs::Tracer::disabled();
    let tracer = recorder.map_or(&disabled, |r| r.tracer());
    let outer_parent = tracer.default_parent();
    let cycle_span = tracer.span("cycle");
    tracer.set_default_parent(cycle_span.context());

    let sw = lpr_obs::Stopwatch::start();
    let open_span = tracer.span("stage:CorpusOpen");
    let corpus = open_corpus(&o.inputs, recorder)?;
    drop(open_span);
    let (ingest, report) =
        lpr_corpus::ingest_cycle(&corpus, &rib, lpr_corpus::IngestOptions::new(threads), recorder);
    let trace_count = ingest.traces_in;
    if let Some(rec) = recorder {
        rec.record_stage("LoadTraces", sw.elapsed_us(), o.inputs.len() as u64, trace_count);
        rec.counter(lpr_obs::names::CLI_INPUT_BYTES).add(corpus.total_bytes());
        rec.counter(lpr_obs::names::CLI_INPUT_FILES).add(o.inputs.len() as u64);
        rec.counter(lpr_obs::names::CLI_CONVERT_FAILURES).add(report.convert_failures);
        report.record(rec);
    }
    let mut load = LoadReport::default();
    load.admit(o.keep_going, &corpus, report)?;
    // Unmap the cycle before the window's snapshots are mapped.
    drop(corpus);
    let trees =
        if o.trees { lpr_core::tree::build_fec_trees(&ingest.lsps) } else { Vec::new() };

    let mut pipeline =
        Pipeline::new(FilterConfig { persistence_window: o.next.len(), ..Default::default() });
    if o.alias_rescue {
        pipeline = pipeline.with_alias_rescue();
    }
    let shard = lpr_par::ShardOptions::new(threads);
    let output = if let Some(dir) = &o.spill_dir {
        let mut spilled = Vec::with_capacity(o.next.len());
        for (i, path) in o.next.iter().enumerate() {
            let next = open_corpus(std::slice::from_ref(path), recorder)?;
            let (keys, report) = lpr_corpus::spill_snapshot_keys_reported(
                &next,
                Path::new(dir),
                &format!("next{i}"),
                threads,
                recorder,
            )?;
            load.admit(o.keep_going, &next, report)?;
            spilled.push(keys);
        }
        let window = PersistenceWindow::Spilled(&spilled);
        pipeline.finish_stages_windowed(ingest, window, recorder, shard)?
    } else {
        let mut keys = Vec::with_capacity(o.next.len());
        for path in &o.next {
            let next = open_corpus(std::slice::from_ref(path), recorder)?;
            let (snapshot, report) = lpr_corpus::snapshot_keys_reported(&next, threads);
            load.admit(o.keep_going, &next, report)?;
            keys.push(snapshot);
        }
        pipeline.finish_stages_windowed(ingest, PersistenceWindow::Mem(&keys), recorder, shard)?
    };
    tracer.set_default_parent(outer_parent);
    drop(cycle_span);
    let artifacts = PipelineArtifacts { trace_count, output, load, trees };
    if o.fail_fast && artifacts.is_degraded() {
        return Err(err(format!(
            "--fail-fast: input degraded ({} records skipped, {} conversions failed, {} traces quarantined)",
            artifacts.load.decode.skipped_total(),
            artifacts.load.decode.convert_failures,
            artifacts.output.degraded.quarantined_total(),
        )));
    }
    Ok(artifacts)
}

/// Writes the human-readable degradation summary an analysis subcommand
/// prints when its input was degraded: what `load` skipped, dropped or
/// set aside, and what `degraded` quarantined. Prints nothing for a
/// clean run.
pub fn write_degradation_summary(
    load: &LoadReport,
    degraded: &DegradedReport,
    w: &mut dyn Write,
) -> Result<(), CliError> {
    if load.is_clean() && degraded.is_clean() {
        return Ok(());
    }
    writeln!(w, "\ninput degraded (exit code 3):")?;
    if load.decode.skipped_total() > 0 {
        let detail: Vec<String> =
            load.decode.skipped.iter().map(|(r, n)| format!("{}={}", r.name(), n)).collect();
        writeln!(
            w,
            "  skipped records: {} [{}] ({} resync bytes)",
            load.decode.skipped_total(),
            detail.join(" "),
            load.decode.resync_bytes,
        )?;
    }
    if load.decode.convert_failures > 0 {
        writeln!(w, "  failed conversions: {}", load.decode.convert_failures)?;
    }
    for (path, reason) in &load.set_aside {
        writeln!(w, "  set aside unread: {} ({reason})", path.display())?;
    }
    if degraded.quarantined_total() > 0 {
        let detail: Vec<String> =
            degraded.quarantined.iter().map(|(r, n)| format!("{}={}", r.name(), n)).collect();
        writeln!(
            w,
            "  quarantined traces: {} of {} [{}]",
            degraded.quarantined_total(),
            degraded.ingested(),
            detail.join(" "),
        )?;
    }
    Ok(())
}

/// Builds the recorder an analysis subcommand needs — `Some` only when
/// `--metrics`, `--progress`, `--trace-out` or `--prom-out` asked for
/// one. With `--trace-out` the recorder carries an enabled tracer at
/// the `--trace-level` threshold (default info).
pub fn recorder_for(o: &Options, label: &str) -> Option<lpr_obs::Recorder> {
    let wanted =
        o.metrics.is_some() || o.progress || o.trace_out.is_some() || o.prom_out.is_some();
    wanted.then(|| {
        let mut rec = lpr_obs::Recorder::new(label);
        if o.trace_out.is_some() {
            let level = o.trace_level.unwrap_or(lpr_obs::Level::Info);
            rec = rec.with_tracer(lpr_obs::Tracer::new(level));
        }
        rec
    })
}

/// Opens the root `run` span of a traced invocation and makes it the
/// tracer's default parent, so every span the pipeline opens nests
/// under it. Returns `None` (and journals nothing) without a recorder
/// or tracer.
pub fn open_run_span(recorder: Option<&lpr_obs::Recorder>, name: &str) -> Option<lpr_obs::Span> {
    let rec = recorder?;
    if !rec.tracer().is_enabled() {
        return None;
    }
    let span = rec.tracer().span(format!("run:{name}"));
    rec.tracer().set_default_parent(span.context());
    Some(span)
}

/// Finalises telemetry: prints `--progress` stage lines to stderr and
/// writes the `--metrics` JSON, `--trace-out` Chrome trace and
/// `--prom-out` exposition files.
pub fn emit_telemetry(o: &Options, recorder: Option<lpr_obs::Recorder>) -> Result<(), CliError> {
    let Some(recorder) = recorder else { return Ok(()) };
    let tracer = recorder.tracer().clone();
    let telemetry = recorder.finish();
    if o.progress {
        for s in &telemetry.stages {
            eprintln!(
                "[lpr] {:<18} {:>8} -> {:<8} {:>8} us",
                s.name, s.input, s.output, s.wall_us,
            );
        }
        eprintln!("[lpr] total {} us", telemetry.total_wall_us);
    }
    if let Some(path) = &o.metrics {
        std::fs::write(path, telemetry.to_json())
            .map_err(|e| err(format!("{path}: {e}")))?;
    }
    if let Some(path) = &o.trace_out {
        let snapshot = tracer.snapshot();
        if snapshot.dropped > 0 {
            eprintln!(
                "[lpr] trace journal wrapped: {} oldest events overwritten",
                snapshot.dropped
            );
        }
        std::fs::write(path, lpr_obs::export::chrome_trace(&snapshot))
            .map_err(|e| err(format!("{path}: {e}")))?;
    }
    if let Some(path) = &o.prom_out {
        std::fs::write(path, lpr_obs::export::prometheus_text(&telemetry))
            .map_err(|e| err(format!("{path}: {e}")))?;
    }
    Ok(())
}

/// Validates `--trace-out` files: parses each as the canonical Chrome
/// `trace_event` document, checks the round trip is byte-identical,
/// and prints an event census — the CI smoke test for trace emission.
fn trace_check(paths: &[String], w: &mut dyn Write) -> Result<(), CliError> {
    if paths.is_empty() {
        return Err(err("trace-check wants at least one trace file"));
    }
    for path in paths {
        let text = std::fs::read_to_string(path).map_err(|e| err(format!("{path}: {e}")))?;
        let trace = lpr_obs::export::ChromeTrace::parse(&text)
            .map_err(|e| err(format!("{path}: not a canonical trace document: {e}")))?;
        if trace.to_json() != text {
            return Err(err(format!("{path}: round trip is not byte-identical")));
        }
        let spans = trace.events.iter().filter(|e| e.ph == "X").count();
        let instants = trace.events.iter().filter(|e| e.ph == "i").count();
        writeln!(w, "{path}: ok ({spans} spans, {instants} events)")?;
    }
    Ok(())
}

/// Entry point: dispatches a full argument vector. `Ok` carries the
/// [`RunStatus`] whose [`RunStatus::exit_code`] the process should exit
/// with; `Err` means exit code 1.
pub fn run(args: &[String], w: &mut dyn Write) -> Result<RunStatus, CliError> {
    let (cmd, rest) = match args.split_first() {
        Some((c, rest)) => (c.as_str(), rest),
        None => ("help", &[] as &[String]),
    };
    match cmd {
        "classify" => commands::classify::run(&Options::parse(rest)?, w),
        "stats" => commands::stats::run(&Options::parse(rest)?, w),
        "tunnels" => commands::tunnels::run(&Options::parse(rest)?, w),
        "info" => commands::info::run(&Options::parse(rest)?, w).map(|()| RunStatus::Clean),
        "dump" => commands::dump::run(&Options::parse(rest)?, w).map(|()| RunStatus::Clean),
        "demo" => commands::demo::run(rest, w).map(|()| RunStatus::Clean),
        "serve" => commands::serve::run(rest, w).map(|_code| RunStatus::Clean),
        "trace-check" => trace_check(rest, w).map(|()| RunStatus::Clean),
        "help" | "--help" | "-h" => {
            writeln!(w, "{}", HELP)?;
            Ok(RunStatus::Clean)
        }
        other => Err(err(format!("unknown command `{other}` (try `lpr help`)"))),
    }
}

const HELP: &str = "\
lpr — MPLS transit path diversity classification (IMC'15 LPR algorithm)

USAGE:
  lpr classify --rib <rib.txt> <cycle.warts>... [--next <snap.warts>]...
               [--alias-rescue] [--trees] [--per-as] [--router-level]
               [--metrics <out.json>] [--progress] [--threads N]
               [--trace-out <trace.json>] [--trace-level <level>]
               [--prom-out <metrics.prom>] [--keep-going | --fail-fast]
               [--spill-dir <dir>]
  lpr stats    --rib <rib.txt> <cycle.warts>... [--next <snap.warts>]...
               [--metrics <out.json>] [--progress] [--threads N]
               [--trace-out <trace.json>] [--trace-level <level>]
               [--prom-out <metrics.prom>] [--keep-going | --fail-fast]
               [--spill-dir <dir>]
  lpr tunnels  <cycle.warts>... [--keep-going]
  lpr dump     <file.warts>...
  lpr info     <file.warts>...
  lpr demo     --out <demo.warts> --rib-out <rib.txt>
               [--tunnel-visibility explicit:F,implicit:F,invisible:F,opaque:F]
  lpr serve    --spool <dir> --rib <rib.txt> [--addr HOST:PORT] [--window N]
               [--threads N] [--tick-ms MS] [--ingest-timeout-ms MS]
               [--retries N] [--backoff-ms MS] [--backoff-cap-ms MS]
               [--growing-grace N] [--once TICKS]
  lpr trace-check <trace.json>...
  lpr help

The RIB file maps prefixes to origin ASes, one `prefix asn` per line
(Routeviews-style). `--next` snapshots feed the Persistence filter, and
their number is its window j (the paper's j = 2 means two --next files).

`--metrics <out.json>` writes machine-readable run telemetry (per-stage
wall time and LSP counts matching the Table 1 funnel, plus ingest
counters); `--progress` prints the same stage lines to stderr.

`--trace-out <trace.json>` writes a hierarchical span trace
(run -> cycle -> stage -> shard, plus quarantine/skip events) as Chrome
trace_event JSON — open it in chrome://tracing or Perfetto, or validate
it with `lpr trace-check`. `--trace-level` sets the event threshold
(debug/info/warn/error; default info). `--prom-out` writes the final
counter/gauge/histogram registry as Prometheus-style text.

`--threads N` shards the pipeline across N worker threads (default: the
machine's available parallelism). Results are byte-identical for every
thread count; `--threads 1` forces the sequential path.

Inputs are memory-mapped (pipes and other non-regular files are read
in), indexed per file (the index of a regular file is cached beside it
as `<file>.lpridx`), decoded sharded straight out of the mappings and
streamed through the pipeline without materialising the trace list:
memory tracks the surviving LSPs, not the corpus. `--spill-dir <dir>`
spills the Persistence window's key sets to sorted files under <dir>
instead of holding them in memory.

`serve` runs the continuous-measurement daemon: it watches the spool
directory for dropped `*.warts` files, ingests each as one cycle of a
sliding window (`--window` cycles wide), and serves `/healthz`,
`/readyz`, `/snapshot`, `/report/per-as` and `/metrics` over HTTP at
`--addr` (default 127.0.0.1:0; the bound address is printed on start).
Corrupt or repeatedly-failing drops are quarantined to
`<spool>/quarantine/` with a structured reason file; the daemon keeps
serving with `degraded: true` and never answers 5xx. SIGTERM/SIGINT
shut it down gracefully with exit code 0. `--once N` exits after N
reconcile ticks (smoke tests).

Degraded input (classify/stats/tunnels): structurally broken traces
are quarantined rather than fatal, `--keep-going` additionally skips
corrupt warts records (resyncing on the next record magic), drops
traces that fail conversion and sets aside files ending in a
half-written record, in the cycle and in every --next snapshot alike,
and `--fail-fast` turns any degradation into a hard error. An empty
input file contributes nothing and is clean.

EXIT CODES:
  0  clean success — nothing skipped, nothing quarantined
  3  success with quarantine — results valid over the surviving input,
     degradation itemised on stdout
  1  fatal error (bad arguments, unreadable input, strict-mode decode
     failure, --fail-fast degradation)";

#[cfg(test)]
#[path = "../tests/common/mod.rs"]
mod common;

#[cfg(test)]
mod tests {
    use super::*;

    fn s(v: &[&str]) -> Vec<String> {
        v.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn parse_options() {
        let o = Options::parse(&s(&[
            "a.warts",
            "--rib",
            "rib.txt",
            "--next",
            "b.warts",
            "--next",
            "c.warts",
            "--alias-rescue",
            "--per-as",
        ]))
        .unwrap();
        assert_eq!(o.inputs, vec!["a.warts"]);
        assert_eq!(o.next.len(), 2, "two --next files: the paper's j = 2");
        assert_eq!(o.rib.as_deref(), Some("rib.txt"));
        assert!(o.alias_rescue && o.per_as && !o.trees && !o.router_level);
    }

    #[test]
    fn unknown_flag_is_an_error() {
        assert!(Options::parse(&s(&["--bogus"])).is_err());
        assert!(Options::parse(&s(&["--rib"])).is_err());
        // The persistence window is the number of --next files.
        assert!(Options::parse(&s(&["--j", "2"])).is_err());
    }

    #[test]
    fn help_prints() {
        let mut out = Vec::new();
        run(&s(&["help"]), &mut out).unwrap();
        assert!(String::from_utf8(out).unwrap().contains("USAGE"));
    }

    #[test]
    fn unknown_command_errors() {
        let mut out = Vec::new();
        assert!(run(&s(&["frobnicate"]), &mut out).is_err());
    }

    #[test]
    fn classify_requires_inputs() {
        let mut out = Vec::new();
        assert!(run(&s(&["classify"]), &mut out).is_err());
    }

    #[test]
    fn parse_metrics_and_progress_flags() {
        let o = Options::parse(&s(&["a.warts", "--metrics", "t.json", "--progress"])).unwrap();
        assert_eq!(o.metrics.as_deref(), Some("t.json"));
        assert!(o.progress);
        assert!(Options::parse(&s(&["--metrics"])).is_err());
    }

    #[test]
    fn parse_degradation_flags() {
        let o = Options::parse(&s(&["a.warts", "--keep-going"])).unwrap();
        assert!(o.keep_going && !o.fail_fast);
        let o = Options::parse(&s(&["a.warts", "--fail-fast"])).unwrap();
        assert!(o.fail_fast && !o.keep_going);
        assert!(Options::parse(&s(&["a.warts", "--keep-going", "--fail-fast"])).is_err());
    }

    #[test]
    fn parse_out_of_core_flags() {
        let o = Options::parse(&s(&["a.warts", "--spill-dir", "/tmp/x"])).unwrap();
        assert_eq!(o.spill_dir.as_deref(), Some("/tmp/x"));
        assert!(Options::parse(&s(&["a.warts"])).unwrap().spill_dir.is_none());
        assert!(Options::parse(&s(&["a.warts", "--spill-dir"])).is_err());
    }

    #[test]
    fn out_of_core_output_matches_in_memory() {
        let dir = std::env::temp_dir().join(format!("lpr-ooc-cli-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let warts_path = dir.join("demo.warts").to_string_lossy().into_owned();
        let rib_path = dir.join("rib.txt").to_string_lossy().into_owned();
        let (bytes, rib) = write_demo_files();
        std::fs::write(&warts_path, &bytes).unwrap();
        std::fs::write(&rib_path, rib).unwrap();
        let spill_dir = dir.join("spill").to_string_lossy().into_owned();
        let inputs = vec![warts_path.clone()];
        let (reference, _) =
            crate::common::reference_run(&inputs, &inputs, &rib_path, false).unwrap();

        let options = |spill_dir: Option<&str>| Options {
            inputs: inputs.clone(),
            next: inputs.clone(),
            rib: Some(rib_path.clone()),
            threads: Some(2),
            spill_dir: spill_dir.map(str::to_string),
            ..Default::default()
        };
        // Cold (builds the .lpridx), cached, and with a spilled window.
        for spill in [None, None, Some(spill_dir.as_str())] {
            let artifacts = run_pipeline(&options(spill)).unwrap();
            assert_eq!(artifacts.output, reference, "spill dir {spill:?}");
            assert!(artifacts.load.is_clean());
        }
        assert!(dir.join("demo.warts.lpridx").exists());

        let render = |cmd: &str, extra: &[&str]| {
            let mut args =
                s(&[cmd, "--rib", &rib_path, &warts_path, "--next", &warts_path, "--threads", "2"]);
            args.extend(extra.iter().map(|x| x.to_string()));
            let mut out = Vec::new();
            let status = run(&args, &mut out).unwrap();
            (String::from_utf8(out).unwrap(), status)
        };
        for cmd in ["classify", "stats"] {
            assert_eq!(
                render(cmd, &["--spill-dir", &spill_dir]),
                render(cmd, &[]),
                "{cmd} with spilled persistence window"
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn demo_tunnel_visibility_flag() {
        let dir = std::env::temp_dir().join(format!("lpr-demo-vis-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let warts_path = dir.join("demo.warts").to_string_lossy().into_owned();
        let rib_path = dir.join("rib.txt").to_string_lossy().into_owned();
        let mut out = Vec::new();
        run(
            &s(&[
                "demo",
                "--out",
                &warts_path,
                "--rib-out",
                &rib_path,
                "--tunnel-visibility",
                "explicit:0.0,implicit:0.0,invisible:1.0,opaque:0.0",
            ]),
            &mut out,
        )
        .unwrap();
        // An all-invisible deployment hides every label from the demo
        // campaign, so its bytes cannot match the explicit demo's.
        let hidden = std::fs::read(&warts_path).unwrap();
        let (explicit, _) = write_demo_files();
        assert_ne!(hidden, explicit, "--tunnel-visibility had no effect on the campaign");
        // A malformed mix is rejected at the flag, not deep in netsim.
        assert!(run(
            &s(&["demo", "--out", &warts_path, "--rib-out", &rib_path, "--tunnel-visibility", "bogus"]),
            &mut Vec::new(),
        )
        .is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn parse_threads_flag() {
        let o = Options::parse(&s(&["a.warts", "--threads", "4"])).unwrap();
        assert_eq!(o.threads, Some(4));
        assert_eq!(Options::parse(&s(&["a.warts"])).unwrap().threads, None);
        assert!(Options::parse(&s(&["--threads"])).is_err());
        assert!(Options::parse(&s(&["--threads", "0"])).is_err());
        assert!(Options::parse(&s(&["--threads", "x"])).is_err());
    }

    #[test]
    fn classify_output_is_identical_for_any_thread_count() {
        let dir = std::env::temp_dir().join(format!("lpr-threads-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let warts_path = dir.join("demo.warts").to_string_lossy().into_owned();
        let rib_path = dir.join("rib.txt").to_string_lossy().into_owned();
        let (bytes, rib) = write_demo_files();
        std::fs::write(&warts_path, &bytes).unwrap();
        std::fs::write(&rib_path, rib).unwrap();

        let render = |threads: &str| {
            let mut out = Vec::new();
            run(
                &s(&["classify", "--rib", &rib_path, &warts_path, "--threads", threads]),
                &mut out,
            )
            .unwrap();
            String::from_utf8(out).unwrap()
        };
        let seq = render("1");
        for threads in ["2", "3", "4"] {
            assert_eq!(render(threads), seq, "--threads {threads}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn classify_metrics_reconcile_with_filter_report() {
        let dir = std::env::temp_dir().join(format!("lpr-metrics-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let warts_path = dir.join("demo.warts").to_string_lossy().into_owned();
        let rib_path = dir.join("rib.txt").to_string_lossy().into_owned();
        let metrics_path = dir.join("telemetry.json").to_string_lossy().into_owned();
        let (bytes, rib) = write_demo_files();
        std::fs::write(&warts_path, &bytes).unwrap();
        std::fs::write(&rib_path, rib).unwrap();

        let mut out = Vec::new();
        run(
            &s(&["classify", "--rib", &rib_path, &warts_path, "--metrics", &metrics_path]),
            &mut out,
        )
        .unwrap();

        let text = std::fs::read_to_string(&metrics_path).unwrap();
        let telemetry = lpr_obs::RunTelemetry::from_json(&text).unwrap();

        // The same run without telemetry is the reference: stage counts
        // in the JSON must chain exactly through the FilterReport.
        let o = Options {
            inputs: vec![warts_path],
            rib: Some(rib_path),
            ..Default::default()
        };
        let reference = run_pipeline(&o).unwrap().output;
        let mut input = reference.report.input as u64;
        for stage in FilterStage::ALL {
            let st = telemetry.stage(stage.name()).unwrap_or_else(|| panic!("{}", stage.name()));
            assert_eq!(st.input, input, "{} input", stage.name());
            assert_eq!(
                st.output,
                reference.report.remaining[&stage] as u64,
                "{} output",
                stage.name()
            );
            input = st.output;
        }
        assert_eq!(
            telemetry.counter("pipeline.iotps_classified"),
            reference.iotps.len() as u64
        );
        assert!(telemetry.stage("LoadTraces").is_some());
        assert!(telemetry.counter("cli.input_bytes") > 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Runs a traced classify in-process and returns the journal plus
    /// the finished telemetry.
    fn traced_classify(
        threads: usize,
        warts_paths: &[String],
        rib_path: &str,
    ) -> (lpr_obs::TraceSnapshot, lpr_obs::RunTelemetry) {
        let recorder = lpr_obs::Recorder::new("lpr classify")
            .with_tracer(lpr_obs::Tracer::new(lpr_obs::Level::Debug));
        let run_span = open_run_span(Some(&recorder), "classify");
        let o = Options {
            inputs: warts_paths.to_vec(),
            rib: Some(rib_path.to_string()),
            threads: Some(threads),
            ..Default::default()
        };
        run_pipeline_recorded(&o, Some(&recorder)).unwrap();
        drop(run_span);
        let snapshot = recorder.tracer().snapshot();
        (snapshot, recorder.finish())
    }

    /// Span records reconstructed from a journal: `id -> (name, parent,
    /// begin, end)`.
    fn span_table(
        snapshot: &lpr_obs::TraceSnapshot,
    ) -> std::collections::BTreeMap<u64, (String, u64, u64, u64)> {
        let mut spans = std::collections::BTreeMap::new();
        for ev in &snapshot.events {
            match ev {
                lpr_obs::TraceEvent::SpanBegin { id, parent, name, ts_us, .. } => {
                    spans.insert(*id, (name.clone(), *parent, *ts_us, u64::MAX));
                }
                lpr_obs::TraceEvent::SpanEnd { id, ts_us } => {
                    spans.get_mut(id).expect("end without begin").3 = *ts_us;
                }
                lpr_obs::TraceEvent::Event { .. } => {}
            }
        }
        spans
    }

    /// Root-to-leaf name paths, with per-shard spans pruned (shard
    /// count varies with input size, not thread count, but pruning them
    /// keeps the invariant independent of both).
    fn span_skeleton(snapshot: &lpr_obs::TraceSnapshot) -> Vec<String> {
        let spans = span_table(snapshot);
        let mut paths: Vec<String> = spans
            .values()
            .filter(|(name, ..)| !name.starts_with("shard"))
            .map(|(name, parent, ..)| {
                let mut path = vec![name.clone()];
                let mut up = *parent;
                while let Some((pname, pparent, ..)) = spans.get(&up) {
                    path.push(pname.clone());
                    up = *pparent;
                }
                path.reverse();
                path.join("/")
            })
            .collect();
        paths.sort();
        paths
    }

    #[test]
    fn span_structure_is_identical_across_thread_counts() {
        let dir = std::env::temp_dir().join(format!("lpr-span-det-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let warts_path = dir.join("demo.warts").to_string_lossy().into_owned();
        let rib_path = dir.join("rib.txt").to_string_lossy().into_owned();
        let (bytes, rib) = write_demo_files();
        std::fs::write(&warts_path, &bytes).unwrap();
        std::fs::write(&rib_path, rib).unwrap();

        let (seq, _) = traced_classify(1, std::slice::from_ref(&warts_path), &rib_path);
        let reference = span_skeleton(&seq);
        assert!(
            reference.iter().any(|p| p == "run:classify/cycle/stage:Ingest"),
            "skeleton misses the ingest stage: {reference:?}"
        );
        for threads in [2usize, 8] {
            let (snap, _) = traced_classify(threads, std::slice::from_ref(&warts_path), &rib_path);
            assert_eq!(span_skeleton(&snap), reference, "--threads {threads}");
            // Every opened span must close, whatever the schedule.
            for (id, (name, _, _, end)) in span_table(&snap) {
                assert_ne!(end, u64::MAX, "span {id} ({name}) never ended");
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn ingest_shards_trace_under_stage_ingest() {
        let dir = std::env::temp_dir().join(format!("lpr-span-ingest-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let rib_path = dir.join("rib.txt").to_string_lossy().into_owned();
        let (bytes, rib) = write_demo_files();
        std::fs::write(&rib_path, rib).unwrap();
        let inputs: Vec<String> = ["a.warts", "b.warts"]
            .iter()
            .map(|name| {
                let path = dir.join(name);
                std::fs::write(&path, &bytes).unwrap();
                path.to_string_lossy().into_owned()
            })
            .collect();

        let (snapshot, _) = traced_classify(2, &inputs, &rib_path);
        let skeleton: Vec<String> =
            span_skeleton(&snapshot).into_iter().filter(|p| p.contains("stage:")).collect();
        let expected: Vec<String> =
            ["Classification", "CorpusOpen", "Ingest", "Persistence", "TransitDiversity"]
                .iter()
                .map(|stage| format!("run:classify/cycle/stage:{stage}"))
                .collect();
        assert_eq!(skeleton, expected, "one load path: the corpus open, then its ingest");
        // One indexed range task per input file, one shard span each.
        let spans = span_table(&snapshot);
        let (ingest_id, _) =
            spans.iter().find(|(_, (name, ..))| name == "stage:Ingest").unwrap();
        let shards = spans
            .values()
            .filter(|(name, parent, ..)| parent == ingest_id && name.starts_with("shard"))
            .count();
        assert_eq!(shards, inputs.len());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn trace_spans_and_events_reconcile_with_telemetry() {
        let dir = std::env::temp_dir().join(format!("lpr-span-rec-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let warts_path = dir.join("demo.warts").to_string_lossy().into_owned();
        let bad_path = dir.join("bad.warts").to_string_lossy().into_owned();
        let rib_path = dir.join("rib.txt").to_string_lossy().into_owned();
        let (bytes, rib) = write_demo_files();
        std::fs::write(&warts_path, &bytes).unwrap();
        std::fs::write(&rib_path, rib).unwrap();

        // A second input whose only trace quotes an impossibly deep
        // label stack (the codec carries it verbatim; structural
        // validation at ingest quarantines it), so exactly one trace
        // lands in quarantine.
        let deep: Vec<lpr_core::label::Lse> =
            (0..40).map(|i| lpr_core::label::Lse::transit(i, 254)).collect();
        let mut bad = lpr_core::trace::Trace::new(
            std::net::Ipv4Addr::new(10, 9, 0, 1),
            std::net::Ipv4Addr::new(10, 9, 0, 2),
        );
        bad.push_hop(lpr_core::trace::Hop::labelled(
            1,
            std::net::Ipv4Addr::new(10, 9, 0, 3),
            &deep,
        ));
        let mut w = warts::WartsWriter::new();
        w.trace(&warts::trace_to_record(&bad, 1, 1)).unwrap();
        std::fs::write(&bad_path, w.into_bytes()).unwrap();

        let inputs = vec![warts_path, bad_path];
        let (snapshot, telemetry) = traced_classify(4, &inputs, &rib_path);
        assert_eq!(snapshot.dropped, 0, "journal must not wrap on the demo input");
        let spans = span_table(&snapshot);

        // Shard spans nest inside their stage span, and their summed
        // duration accounts for the stage wall time: at most `threads`
        // lanes deep, and the stage span itself must agree with the
        // StageGuard's wall_us up to scheduling noise.
        const TOLERANCE_US: u64 = 5_000;
        for stage in ["Ingest", "Persistence", "Classification"] {
            let (stage_id, &(_, _, stage_begin, stage_end)) = spans
                .iter()
                .find(|(_, (name, ..))| name == &format!("stage:{stage}"))
                .unwrap_or_else(|| panic!("no stage:{stage} span"));
            assert_ne!(stage_end, u64::MAX, "stage:{stage} never ended");
            let stage_dur = stage_end - stage_begin;

            // Ingest has no aggregate telemetry row (its wall is split
            // between TunnelExtraction and LabelAttribution); the two
            // StageGuard-backed stages must agree with their span.
            if stage != "Ingest" {
                let wall = telemetry.stage(stage).unwrap_or_else(|| panic!("{stage}")).wall_us;
                assert!(
                    stage_dur.abs_diff(wall) <= TOLERANCE_US + wall,
                    "stage:{stage} span {stage_dur}us vs telemetry wall {wall}us"
                );
            }

            let mut shard_sum = 0u64;
            for (name, parent, begin, end) in spans.values() {
                if parent == stage_id && name.starts_with("shard") {
                    assert!(
                        *begin >= stage_begin && *end <= stage_end,
                        "shard span escapes stage:{stage}"
                    );
                    shard_sum += end - begin;
                }
            }
            assert!(
                shard_sum <= 4 * stage_dur + TOLERANCE_US,
                "stage:{stage} shard sum {shard_sum}us exceeds 4 lanes of {stage_dur}us"
            );
        }

        // Quarantine warn events carry an `n` field per reason; their
        // sum is exactly the quarantined counter.
        let mut event_total = 0u64;
        for ev in &snapshot.events {
            if let lpr_obs::TraceEvent::Event { level, name, fields, .. } = ev {
                if name == "quarantine" {
                    assert_eq!(*level, lpr_obs::Level::Warn);
                    let n = fields
                        .iter()
                        .find_map(|(k, v)| match (k.as_str(), v) {
                            ("n", lpr_obs::FieldValue::U64(n)) => Some(*n),
                            _ => None,
                        })
                        .expect("quarantine event without n");
                    event_total += n;
                }
            }
        }
        assert_eq!(event_total, telemetry.counter("pipeline.traces_quarantined"));
        assert_eq!(event_total, 1, "the deep-stack trace must be quarantined");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn every_emitted_counter_is_in_the_names_vocabulary() {
        let dir = std::env::temp_dir().join(format!("lpr-names-audit-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let warts_path = dir.join("demo.warts").to_string_lossy().into_owned();
        let rib_path = dir.join("rib.txt").to_string_lossy().into_owned();
        let (bytes, rib) = write_demo_files();
        std::fs::write(&warts_path, &bytes).unwrap();
        std::fs::write(&rib_path, rib).unwrap();

        let (_, telemetry) = traced_classify(2, std::slice::from_ref(&warts_path), &rib_path);
        for name in telemetry.counters.keys() {
            assert!(
                lpr_obs::names::is_known_counter(name),
                "counter {name} is not in lpr_obs::names::ALL_COUNTERS"
            );
        }
        for name in telemetry.histograms.keys() {
            assert!(
                lpr_obs::names::is_known_histogram(name),
                "histogram {name} is not in lpr_obs::names::ALL_HISTOGRAMS"
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
