//! # lpr-cli — the `lpr` command-line tool
//!
//! Runs the LPR analysis on scamper **warts** dumps, the way the paper
//! does on CAIDA Archipelago data:
//!
//! ```text
//! lpr classify --rib rib.txt cycleX.warts [--next cycleX+1.warts]...
//!              [--j N] [--alias-rescue] [--trees] [--per-as]
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
use std::collections::BTreeSet;
use std::fmt;
use std::io::Write;

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

/// What the warts loading stage skipped or dropped.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct LoadReport {
    /// Trace records successfully decoded and converted.
    pub traces: u64,
    /// Records skipped by the lenient decoder, per reason.
    pub skipped: std::collections::BTreeMap<warts::SkipReason, u64>,
    /// Garbage bytes discarded while resynchronising on record magics.
    pub resync_bytes: u64,
    /// Records that decoded but failed trace conversion (dropped).
    pub convert_failures: u64,
    /// Input files `--out-of-core` set aside unread because they end in
    /// a half-written record, with the reason. Empty inputs contribute
    /// nothing and are not listed.
    pub set_aside: Vec<(std::path::PathBuf, lpr_corpus::FileSkipReason)>,
}

impl LoadReport {
    /// Total records skipped by the decoder.
    pub fn skipped_total(&self) -> u64 {
        self.skipped.values().sum()
    }

    /// Whether nothing was skipped, dropped or set aside.
    pub fn is_clean(&self) -> bool {
        self.skipped.is_empty() && self.convert_failures == 0 && self.set_aside.is_empty()
    }
}

/// Everything [`run_pipeline`] produced: the loaded traces, the
/// pipeline output (with its quarantine accounting) and the load-stage
/// degradation report.
#[derive(Debug)]
pub struct PipelineArtifacts {
    /// Traces loaded from the input files (post conversion). Empty in
    /// out-of-core mode, where traces stream through the pipeline
    /// without being materialised.
    pub traces: Vec<Trace>,
    /// Traces that entered the pipeline (`traces.len()` when they were
    /// materialised).
    pub trace_count: u64,
    /// Of those, traces crossing at least one explicit MPLS tunnel.
    pub mpls_traces: u64,
    /// The classified pipeline output.
    pub output: PipelineOutput,
    /// What loading skipped (empty in strict mode — skips are fatal
    /// there).
    pub load: LoadReport,
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
    /// Follow-up snapshot files for the Persistence filter.
    pub next: Vec<String>,
    /// RIB snapshot path.
    pub rib: Option<String>,
    /// Persistence window (defaults to the number of `--next` files).
    pub j: Option<usize>,
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
    /// Decode warts input leniently: skip corrupt records (resyncing on
    /// the magic) and drop traces that fail conversion, instead of
    /// aborting. The run then reports what was skipped and exits with
    /// the success-with-quarantine code.
    pub keep_going: bool,
    /// Treat any degradation — skipped records, failed conversions,
    /// quarantined traces — as fatal instead of quarantining it.
    pub fail_fast: bool,
    /// Memory-map and index the inputs (`.lpridx` caches next to each
    /// file) and stream traces through the pipeline without
    /// materialising them: bounded memory at paper scale, byte-identical
    /// output.
    pub out_of_core: bool,
    /// Spill the Persistence window's key sets to sorted files under
    /// this directory instead of holding them in memory (out-of-core
    /// mode only).
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
                "--j" => {
                    o.j = Some(
                        take(&mut it, "--j")?
                            .parse()
                            .map_err(|_| err("--j wants an integer"))?,
                    )
                }
                "--alias-rescue" => o.alias_rescue = true,
                "--keep-going" => o.keep_going = true,
                "--fail-fast" => o.fail_fast = true,
                "--out-of-core" => o.out_of_core = true,
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
        if o.spill_dir.is_some() && !o.out_of_core {
            return Err(err("--spill-dir needs --out-of-core"));
        }
        Ok(o)
    }
}

fn take(it: &mut std::slice::Iter<'_, String>, flag: &str) -> Result<String, CliError> {
    it.next().cloned().ok_or_else(|| err(format!("{flag} wants a value")))
}

/// Loads every trace from a list of warts files.
pub fn load_traces(paths: &[String]) -> Result<Vec<Trace>, CliError> {
    load_traces_par(paths, 1)
}

/// [`load_traces`] with parallel record→trace conversion: the stateful
/// warts record decode stays sequential (the format carries a file-wide
/// address dictionary), the per-record conversion shards across
/// `threads` workers, preserving record order.
pub fn load_traces_par(paths: &[String], threads: usize) -> Result<Vec<Trace>, CliError> {
    let mut traces = Vec::new();
    for path in paths {
        let bytes = std::fs::read(path)
            .map_err(|e| err(format!("{path}: {e}")))?;
        let records = warts::WartsReader::new(&bytes)
            .traces()
            .map_err(|e| err(format!("{path}: {e}")))?;
        traces.extend(
            warts::traces_to_core_par(&records, threads)
                .map_err(|e| err(format!("{path}: {e}")))?,
        );
    }
    Ok(traces)
}

/// Lenient warts loading (`--keep-going`): corrupt records are skipped
/// (resyncing on the next plausible record header), traces that fail
/// conversion are dropped, and both are tallied in the returned
/// [`LoadReport`]. Only IO failures are fatal. When a `recorder` is
/// given, the decoder's `warts.*` counters (per-[`warts::SkipReason`]
/// skips included) land in its registry.
pub fn load_traces_lenient(
    paths: &[String],
    recorder: Option<&lpr_obs::Recorder>,
) -> Result<(Vec<Trace>, LoadReport), CliError> {
    let mut traces = Vec::new();
    let mut report = LoadReport::default();
    for path in paths {
        let bytes = std::fs::read(path).map_err(|e| err(format!("{path}: {e}")))?;
        let mut reader = warts::WartsReader::new(&bytes).lenient();
        if let Some(rec) = recorder {
            reader = reader.with_metrics(warts::StreamMetrics::from_recorder(rec));
        }
        loop {
            match reader.next_record() {
                Ok(Some(warts::Record::Trace(t))) => match warts::trace_to_core(&t) {
                    Ok(Some(trace)) => {
                        report.traces += 1;
                        traces.push(trace);
                    }
                    Ok(None) => {}
                    Err(_) => report.convert_failures += 1,
                },
                Ok(Some(_)) => {}
                Ok(None) => break,
                Err(e) => return Err(err(format!("{path}: {e}"))),
            }
        }
        for (reason, n) in reader.skip_counts() {
            *report.skipped.entry(*reason).or_default() += n;
        }
        report.resync_bytes += reader.resync_bytes();
    }
    if let Some(rec) = recorder {
        rec.counter(lpr_obs::names::CLI_CONVERT_FAILURES).add(report.convert_failures);
    }
    Ok((traces, report))
}

/// Loads the RIB snapshot into a longest-prefix-match trie.
pub fn load_rib(path: &str) -> Result<ip2as::Ip2AsTrie, CliError> {
    let text = std::fs::read_to_string(path).map_err(|e| err(format!("{path}: {e}")))?;
    ip2as::parse_rib(&text).map_err(|e| err(format!("{path}: {e}")))
}

/// Runs the analysis pipeline an analysis subcommand needs.
pub fn run_pipeline(o: &Options) -> Result<PipelineArtifacts, CliError> {
    run_pipeline_recorded(o, None)
}

/// [`run_pipeline`] with instrumentation: loading and every pipeline
/// stage land in `recorder` (see `lpr_obs`).
pub fn run_pipeline_recorded(
    o: &Options,
    recorder: Option<&lpr_obs::Recorder>,
) -> Result<PipelineArtifacts, CliError> {
    if o.inputs.is_empty() {
        return Err(err("no input warts files (see `lpr help`)"));
    }
    let rib_path = o.rib.as_ref().ok_or_else(|| err("--rib <file> is required"))?;
    let rib = load_rib(rib_path)?;
    let threads = o.threads.unwrap_or_else(lpr_par::available_threads);
    if o.out_of_core {
        return run_pipeline_out_of_core(o, &rib, threads, recorder);
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
    let load_span = tracer.span("stage:LoadTraces");
    let (traces, load) = if o.keep_going {
        load_traces_lenient(&o.inputs, recorder)?
    } else {
        (load_traces_par(&o.inputs, threads)?, LoadReport::default())
    };
    drop(load_span);
    if let Some(rec) = recorder {
        rec.record_stage(
            "LoadTraces",
            sw.elapsed_us(),
            o.inputs.len() as u64,
            traces.len() as u64,
        );
        let bytes: u64 = o
            .inputs
            .iter()
            .filter_map(|p| std::fs::metadata(p).ok())
            .map(|m| m.len())
            .sum();
        rec.counter(lpr_obs::names::CLI_INPUT_BYTES).add(bytes);
        rec.counter(lpr_obs::names::CLI_INPUT_FILES).add(o.inputs.len() as u64);
    }
    let future: Vec<BTreeSet<LspKey>> = o
        .next
        .iter()
        .map(|p| {
            load_traces_par(std::slice::from_ref(p), threads)
                .map(|t| Pipeline::snapshot_keys_par(&t, threads))
        })
        .collect::<Result<_, _>>()?;
    let j = o.j.unwrap_or(future.len());
    let mut pipeline =
        Pipeline::new(FilterConfig { persistence_window: j, ..Default::default() });
    if o.alias_rescue {
        pipeline = pipeline.with_alias_rescue();
    }
    let opts = lpr_par::ShardOptions::new(threads);
    let ingest = lpr_core::IngestState::from_traces(&traces, &rib, recorder, opts);
    let output = pipeline.finish_stages(ingest, &future, recorder, opts);
    tracer.set_default_parent(outer_parent);
    drop(cycle_span);
    let trace_count = traces.len() as u64;
    let mpls_traces = traces.iter().filter(|t| t.has_mpls()).count() as u64;
    let artifacts = PipelineArtifacts { traces, trace_count, mpls_traces, output, load };
    if o.fail_fast && artifacts.is_degraded() {
        return Err(err(format!(
            "--fail-fast: input degraded ({} records skipped, {} conversions failed, {} traces quarantined)",
            artifacts.load.skipped_total(),
            artifacts.load.convert_failures,
            artifacts.output.degraded.quarantined_total(),
        )));
    }
    Ok(artifacts)
}

/// The `--out-of-core` pipeline: inputs are memory-mapped and indexed
/// ([`lpr_corpus::Corpus`]), trace records decode sharded straight out
/// of the mappings, and each trace streams through ingest without ever
/// being materialised in a list. `--next` snapshots become either
/// in-memory key sets or (`--spill-dir`) sorted on-disk spill files.
/// The [`PipelineOutput`] is byte-identical to the in-memory path at
/// every thread count.
///
/// The indexed decode is inherently lenient (the index records what a
/// lenient scan salvaged); without `--keep-going`, any skipped record
/// or failed conversion is promoted to a fatal error, mirroring the
/// strict loader. An empty input contributes nothing and is clean, as
/// in memory. An input ending in a half-written record is set aside
/// unread: fatal without `--keep-going`, degradation with it.
fn run_pipeline_out_of_core(
    o: &Options,
    rib: &ip2as::Ip2AsTrie,
    threads: usize,
    recorder: Option<&lpr_obs::Recorder>,
) -> Result<PipelineArtifacts, CliError> {
    use lpr_corpus::{
        ingest_cycle, snapshot_keys, spill_snapshot_keys, Corpus, FileSkipReason, IngestOptions,
    };
    let disabled = lpr_obs::Tracer::disabled();
    let tracer = recorder.map_or(&disabled, |r| r.tracer());
    let outer_parent = tracer.default_parent();
    let cycle_span = tracer.span("cycle");
    tracer.set_default_parent(cycle_span.context());

    // Startup hygiene: clear crash leftovers (orphaned `.lpridx.tmp`
    // writes next to the inputs, stale spill files) before touching
    // any index cache.
    let mut sweep_dirs: Vec<std::path::PathBuf> = o
        .inputs
        .iter()
        .filter_map(|p| std::path::Path::new(p).parent().map(|d| d.to_path_buf()))
        .collect();
    if let Some(dir) = &o.spill_dir {
        sweep_dirs.push(std::path::PathBuf::from(dir));
    }
    sweep_dirs.sort();
    sweep_dirs.dedup();
    for dir in &sweep_dirs {
        let _ = lpr_corpus::sweep_stale(dir, recorder);
    }

    let sw = lpr_obs::Stopwatch::start();
    let load_span = tracer.span("stage:CorpusIngest");
    let corpus = Corpus::open_with(&o.inputs, true, recorder)?;
    let (ingest, report) = ingest_cycle(&corpus, rib, IngestOptions::new(threads), recorder);
    drop(load_span);
    let load = LoadReport {
        traces: ingest.traces_in,
        skipped: report.skipped.clone(),
        resync_bytes: report.resync_bytes,
        convert_failures: report.convert_failures,
        set_aside: corpus
            .skipped_files
            .iter()
            .filter(|f| f.reason != FileSkipReason::Empty)
            .map(|f| (f.path.clone(), f.reason.clone()))
            .collect(),
    };
    if let Some(rec) = recorder {
        rec.record_stage("CorpusIngest", sw.elapsed_us(), o.inputs.len() as u64, ingest.traces_in);
        rec.counter(lpr_obs::names::CLI_INPUT_BYTES).add(corpus.total_bytes());
        rec.counter(lpr_obs::names::CLI_INPUT_FILES).add(o.inputs.len() as u64);
        rec.counter(lpr_obs::names::CLI_CONVERT_FAILURES).add(report.convert_failures);
    }
    if !o.keep_going && (load.skipped_total() > 0 || load.convert_failures > 0) {
        return Err(err(format!(
            "corpus degraded: {} records skipped, {} conversions failed (use --keep-going to accept)",
            load.skipped_total(),
            load.convert_failures,
        )));
    }
    if let (false, Some((path, reason))) = (o.keep_going, load.set_aside.first()) {
        return Err(err(format!(
            "{} input file(s) set aside ({}: {reason}); use --keep-going to accept",
            load.set_aside.len(),
            path.display(),
        )));
    }

    let j = o.j.unwrap_or(o.next.len());
    let mut pipeline =
        Pipeline::new(FilterConfig { persistence_window: j, ..Default::default() });
    if o.alias_rescue {
        pipeline = pipeline.with_alias_rescue();
    }
    let shard = lpr_par::ShardOptions::new(threads);
    let open_next = |path: &String| -> Result<Corpus, CliError> {
        Corpus::open_with(std::slice::from_ref(path), true, recorder)
            .map_err(|e| err(format!("{path}: {e}")))
    };
    let (trace_count, mpls_traces) = (ingest.traces_in, report.mpls_traces);
    let output = if let Some(dir) = &o.spill_dir {
        let mut spilled = Vec::with_capacity(o.next.len());
        for (i, path) in o.next.iter().enumerate() {
            let next = open_next(path)?;
            spilled.push(spill_snapshot_keys(
                &next,
                std::path::Path::new(dir),
                &format!("next{i}"),
                threads,
                recorder,
            )?);
        }
        pipeline.finish_stages_windowed(
            ingest,
            lpr_core::pipeline::PersistenceWindow::Spilled(&spilled),
            recorder,
            shard,
        )?
    } else {
        let mut keys = Vec::with_capacity(o.next.len());
        for path in &o.next {
            keys.push(snapshot_keys(&open_next(path)?, threads));
        }
        pipeline.finish_stages_windowed(
            ingest,
            lpr_core::pipeline::PersistenceWindow::Mem(&keys),
            recorder,
            shard,
        )?
    };
    tracer.set_default_parent(outer_parent);
    drop(cycle_span);
    let artifacts =
        PipelineArtifacts { traces: Vec::new(), trace_count, mpls_traces, output, load };
    if o.fail_fast && artifacts.is_degraded() {
        return Err(err(format!(
            "--fail-fast: input degraded ({} records skipped, {} conversions failed, {} traces quarantined)",
            artifacts.load.skipped_total(),
            artifacts.load.convert_failures,
            artifacts.output.degraded.quarantined_total(),
        )));
    }
    Ok(artifacts)
}

/// Writes the human-readable degradation summary an analysis subcommand
/// prints when a run ends [`RunStatus::Degraded`].
pub fn write_degradation_summary(
    artifacts: &PipelineArtifacts,
    w: &mut dyn Write,
) -> Result<(), CliError> {
    if !artifacts.is_degraded() {
        return Ok(());
    }
    writeln!(w, "\ninput degraded (exit code 3):")?;
    if artifacts.load.skipped_total() > 0 {
        let detail: Vec<String> = artifacts
            .load
            .skipped
            .iter()
            .map(|(r, n)| format!("{}={}", r.name(), n))
            .collect();
        writeln!(
            w,
            "  skipped records: {} [{}] ({} resync bytes)",
            artifacts.load.skipped_total(),
            detail.join(" "),
            artifacts.load.resync_bytes,
        )?;
    }
    if artifacts.load.convert_failures > 0 {
        writeln!(w, "  failed conversions: {}", artifacts.load.convert_failures)?;
    }
    for (path, reason) in &artifacts.load.set_aside {
        writeln!(w, "  set aside unread: {} ({reason})", path.display())?;
    }
    let degraded = &artifacts.output.degraded;
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
        "tunnels" => commands::tunnels::run(&Options::parse(rest)?, w).map(|()| RunStatus::Clean),
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
               [--j N] [--alias-rescue] [--trees] [--per-as] [--router-level]
               [--metrics <out.json>] [--progress] [--threads N]
               [--trace-out <trace.json>] [--trace-level <level>]
               [--prom-out <metrics.prom>] [--keep-going | --fail-fast]
               [--out-of-core [--spill-dir <dir>]]
  lpr stats    --rib <rib.txt> <cycle.warts>... [--next <snap.warts>]...
               [--metrics <out.json>] [--progress] [--threads N]
               [--trace-out <trace.json>] [--trace-level <level>]
               [--prom-out <metrics.prom>] [--keep-going | --fail-fast]
               [--out-of-core [--spill-dir <dir>]]
  lpr tunnels  <cycle.warts>...
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
(Routeviews-style). `--next` snapshots feed the Persistence filter
(paper default: two, i.e. --j 2).

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

`--out-of-core` memory-maps the input corpus, builds (and caches, as
`.lpridx` siblings) a per-file record index, decodes record ranges
sharded straight out of the mappings and streams every trace through
the pipeline without materialising the trace list — bounded memory at
paper scale, byte-identical output. `--spill-dir <dir>` additionally
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

Degraded input (classify/stats): structurally broken traces are
quarantined rather than fatal, `--keep-going` additionally skips corrupt
warts records (resyncing on the next record magic) and drops traces
that fail conversion, and `--fail-fast` turns any degradation into a
hard error.

EXIT CODES:
  0  clean success — nothing skipped, nothing quarantined
  3  success with quarantine — results valid over the surviving input,
     degradation itemised on stdout
  1  fatal error (bad arguments, unreadable input, strict-mode decode
     failure, --fail-fast degradation)";

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
            "--j",
            "2",
            "--alias-rescue",
            "--per-as",
        ]))
        .unwrap();
        assert_eq!(o.inputs, vec!["a.warts"]);
        assert_eq!(o.next.len(), 2);
        assert_eq!(o.rib.as_deref(), Some("rib.txt"));
        assert_eq!(o.j, Some(2));
        assert!(o.alias_rescue && o.per_as && !o.trees && !o.router_level);
    }

    #[test]
    fn unknown_flag_is_an_error() {
        assert!(Options::parse(&s(&["--bogus"])).is_err());
        assert!(Options::parse(&s(&["--rib"])).is_err());
        assert!(Options::parse(&s(&["--j", "x"])).is_err());
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
        let o = Options::parse(&s(&["a.warts", "--out-of-core"])).unwrap();
        assert!(o.out_of_core && o.spill_dir.is_none());
        let o =
            Options::parse(&s(&["a.warts", "--out-of-core", "--spill-dir", "/tmp/x"])).unwrap();
        assert_eq!(o.spill_dir.as_deref(), Some("/tmp/x"));
        assert!(Options::parse(&s(&["a.warts", "--spill-dir", "/tmp/x"])).is_err());
        assert!(Options::parse(&s(&["a.warts", "--out-of-core", "--spill-dir"])).is_err());
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

        let render = |cmd: &str, extra: &[&str]| {
            let mut args =
                s(&[cmd, "--rib", &rib_path, &warts_path, "--next", &warts_path, "--threads", "2"]);
            args.extend(extra.iter().map(|x| x.to_string()));
            let mut out = Vec::new();
            let status = run(&args, &mut out).unwrap();
            (String::from_utf8(out).unwrap(), status)
        };
        for cmd in ["classify", "stats"] {
            let reference = render(cmd, &[]);
            assert_eq!(render(cmd, &["--out-of-core"]), reference, "{cmd} --out-of-core");
            assert_eq!(
                render(cmd, &["--out-of-core", "--spill-dir", &spill_dir]),
                reference,
                "{cmd} with spilled persistence window"
            );
        }
        // The second pass onward reused the .lpridx caches; a cached
        // open still matches.
        assert!(dir.join("demo.warts.lpridx").exists());
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
