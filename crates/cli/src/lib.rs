//! # lpr-cli — the `lpr` command-line tool
//!
//! Runs the LPR analysis on scamper **warts** dumps, the way the paper
//! does on CAIDA Archipelago data: `lpr classify --rib rib.txt
//! cycleX.warts --next cycleX+1.warts` classifies one cycle against a
//! one-snapshot Persistence window. `lpr help` prints every command
//! and flag, rendered from [`COMMANDS`].
//!
//! The RIB file is the plain `prefix asn` snapshot format of the
//! `ip2as` crate (one routed prefix per line, `#` comments).
//!
//! The library entry point ([`run`]) takes the argument vector and a
//! writer, so the whole CLI is unit-testable without spawning
//! processes. [`flags`] is the one command-line parser of `lpr`,
//! `lpr-bench` and `experiments`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use flags::{flag, Args, Command, Flag, Kind, Positional};
use lpr_core::prelude::*;
use lpr_corpus::{Corpus, DecodeReport, FileSkipReason};
use std::fmt;
use std::io::Write;
use std::path::{Path, PathBuf};

mod commands;
pub mod flags;

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
    /// snapshot) and the `report` of decoding it. The report lands in
    /// `recorder` first, so a refused input is counted too. Without
    /// `keep_going` a skipped record, a failed conversion or a
    /// set-aside file is fatal and the error names the file; with it
    /// they are tallied here.
    fn admit(
        &mut self,
        keep_going: bool,
        corpus: &Corpus,
        report: DecodeReport,
        recorder: Option<&lpr_obs::Recorder>,
    ) -> Result<(), CliError> {
        if let Some(rec) = recorder {
            rec.counter(lpr_obs::names::CLI_CONVERT_FAILURES).add(report.convert_failures);
            report.record(rec);
        }
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

/// Runs the analysis pipeline of `lpr classify` or `lpr stats`.
pub fn run_pipeline(args: &Args) -> Result<PipelineArtifacts, CliError> {
    run_pipeline_recorded(args, None)
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
/// `--trees` and `--alias-rescue` apply only to a command that declares
/// them (`classify`).
pub fn run_pipeline_recorded(
    args: &Args,
    recorder: Option<&lpr_obs::Recorder>,
) -> Result<PipelineArtifacts, CliError> {
    use lpr_core::pipeline::PersistenceWindow;
    use lpr_obs::StageGuard;
    let (inputs, next) = (args.positionals(), args.all("--next"));
    let rib_path: String = args.get("--rib").ok_or_else(|| err("--rib <file> is required"))?;
    let rib = load_rib(&rib_path)?;
    let threads = args.get("--threads").unwrap_or_else(lpr_par::available_threads);
    let spill_dir: Option<String> = args.get("--spill-dir");
    let keep_going = args.on("--keep-going");
    if let Some(dir) = &spill_dir {
        // Spill files a killed run left behind are never valid input.
        let _ = lpr_corpus::sweep_stale(Path::new(dir), recorder);
    }
    // One classify/stats invocation processes one cycle; its span nests
    // under the subcommand's `run:` root and everything the pipeline
    // opens (stage, shard spans) nests under it in turn.
    let cycle_span = open_span(recorder, "cycle");

    let stage = StageGuard::open(recorder, "CorpusOpen");
    let corpus = open_corpus(inputs, recorder)?;
    stage.finish_counts(inputs.len() as u64, corpus.total_records());
    let (ingest, report) =
        lpr_corpus::ingest_cycle(&corpus, &rib, lpr_corpus::IngestOptions::new(threads), recorder);
    let trace_count = ingest.traces_in;
    if let Some(rec) = recorder {
        rec.counter(lpr_obs::names::CLI_INPUT_BYTES).add(corpus.total_bytes());
        rec.counter(lpr_obs::names::CLI_INPUT_FILES).add(inputs.len() as u64);
    }
    let mut load = LoadReport::default();
    load.admit(keep_going, &corpus, report, recorder)?;
    // Unmap the cycle before the window's snapshots are mapped.
    drop(corpus);
    let trees = if args.on("--trees") {
        lpr_core::tree::build_fec_trees(&ingest.lsps)
    } else {
        Vec::new()
    };

    let mut pipeline =
        Pipeline::new(FilterConfig { persistence_window: next.len(), ..Default::default() });
    if args.on("--alias-rescue") {
        pipeline = pipeline.with_alias_rescue();
    }
    // The persistence window: every `--next` snapshot opened and keyed
    // (or spilled), as one stage from their traces to their keys.
    let stage = (!next.is_empty()).then(|| StageGuard::open(recorder, "SnapshotKeys"));
    let (mut keys, mut spilled) = (Vec::new(), Vec::new());
    let (mut next_traces, mut next_keys) = (0u64, 0u64);
    for (i, path) in next.iter().enumerate() {
        let next = open_corpus(std::slice::from_ref(path), recorder)?;
        next_traces += next.total_traces();
        let report = match &spill_dir {
            Some(dir) => {
                let (snapshot, report) = lpr_corpus::spill_snapshot_keys_reported(
                    &next,
                    Path::new(dir),
                    &format!("next{i}"),
                    threads,
                    recorder,
                )?;
                next_keys += snapshot.count;
                spilled.push(snapshot);
                report
            }
            None => {
                let (snapshot, report) = lpr_corpus::snapshot_keys_reported(&next, threads);
                next_keys += snapshot.len() as u64;
                keys.push(snapshot);
                report
            }
        };
        load.admit(keep_going, &next, report, recorder)?;
    }
    if let Some(stage) = stage {
        stage.finish_counts(next_traces, next_keys);
    }
    let window = match spill_dir {
        Some(_) => PersistenceWindow::Spilled(&spilled),
        None => PersistenceWindow::Mem(&keys),
    };
    let shard = lpr_par::ShardOptions::new(threads);
    let output = pipeline.finish_stages_windowed(ingest, window, recorder, shard)?;
    drop(cycle_span);
    let artifacts = PipelineArtifacts { trace_count, output, load, trees };
    if args.on("--fail-fast") && artifacts.is_degraded() {
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

/// The recorder an analysis subcommand needs: `Some` only when
/// `--metrics`, `--progress`, `--trace-out` or `--prom-out` asked for
/// one, carrying `trace`'s tracer.
fn recorder_for(args: &Args, trace: &flags::TraceOut) -> Option<lpr_obs::Recorder> {
    let wanted = ["--metrics", "--trace-out", "--prom-out"]
        .iter()
        .any(|name| args.get::<String>(name).is_some())
        || args.on("--progress");
    let label = format!("lpr {}", args.command().name);
    wanted.then(|| lpr_obs::Recorder::new(label).with_tracer(trace.tracer().clone()))
}

/// Opens the span `name` (the root `run:<cmd>`, a `cycle`) under the
/// tracer's default parent and makes it the default parent, so every
/// span opened after it nests under it. Returns `None` (and journals
/// nothing) without a recorder or tracer.
fn open_span(recorder: Option<&lpr_obs::Recorder>, name: &str) -> Option<lpr_obs::Span> {
    let tracer = recorder?.tracer();
    if !tracer.is_enabled() {
        return None;
    }
    let span = tracer.span(name);
    tracer.set_default_parent(span.context());
    Some(span)
}

/// Runs an analysis subcommand (`classify`, `stats`): the pipeline, then
/// `report` over its artifacts, inside the `run:<name>` span, then the
/// telemetry the flags ask for. A failed run writes that telemetry too,
/// with one `error` event carrying the message on the run span, and
/// still fails with its own error.
fn analyse(
    args: &Args,
    report: impl FnOnce(&PipelineArtifacts) -> Result<(), CliError>,
) -> Result<RunStatus, CliError> {
    let trace = flags::TraceOut::new(args);
    let recorder = recorder_for(args, &trace);
    let run_span = open_span(recorder.as_ref(), &format!("run:{}", args.command().name));
    let result = run_pipeline_recorded(args, recorder.as_ref())
        .and_then(|artifacts| report(&artifacts).map(|()| artifacts.status()));
    if let (Err(e), Some(span)) = (&result, &run_span) {
        let message = ("message".to_string(), lpr_obs::FieldValue::Str(e.0.clone()));
        span.event(lpr_obs::Level::Error, "error", vec![message]);
    }
    drop(run_span);
    let emitted = emit_telemetry(args, &trace, recorder);
    let status = result?;
    emitted.map(|()| status)
}

/// Finalises telemetry: prints `--progress` stage lines to stderr and
/// writes the `--metrics` JSON, `--trace-out` Chrome trace and
/// `--prom-out` exposition files.
fn emit_telemetry(
    args: &Args,
    trace: &flags::TraceOut,
    recorder: Option<lpr_obs::Recorder>,
) -> Result<(), CliError> {
    let Some(recorder) = recorder else { return Ok(()) };
    let prom_out: Option<String> = args.get("--prom-out");
    let prom = prom_out.as_ref().map(|_| lpr_obs::export::prometheus_text(recorder.registry()));
    let telemetry = recorder.finish();
    if args.on("--progress") {
        for s in &telemetry.stages {
            eprintln!(
                "[lpr] {:<18} {:>8} -> {:<8} {:>8} us",
                s.name, s.input, s.output, s.wall_us,
            );
        }
        eprintln!("[lpr] total {} us", telemetry.total_wall_us);
    }
    if let Some(path) = args.get::<String>("--metrics") {
        std::fs::write(&path, telemetry.to_json()).map_err(|e| err(format!("{path}: {e}")))?;
    }
    trace.write().map_err(CliError)?;
    if let (Some(path), Some(prom)) = (prom_out, prom) {
        std::fs::write(&path, prom).map_err(|e| err(format!("{path}: {e}")))?;
    }
    Ok(())
}

/// Validates `--trace-out` files: parses each as the canonical Chrome
/// `trace_event` document, checks the round trip is byte-identical,
/// and prints an event census — the CI smoke test for trace emission.
fn trace_check(paths: &[String], w: &mut dyn Write) -> Result<(), CliError> {
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

/// Reads the words after `lpr <name>` against that command's flags: an
/// unknown command, any flag error and `--keep-going` with
/// `--fail-fast` are errors (exit code 1) before any work starts.
pub fn parse_args(name: &str, argv: &[String]) -> Result<Args, CliError> {
    let command = flags::command(COMMANDS, name)
        .ok_or_else(|| err(format!("unknown command `{name}` (try `lpr help`)")))?;
    let args = flags::parse(command, argv).map_err(CliError)?;
    if args.on("--keep-going") && args.on("--fail-fast") {
        return Err(err("--keep-going and --fail-fast contradict each other"));
    }
    Ok(args)
}

/// Entry point: dispatches a full argument vector. `Ok` carries the
/// [`RunStatus`] whose [`RunStatus::exit_code`] the process should exit
/// with; `Err` means exit code 1.
pub fn run(argv: &[String], w: &mut dyn Write) -> Result<RunStatus, CliError> {
    let (cmd, rest) = match argv.split_first() {
        Some((c, rest)) => (c.as_str(), rest),
        None => ("help", &[] as &[String]),
    };
    if matches!(cmd, "help" | "--help" | "-h") {
        writeln!(w, "{}", help())?;
        return Ok(RunStatus::Clean);
    }
    let args = parse_args(cmd, rest)?;
    let clean = |result: Result<(), CliError>| result.map(|()| RunStatus::Clean);
    match cmd {
        "classify" => commands::classify::run(&args, w),
        "stats" => commands::stats::run(&args, w),
        "tunnels" => commands::tunnels::run(&args, w),
        "info" => clean(commands::info::run(&args, w)),
        "dump" => clean(commands::dump::run(&args, w)),
        "demo" => clean(commands::demo::run(&args, w)),
        "serve" => commands::serve::run(&args, w).map(|_code| RunStatus::Clean),
        "trace-check" => clean(trace_check(args.positionals(), w)),
        other => unreachable!("`{other}` is in the flag table but has no runner"),
    }
}

const RIB: Flag = flag("--rib", Kind::Text, None, "RIB snapshot, `prefix asn` per line (required)");
const NEXT: Flag =
    flag("--next", Kind::Text, None, "a follow-up snapshot for Persistence; once per snapshot");
const METRICS: Flag = flag("--metrics", Kind::Text, None, "write run telemetry as JSON");
const PROGRESS: Flag = flag("--progress", Kind::Switch, None, "print the stage lines to stderr");
const THREADS: Flag =
    flag("--threads", Kind::Count { min: 1 }, None, "pipeline threads (default: every core)");
const PROM_OUT: Flag = flag("--prom-out", Kind::Text, None, "write the metrics as Prometheus text");
const KEEP_GOING: Flag =
    flag("--keep-going", Kind::Switch, None, "skip damaged input instead of failing (exit 3)");
const FAIL_FAST: Flag = flag("--fail-fast", Kind::Switch, None, "make any degradation fatal");
const SPILL_DIR: Flag =
    flag("--spill-dir", Kind::Text, None, "spill the window's key sets to files in this directory");

/// Every command `lpr` runs, in help order; each declares exactly the
/// flags it reads.
pub const COMMANDS: &[Command] = &[
    Command {
        name: "classify",
        positional: Positional::Many("cycle.warts"),
        about: "Runs the LPR pipeline over one cycle and prints each IOTP's class.",
        flags: &[
            RIB,
            NEXT,
            flag("--alias-rescue", Kind::Switch, None, "rescue Unclassified IOTPs by alias (§5)"),
            flag("--trees", Kind::Switch, None, "also print the egress-rooted LSP-trees"),
            flag("--per-as", Kind::Switch, None, "also print per-AS tallies"),
            flag("--router-level", Kind::Switch, None, "also merge IOTPs by inferred aliases"),
            METRICS,
            PROGRESS,
            THREADS,
            flags::TRACE_OUT,
            flags::TRACE_LEVEL,
            PROM_OUT,
            KEEP_GOING,
            FAIL_FAST,
            SPILL_DIR,
        ],
    },
    Command {
        name: "stats",
        positional: Positional::Many("cycle.warts"),
        about: "Runs the same pipeline and prints the filter survival (Table 1).",
        flags: &[
            RIB,
            NEXT,
            METRICS,
            PROGRESS,
            THREADS,
            flags::TRACE_OUT,
            flags::TRACE_LEVEL,
            PROM_OUT,
            KEEP_GOING,
            FAIL_FAST,
            SPILL_DIR,
        ],
    },
    Command {
        name: "tunnels",
        positional: Positional::Many("cycle.warts"),
        about: "Prints every explicit tunnel in the input.",
        flags: &[KEEP_GOING],
    },
    Command {
        name: "dump",
        positional: Positional::Many("file.warts"),
        about: "Renders every record as scamper-style text; decodes strictly.",
        flags: &[],
    },
    Command {
        name: "info",
        positional: Positional::Many("file.warts"),
        about: "Prints each file's record inventory; decodes strictly.",
        flags: &[],
    },
    Command {
        name: "demo",
        positional: Positional::None,
        about: "Writes a simulated sample campaign and its RIB.",
        flags: &[
            flag("--out", Kind::Text, None, "warts output (required)"),
            flag("--rib-out", Kind::Text, None, "RIB output (required)"),
            flag("--tunnel-visibility", Kind::Mix, None, "hide part of the MPLS deployment"),
        ],
    },
    Command {
        name: "serve",
        positional: Positional::None,
        about: "Runs the continuous-measurement daemon (see below).",
        flags: &[
            flag("--spool", Kind::Text, None, "directory watched for *.warts drops (required)"),
            flag("--rib", Kind::Text, None, "RIB snapshot (required)"),
            flag("--addr", Kind::Text, Some("127.0.0.1:0"), "HTTP listen address, HOST:PORT"),
            flag("--window", Kind::Count { min: 1 }, Some("4"), "cycles in the sliding window"),
            flag("--threads", Kind::Count { min: 1 }, Some("1"), "ingest threads per file"),
            flag("--tick-ms", Kind::Count { min: 0 }, Some("500"), "reconcile-loop interval"),
            flag("--ingest-timeout-ms", Kind::Count { min: 0 }, Some("30000"), "ingest deadline"),
            flag("--retries", Kind::Count { min: 0 }, Some("2"), "retries of a failed ingest"),
            flag("--backoff-ms", Kind::Count { min: 0 }, Some("250"), "first retry backoff"),
            flag("--backoff-cap-ms", Kind::Count { min: 0 }, Some("5000"), "longest retry backoff"),
            flag("--growing-grace", Kind::Count { min: 0 }, Some("6"), "scans a file may grow"),
            flag("--once", Kind::Count { min: 0 }, None, "exit after N reconcile ticks"),
        ],
    },
    Command {
        name: "trace-check",
        positional: Positional::Many("trace.json"),
        about: "Checks that each --trace-out file round-trips byte for byte.",
        flags: &[],
    },
];

/// `lpr help`: the flag lines rendered from [`COMMANDS`], then what
/// they do not say.
fn help() -> String {
    let header = "lpr — MPLS transit path diversity classification (IMC'15 LPR algorithm)";
    format!("{}\n{PROSE}", flags::usage(header, "lpr", COMMANDS))
}

const PROSE: &str = "\
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

    /// `lpr classify <argv>`, read against its flags.
    fn classify(argv: &[&str]) -> Result<Args, CliError> {
        parse_args("classify", &s(argv))
    }

    #[test]
    fn parse_options() {
        let o = classify(&[
            "a.warts",
            "--rib",
            "rib.txt",
            "--next",
            "b.warts",
            "--next",
            "c.warts",
            "--alias-rescue",
            "--per-as",
        ])
        .unwrap();
        assert_eq!(o.positionals(), ["a.warts"]);
        assert_eq!(o.all("--next").len(), 2, "two --next files: the paper's j = 2");
        assert_eq!(o.get::<String>("--rib").as_deref(), Some("rib.txt"));
        assert!(o.on("--alias-rescue") && o.on("--per-as"));
        assert!(!o.on("--trees") && !o.on("--router-level"));
    }

    #[test]
    fn unknown_flag_is_an_error() {
        assert!(classify(&["a.warts", "--bogus"]).is_err());
        assert!(classify(&["a.warts", "--rib"]).is_err());
        // The persistence window is the number of --next files.
        assert!(classify(&["a.warts", "--j", "2"]).is_err());
    }

    #[test]
    fn serve_defaults_are_the_daemon_defaults() {
        let args = parse_args("serve", &s(&["--spool", "spool", "--rib", "rib.txt"])).unwrap();
        let config = commands::serve::config(&args).unwrap();
        let daemon = lpr_serve::ServeConfig::new("spool", "rib.txt");
        assert_eq!(format!("{config:?}"), format!("{daemon:?}"));
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
        let o = classify(&["a.warts", "--metrics", "t.json", "--progress"]).unwrap();
        assert_eq!(o.get::<String>("--metrics").as_deref(), Some("t.json"));
        assert!(o.on("--progress"));
        assert!(classify(&["a.warts", "--metrics"]).is_err());
    }

    #[test]
    fn parse_degradation_flags() {
        let o = classify(&["a.warts", "--keep-going"]).unwrap();
        assert!(o.on("--keep-going") && !o.on("--fail-fast"));
        let o = classify(&["a.warts", "--fail-fast"]).unwrap();
        assert!(o.on("--fail-fast") && !o.on("--keep-going"));
        let e = classify(&["a.warts", "--keep-going", "--fail-fast"]).unwrap_err();
        assert!(e.0.contains("contradict"), "{e}");
    }

    #[test]
    fn parse_out_of_core_flags() {
        let o = classify(&["a.warts", "--spill-dir", "/tmp/x"]).unwrap();
        assert_eq!(o.get::<String>("--spill-dir").as_deref(), Some("/tmp/x"));
        assert!(classify(&["a.warts"]).unwrap().get::<String>("--spill-dir").is_none());
        assert!(classify(&["a.warts", "--spill-dir"]).is_err());
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

        let options = |spill_dir: Option<&str>| {
            let line = [&warts_path, "--next", &warts_path, "--rib", &rib_path, "--threads", "2"];
            let spill = spill_dir.map(|dir| ["--spill-dir", dir]);
            classify(&[&line[..], spill.as_ref().map_or(&[][..], |f| &f[..])].concat()).unwrap()
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
        let o = classify(&["a.warts", "--threads", "4"]).unwrap();
        assert_eq!(o.get::<usize>("--threads"), Some(4));
        assert_eq!(classify(&["a.warts"]).unwrap().get::<usize>("--threads"), None);
        assert!(classify(&["a.warts", "--threads"]).is_err());
        assert!(classify(&["a.warts", "--threads", "0"]).is_err());
        assert!(classify(&["a.warts", "--threads", "x"]).is_err());
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
        let o = classify(&[&warts_path, "--rib", &rib_path]).unwrap();
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
        assert_eq!(telemetry.stage("CorpusOpen").unwrap().input, 1, "one input file");
        let ingest = telemetry.stage("Ingest").unwrap();
        assert_eq!(ingest.input, telemetry.stage("TunnelExtraction").unwrap().input);
        assert_eq!(ingest.output, reference.report.remaining[&FilterStage::TargetAs] as u64);
        assert!(telemetry.stage("SnapshotKeys").is_none(), "no --next, no window to key");
        assert!(telemetry.counter("cli.input_bytes") > 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Runs a traced classify in-process and returns the journal plus
    /// the finished telemetry.
    fn traced_classify(
        threads: usize,
        warts_paths: &[String],
        next: &[String],
        rib_path: &str,
    ) -> (lpr_obs::TraceSnapshot, lpr_obs::RunTelemetry) {
        let recorder = lpr_obs::Recorder::new("lpr classify")
            .with_tracer(lpr_obs::Tracer::new(lpr_obs::Level::Debug));
        let run_span = open_span(Some(&recorder), "run:classify");
        let mut line = s(&["--rib", rib_path, "--threads", &threads.to_string()]);
        line.extend(warts_paths.iter().cloned());
        for path in next {
            line.extend(["--next".to_string(), path.clone()]);
        }
        let o = parse_args("classify", &line).unwrap();
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

        let (seq, _) = traced_classify(1, std::slice::from_ref(&warts_path), &[], &rib_path);
        let reference = span_skeleton(&seq);
        assert!(
            reference.iter().any(|p| p == "run:classify/cycle/stage:Ingest"),
            "skeleton misses the ingest stage: {reference:?}"
        );
        for threads in [2usize, 8] {
            let (snap, _) =
                traced_classify(threads, std::slice::from_ref(&warts_path), &[], &rib_path);
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

        let (snapshot, _) = traced_classify(2, &inputs, &[], &rib_path);
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

        // Two cycle files and a `--next` snapshot: every stage runs.
        let inputs = vec![warts_path.clone(), bad_path];
        let next = vec![warts_path];
        for threads in [1usize, 2, 4] {
            let (snapshot, telemetry) = traced_classify(threads, &inputs, &next, &rib_path);
            assert_eq!(snapshot.dropped, 0, "journal must not wrap on the demo input");
            let spans = span_table(&snapshot);
            let stages: Vec<(&str, u64, u64, u64)> = spans
                .iter()
                .filter_map(|(id, (name, _, begin, end))| {
                    Some((name.strip_prefix("stage:")?, *id, *begin, *end))
                })
                .collect();
            let mut names: Vec<&str> = stages.iter().map(|s| s.0).collect();
            names.sort_unstable();
            let expected = [
                "Classification",
                "CorpusOpen",
                "Ingest",
                "Persistence",
                "SnapshotKeys",
                "TransitDiversity",
            ];
            assert_eq!(names, expected, "threads {threads}");

            // A row and its span are one measurement, both ways round:
            // every stage span has its row, within 1 us of truncation...
            let rows: Vec<_> = telemetry.stages.iter().filter(|s| !s.name.contains('/')).collect();
            for &(name, _, begin, end) in &stages {
                assert_ne!(end, u64::MAX, "stage:{name} never ended");
                let row = rows.iter().find(|r| r.name == name);
                let row = row.unwrap_or_else(|| panic!("stage:{name} has no row"));
                assert!(
                    (end - begin).abs_diff(row.wall_us) <= 1,
                    "threads {threads}: stage:{name} span {}us vs row {}us",
                    end - begin,
                    row.wall_us
                );
            }
            // ...and every row with a wall has exactly one span; those
            // spans never overlap.
            let mut timed: Vec<(u64, u64, &str)> = Vec::new();
            for row in rows.iter().filter(|r| r.wall_us > 0) {
                let matching: Vec<_> = stages.iter().filter(|s| s.0 == row.name).collect();
                assert_eq!(matching.len(), 1, "threads {threads}: spans of row {}", row.name);
                timed.push((matching[0].2, matching[0].3, matching[0].0));
            }
            timed.sort_unstable();
            for pair in timed.windows(2) {
                assert!(
                    pair[1].0 >= pair[0].1,
                    "threads {threads}: {} overlaps {}",
                    pair[0].2,
                    pair[1].2
                );
            }

            // Shard spans nest inside their stage span, on at most
            // `threads` lanes.
            for &(name, stage_id, stage_begin, stage_end) in &stages {
                let mut shard_sum = 0u64;
                for (shard, parent, begin, end) in spans.values() {
                    if *parent == stage_id && shard.starts_with("shard") {
                        assert!(
                            *begin >= stage_begin && *end <= stage_end,
                            "shard span escapes stage:{name}"
                        );
                        shard_sum += end - begin;
                    }
                }
                assert!(
                    shard_sum <= threads as u64 * (stage_end - stage_begin),
                    "stage:{name} shard sum {shard_sum}us exceeds {threads} lanes"
                );
            }

            // Quarantine warn events carry an `n` field per reason;
            // their sum is exactly the quarantined counter.
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
        }
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

        let (_, telemetry) =
            traced_classify(2, std::slice::from_ref(&warts_path), &[], &rib_path);
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
