//! `lpr-bench` — deterministic checks of the LPR pipeline.
//!
//! A plain binary (no `cargo bench`/Criterion dependency). Each
//! subcommand runs one end-to-end scenario and exits 1 when a check
//! fails: output identity across thread counts, the pinned golden
//! campaign fingerprint, the chaos, mda, revelation and serve
//! acceptance bars, and the CI tripwires. `lpr-bench pipeline` writes
//! a report holding only values every run of the same command repeats,
//! and `lpr-bench compare` holds it to exact equality with a committed
//! baseline. Wall-time measurement lives in `perfbench/`.
//!
//! Every subcommand parses its flags from one table
//! ([`lpr_bench::COMMANDS`], read by `lpr_cli::flags`); `lpr-bench help`
//! prints it. A flag error exits 2.

#![forbid(unsafe_code)]

use lpr_bench::{campaign_fingerprint, COMMANDS, GOLDEN_CAMPAIGN_FNV};
use lpr_cli::flags::{self, Args, TraceOut};
use lpr_core::pipeline::{IngestState, PersistenceWindow, Pipeline};
use lpr_core::prelude::*;
use lpr_core::spill::{spill_keys, SpilledKeys};
use lpr_obs::json::JsonValue;
use lpr_obs::{Recorder, StageGuard};
use std::collections::BTreeSet;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Prints to stdout, swallowing broken-pipe errors (`lpr-bench ... |
/// head` must not panic).
macro_rules! say {
    ($($arg:tt)*) => {
        let _ = writeln!(std::io::stdout(), $($arg)*);
    };
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("help") | Some("--help") | Some("-h") | None => {
            say!("{}", lpr_bench::usage());
            0
        }
        Some(name) => match flags::command(COMMANDS, name).map(|c| flags::parse(c, &args[1..])) {
            None => usage_error(&format!("unknown subcommand `{name}`")),
            Some(Err(e)) => usage_error(&e),
            Some(Ok(args)) => match name {
                "pipeline" => pipeline(&args),
                "mda" => mda_cmd(&args),
                "revelation" => revelation_cmd(&args),
                "chaos" => chaos(&args),
                "serve" => serve_soak(&args),
                "corrupt" => corrupt_cmd(&args),
                "compare" => compare_cmd(&args),
                other => unreachable!("`{other}` is in the flag table but has no runner"),
            },
        },
    };
    std::process::exit(code);
}

/// Reports a command-line error with the usage text; exit code 2.
fn usage_error(message: &str) -> i32 {
    eprintln!("{message}\n{}", lpr_bench::usage());
    2
}

/// The flag table's value of a `Kind::Probing` flag.
fn strategy(args: &Args) -> netsim::ProbingStrategy {
    netsim::ProbingStrategy::parse(&args.value::<String>("--probing"))
        .expect("the flag table checked --probing")
}

/// Writes `--trace-out`'s journal, saying where; `false` (and the
/// error on stderr) when the write failed.
fn write_trace(trace: &TraceOut) -> bool {
    match trace.write() {
        Ok(Some(path)) => {
            say!("wrote {path}");
            true
        }
        Ok(None) => true,
        Err(e) => {
            eprintln!("{e}");
            false
        }
    }
}

/// The campaign cycle every check generates.
const CYCLE: usize = 40;
/// Snapshots per cycle of `pipeline` and `chaos`: the cycle and a
/// two-snapshot Persistence window.
const SNAPSHOTS: usize = 3;
/// `revelation`'s tunnel-visibility mix: 60% of LER pairs hide their
/// tunnel.
const REVELATION_MIX: netsim::VisibilityMix =
    netsim::VisibilityMix { explicit: 0.4, implicit: 0.2, invisible: 0.2, opaque: 0.2 };
/// `chaos`'s fault seed.
const CHAOS_SEED: u64 = 42;
/// `chaos`'s fault rates, the fault-free reference first.
const CHAOS_RATES: [f64; 4] = [0.0, 0.02, 0.05, 0.1];
/// The largest class-share drift `chaos` accepts at any rate.
const DRIFT_BOUND: f64 = 0.5;
/// Campaign cycles `serve` drops, one clean and one corrupted file each.
const SOAK_CYCLES: usize = 5;
/// `serve`'s per-record corruption rate.
const SOAK_CHAOS_RATE: f64 = 0.1;
/// `serve`'s campaign and corruption seed.
const SOAK_SEED: u64 = 1;
/// `serve`'s daemon and batch threads.
const SOAK_THREADS: usize = 1;

/// Thread counts every identity check runs at: the campaign, the
/// in-memory and out-of-core pipelines, and the chaos, mda and
/// revelation sweeps must give the same output at each.
const THREADS_CHECKED: [usize; 4] = [1, 2, 4, 8];

/// Runs `run` at each of `counts` threads and compares each result with
/// `reference`, printing one `FAIL` line per divergence. Returns each
/// count with whether its result matched.
fn sweep_threads<T: PartialEq>(
    what: &str,
    counts: &[usize],
    reference: &T,
    mut run: impl FnMut(usize) -> T,
) -> Vec<(usize, bool)> {
    counts
        .iter()
        .map(|&n| {
            let matches = run(n) == *reference;
            if !matches {
                eprintln!("FAIL: {what} at {n} thread(s) diverges from the reference run");
            }
            (n, matches)
        })
        .collect()
}

/// Whether every row of a [`sweep_threads`] matched.
fn all_match(rows: &[(usize, bool)]) -> bool {
    rows.iter().all(|&(_, matches)| matches)
}

/// This process's peak resident set size in bytes (Linux `VmHWM`), or
/// `None` off Linux / when the parse fails.
fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024)
}

/// Resets the kernel's RSS high-water mark (`echo 5 >
/// /proc/self/clear_refs`) so the next [`peak_rss_bytes`] reading
/// covers only the phase that follows. `false` when unsupported.
fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// How many files a corpus cycle is split across: one per ~100K traces,
/// at least 4 so multi-file sharding is always exercised.
fn corpus_file_count(traces: usize) -> usize {
    (traces / 100_000).clamp(4, 64)
}

/// Total size of the files at `paths`, bytes.
fn bytes_on_disk(paths: &[PathBuf]) -> u64 {
    paths.iter().filter_map(|p| std::fs::metadata(p).ok()).map(|m| m.len()).sum()
}

/// What a pipeline head hands the shared tail: the cycle as corpus
/// files, its persistence window as spill files, and the verdicts of
/// the checks the head ran.
struct Head {
    world: ark_dataset::World,
    paths: Vec<PathBuf>,
    spilled: Vec<SpilledKeys>,
    budget: netsim::ProbeBudget,
    /// Golden-fingerprint verdict; `None` off the default campaign shape.
    golden: Option<bool>,
    /// Scale 1 only: the in-memory persistence window and the in-memory
    /// pipeline's output, which every out-of-core run must reproduce.
    in_memory: Option<(Vec<BTreeSet<LspKey>>, PipelineOutput)>,
    /// Whether a head check already failed.
    diverged: bool,
}

/// `lpr-bench pipeline`. A head generates the campaign and persists
/// it — [`demo_head`] at scale 1, [`scaled_head`] past it — and one
/// tail ([`pipeline_tail`]) runs everything after: the out-of-core
/// identity sweep, the tripwires, the report and the summary. The
/// tracer's journal is written last either way.
fn pipeline(args: &Args) -> i32 {
    let trace = TraceOut::new(args);
    let tracer = trace.tracer();
    let recorder = Recorder::new("lpr-bench pipeline").with_tracer(tracer.clone());
    let run_span = tracer.span("run:bench-pipeline");
    tracer.set_default_parent(run_span.context());
    netsim::igp::spf_cache_reset();
    let tmp = std::env::temp_dir().join(format!("lpr-bench-pipeline-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&tmp);

    let head = if args.value::<usize>("--scale") == 1 {
        demo_head(args, &recorder, &tmp)
    } else {
        scaled_head(args, &recorder, &tmp)
    };
    let result = head.and_then(|head| pipeline_tail(args, head, recorder));
    let _ = std::fs::remove_dir_all(&tmp);
    tracer.set_default_parent(lpr_obs::SpanContext::ROOT);
    drop(run_span);
    if !write_trace(&trace) {
        return 1;
    }
    result.unwrap_or_else(|e| {
        eprintln!("{e}");
        1
    })
}

/// The scale-1 head, which holds the whole cycle in memory. It
/// generates the campaign (matching the golden fingerprint when
/// exhaustive, and itself at every probing thread count),
/// round-trips it through the warts codec, runs the in-memory pipeline
/// (the out-of-core reference, identical at every thread count), and
/// writes the cycle as corpus files and its persistence window as
/// spill files.
fn demo_head(args: &Args, recorder: &Recorder, tmp: &Path) -> Result<Head, String> {
    let threads: usize = args.value("--threads");
    let probing = strategy(args);
    let mut diverged = false;

    let stage = StageGuard::open(Some(recorder), "GenerateCampaign");
    let world = ark_dataset::standard_world();
    let campaign = |n: usize| {
        let opts = ark_dataset::CampaignOptions {
            snapshots: SNAPSHOTS,
            probing,
            threads: n,
            ..Default::default()
        };
        ark_dataset::generate_cycle(&world, CYCLE, &opts)
    };
    let data = campaign(1);
    let traces = &data.snapshots[0];
    stage.finish_counts(0, traces.len() as u64);

    // The exhaustive campaign must match the fingerprint captured
    // before the dense-SPF / probe-ladder / parallel-probing rewrite:
    // drift means those optimisations changed observable output.
    let exhaustive = probing == netsim::ProbingStrategy::Exhaustive;
    let golden = exhaustive.then(|| campaign_fingerprint(&data.snapshots));
    if let Some(fp) = golden.filter(|&fp| fp != GOLDEN_CAMPAIGN_FNV) {
        eprintln!(
            "FAIL: campaign fingerprint {fp:#018x} != pinned golden {GOLDEN_CAMPAIGN_FNV:#018x}"
        );
        diverged = true;
    }
    // The shard-order merge in `Prober::campaign` makes the traces
    // byte-identical at any probing thread count.
    let rows = sweep_threads("campaign", &THREADS_CHECKED[1..], &data.snapshots, |n| {
        campaign(n).snapshots
    });
    diverged |= !all_match(&rows);

    // Round-trip through the warts codec: the stream reader's traces are
    // the reference the corpus decode must reproduce.
    let stage = StageGuard::open(Some(recorder), "WartsEncode");
    let bytes = warts::encode_cycle(traces, "bench", 1, 0, 1).expect("encode");
    stage.finish_counts(traces.len() as u64, bytes.len() as u64);

    let stage = StageGuard::open(Some(recorder), "WartsDecode");
    let mut decoded = Vec::new();
    let mut reader = warts::WartsStreamReader::new(bytes.as_slice());
    loop {
        match reader.next_record() {
            Ok(Some(warts::Record::Trace(t))) => {
                if let Ok(Some(core)) = warts::trace_to_core(&t) {
                    decoded.push(core);
                }
            }
            Ok(Some(_)) => {}
            Ok(None) => break,
            Err(e) => return Err(format!("warts decode failed: {e}")),
        }
    }
    stage.finish_counts(bytes.len() as u64, decoded.len() as u64);

    // The in-memory pipeline at `--threads`, then the same output at
    // every thread count.
    let future: Vec<_> =
        data.snapshots[1..].iter().map(|t| Pipeline::snapshot_keys_par(t, threads)).collect();
    let pl = Pipeline::new(FilterConfig { persistence_window: future.len(), ..Default::default() });
    let run = |n: usize| {
        let opts = lpr_par::ShardOptions::new(n);
        let ingest = IngestState::from_traces(&decoded, world.rib(), None, opts);
        pl.finish_stages(ingest, &future, None, opts)
    };
    let out = run(threads);
    diverged |= !all_match(&sweep_threads("in-memory pipeline", &THREADS_CHECKED, &out, run));

    let stage = StageGuard::open(Some(recorder), "CorpusWrite");
    let paths =
        lpr_corpus::write_corpus_files(tmp, "bench", &decoded, corpus_file_count(decoded.len()))
            .map_err(|e| format!("corpus write: {e}"))?;
    stage.finish_counts(decoded.len() as u64, bytes_on_disk(&paths));
    let spilled = future
        .iter()
        .enumerate()
        .map(|(i, keys)| spill_keys(keys.iter().cloned(), &tmp.join("spill"), &format!("next{i}")))
        .collect::<std::io::Result<Vec<_>>>()
        .map_err(|e| format!("key spill: {e}"))?;
    Ok(Head {
        golden: golden.map(|fp| fp == GOLDEN_CAMPAIGN_FNV),
        budget: data.budget,
        world,
        paths,
        spilled,
        in_memory: Some((future, out)),
        diverged,
    })
}

/// The head past scale 1, where the cycle never sits in memory whole:
/// each snapshot is generated, persisted — snapshot 0 as corpus files,
/// later ones as spilled key files — and dropped. Each snapshot records
/// its own `GenerateCampaign` row, then a `CorpusWrite` or
/// `SpillFutureKeys` row.
fn scaled_head(args: &Args, recorder: &Recorder, tmp: &Path) -> Result<Head, String> {
    let scale: usize = args.value("--scale");
    let threads: usize = args.value("--threads");
    let world = ark_dataset::scaled_world(scale);
    let copts = ark_dataset::CampaignOptions {
        snapshots: SNAPSHOTS,
        hosts_per_prefix: ark_dataset::scale_hosts_per_prefix(scale),
        threads,
        probing: strategy(args),
        ..Default::default()
    };
    let mut paths = Vec::new();
    let mut spilled = Vec::new();
    let mut budget = netsim::ProbeBudget::default();
    for snap in 0..SNAPSHOTS {
        let stage = StageGuard::open(Some(recorder), "GenerateCampaign");
        let (traces, snap_budget) =
            ark_dataset::generate_snapshot_with_budget(&world, CYCLE, snap, &copts);
        stage.finish_counts(0, traces.len() as u64);
        budget.merge(&snap_budget);
        let n = traces.len() as u64;
        if snap == 0 {
            let stage = StageGuard::open(Some(recorder), "CorpusWrite");
            paths = lpr_corpus::write_corpus_files(
                tmp,
                "cycle",
                &traces,
                corpus_file_count(traces.len()),
            )
            .map_err(|e| format!("corpus write: {e}"))?;
            stage.finish_counts(n, bytes_on_disk(&paths));
        } else {
            let stage = StageGuard::open(Some(recorder), "SpillFutureKeys");
            let keys = Pipeline::snapshot_keys_par(&traces, threads);
            let sp = spill_keys(keys, &tmp.join("spill"), &format!("next{}", snap - 1))
                .map_err(|e| format!("key spill: {e}"))?;
            stage.finish_counts(n, sp.count);
            spilled.push(sp);
        }
    }
    Ok(Head { world, paths, spilled, budget, golden: None, in_memory: None, diverged: false })
}

/// The shared tail of `lpr-bench pipeline`: index the corpus (cold,
/// then cached), run the instrumented out-of-core pipeline, check every
/// out-of-core run against the reference at every thread count, run
/// the tripwires, and write the report. Returns the exit code.
fn pipeline_tail(args: &Args, head: Head, recorder: Recorder) -> Result<i32, String> {
    let threads: usize = args.value("--threads");
    let Head { world, paths, spilled, budget, golden, in_memory, mut diverged } = head;

    // The ingest phase starts here: the peak reading covers only what
    // follows.
    let rss_reset = reset_peak_rss();

    // Open twice: the first open builds and caches every `.lpridx`, the
    // second must hit all of them — both land in the corpus.* counters,
    // so a cache-staleness regression shows up as an index_hits drift.
    let stage = StageGuard::open(Some(&recorder), "IndexBuild");
    lpr_corpus::Corpus::open_with(&paths, true, Some(&recorder))
        .map_err(|e| format!("corpus index build: {e}"))?;
    let corpus = lpr_corpus::Corpus::open_with(&paths, true, Some(&recorder))
        .map_err(|e| format!("corpus index reload: {e}"))?;
    stage.finish_counts(paths.len() as u64, corpus.total_records());

    let pl =
        Pipeline::new(FilterConfig { persistence_window: spilled.len(), ..Default::default() });
    let run = |n: usize, window: PersistenceWindow<'_>, rec: Option<&Recorder>| {
        let (ingest, report) =
            lpr_corpus::ingest_cycle(&corpus, world.rib(), lpr_corpus::IngestOptions::new(n), rec);
        if let Some(rec) = rec {
            report.record(rec);
        }
        pl.finish_stages_windowed(ingest, window, rec, lpr_par::ShardOptions::new(n))
            .map_err(|e| format!("out-of-core pipeline at {n} threads: {e}"))
    };

    // The instrumented run, spilled window and `--threads` workers,
    // records the `Ingest` stage, every funnel row and the `warts.*`
    // counters, as `lpr classify` does.
    let instrumented = run(threads, PersistenceWindow::Spilled(&spilled), Some(&recorder));
    let out = instrumented.as_ref().map_err(String::clone)?;

    // At scale 1 the instrumented run must reproduce the in-memory
    // pipeline, and every out-of-core run uses the in-memory window.
    let window = match &in_memory {
        Some((future, reference)) => {
            if out != reference {
                eprintln!(
                    "FAIL: out-of-core ingest with the spilled window diverges from the \
                     in-memory pipeline"
                );
                diverged = true;
            }
            PersistenceWindow::Mem(future)
        }
        None => PersistenceWindow::Spilled(&spilled),
    };
    let rows = sweep_threads("out-of-core ingest", &THREADS_CHECKED, &instrumented, |n| {
        run(n, window, None).inspect_err(|e| eprintln!("FAIL: {e}"))
    });
    diverged |= !all_match(&rows);
    let peak_rss = if rss_reset { peak_rss_bytes() } else { None };

    // GenerateCampaign's share of the top-level stage walls (summed over
    // its rows: one per snapshot past scale 1); per-worker rows
    // ("worker0/Ingest", ...) re-count time already in their parent
    // stage.
    let telemetry = recorder.finish();
    let top_level = || telemetry.stages.iter().filter(|s| !s.name.contains('/'));
    let total: u64 = top_level().map(|s| s.wall_us).sum();
    let campaign: u64 =
        top_level().filter(|s| s.name == "GenerateCampaign").map(|s| s.wall_us).sum();
    let campaign_share = campaign as f64 / total.max(1) as f64;

    let mut breached = probe_ceiling_breached(&budget, args.get("--max-probes-per-dst"));
    if let Some(ceiling) = args.get::<f64>("--max-campaign-share") {
        if campaign_share > ceiling {
            eprintln!(
                "FAIL: GenerateCampaign takes {:.1}% of stage wall time (ceiling {:.1}%)",
                campaign_share * 100.0,
                ceiling * 100.0,
            );
            breached = true;
        }
    }
    match (args.get::<u64>("--mem-ceiling-bytes"), peak_rss) {
        (Some(ceiling), Some(peak)) if peak > ceiling => {
            eprintln!(
                "FAIL: ingest-phase peak resident bytes {peak} exceed the --mem-ceiling-bytes \
                 {ceiling}"
            );
            breached = true;
        }
        (Some(_), None) => eprintln!(
            "warning: --mem-ceiling-bytes skipped: no resettable RSS high-water mark on this kernel"
        ),
        _ => {}
    }

    let int = |n: u64| JsonValue::Int(n as i128);
    let ingest = JsonValue::Object(vec![
        ("scale".to_string(), int(args.value("--scale"))),
        ("corpus_files".to_string(), int(paths.len() as u64)),
        ("corpus_bytes".to_string(), int(corpus.total_bytes())),
        ("corpus_records".to_string(), int(corpus.total_records())),
        ("traces".to_string(), int(corpus.total_traces())),
        ("lsps_in".to_string(), int(out.report.input as u64)),
    ]);
    let stages = top_level()
        .map(|s| {
            JsonValue::Object(vec![
                ("name".to_string(), JsonValue::Str(s.name.clone())),
                ("input".to_string(), int(s.input)),
                ("output".to_string(), int(s.output)),
            ])
        })
        .collect();
    let mut report = vec![
        ("iotps".to_string(), int(out.iotps.len() as u64)),
        ("lsps_in".to_string(), int(out.report.input as u64)),
        (
            "telemetry".to_string(),
            JsonValue::Object(vec![
                ("stages".to_string(), JsonValue::Array(stages)),
                ("counters".to_string(), JsonValue::from_u64_map(&telemetry.counters)),
            ]),
        ),
    ];
    if let Some(matches) = golden {
        report.push((
            "golden_fingerprint".to_string(),
            JsonValue::Object(vec![
                ("expected".to_string(), JsonValue::Str(format!("{GOLDEN_CAMPAIGN_FNV:#018x}"))),
                ("matches".to_string(), JsonValue::Bool(matches)),
            ]),
        ));
    }
    report.push(("ingest".to_string(), ingest));
    report.push(("probing".to_string(), probing_json(strategy(args), &budget)));
    let out_path: String = args.value("--out");
    std::fs::write(&out_path, JsonValue::Object(report).render_pretty())
        .map_err(|e| format!("{out_path}: {e}"))?;

    say!("GenerateCampaign share of stage wall time: {:.1}%", campaign_share * 100.0);
    match peak_rss {
        Some(b) => {
            say!("ingest-phase peak: {b} resident bytes");
        }
        None => {
            say!("ingest-phase peak: resident bytes unavailable");
        }
    }
    say!("probes per destination: {:.2}", budget.probes_per_pair());
    say!("wrote {out_path}");
    if diverged {
        eprintln!("determinism self-check failed");
    }
    Ok(if diverged || breached { 1 } else { 0 })
}

/// The `mda` subcommand: the stochastic prober against the exhaustive
/// oracle over whole campaigns, with the thread-identity check (see
/// `lpr-bench help` for the pass bar). The per-pair probes-vs-recall
/// curve is `experiments mda`'s `fig_mda_recall.csv`.
fn mda_cmd(args: &Args) -> i32 {
    let out_path: String = args.value("--out");
    let hosts: usize = args.value("--hosts");
    let max_probes_per_dst: Option<f64> = args.get("--max-probes-per-dst");

    // Whole campaigns at a host density where the /24 host groups give
    // the stopping rule real flow variation to prune.
    say!("campaign comparison at {hosts} hosts/prefix, cycle {CYCLE} …");
    let world = ark_dataset::standard_world();
    let iotp_keys = |data: &ark_dataset::campaign::CycleData| -> BTreeSet<lpr_core::lsp::IotpKey> {
        ark_dataset::campaign::analyze_cycle(&world, data, 2)
            .output
            .iotps
            .iter()
            .map(|(iotp, _)| iotp.key)
            .collect()
    };
    let generate = |probing: netsim::ProbingStrategy, threads: usize| {
        let opts = ark_dataset::CampaignOptions {
            hosts_per_prefix: hosts,
            probing,
            threads,
            ..Default::default()
        };
        ark_dataset::generate_cycle(&world, CYCLE, &opts)
    };

    // Each campaign is distilled to what the checks read right away, so
    // at most one cycle's traces stay resident at a time.
    let exhaustive = generate(netsim::ProbingStrategy::Exhaustive, 1);
    let ex_budget = exhaustive.budget;
    say!("  exhaustive: {} traces", exhaustive.snapshots.iter().map(Vec::len).sum::<usize>());
    say_budget(netsim::ProbingStrategy::Exhaustive, &ex_budget);
    let ex_iotps = iotp_keys(&exhaustive);
    drop(exhaustive);

    // The sequential MDA-Lite campaign is the reference every probing
    // thread count must reproduce byte for byte, compared through its
    // warts-encoded fingerprint and its exact budget.
    let lite = generate(netsim::ProbingStrategy::MdaLite, 1);
    let lite_budget = lite.budget;
    let lite_iotps = iotp_keys(&lite);
    let reference = (campaign_fingerprint(&lite.snapshots), lite_budget);
    drop(lite);
    let sweep = sweep_threads("MDA-Lite campaign", &THREADS_CHECKED[1..], &reference, |n| {
        let d = generate(netsim::ProbingStrategy::MdaLite, n);
        (campaign_fingerprint(&d.snapshots), d.budget)
    });
    let matches_all = all_match(&sweep);
    say_budget(netsim::ProbingStrategy::MdaLite, &lite_budget);

    // Transit-diversity recall: the classified IOTP set of the pruned
    // campaign against the exhaustive cycle's.
    let recovered = ex_iotps.intersection(&lite_iotps).count();
    let iotp_recall = recovered as f64 / ex_iotps.len().max(1) as f64;
    let probe_reduction =
        1.0 - lite_budget.probes_sent as f64 / ex_budget.probes_sent.max(1) as f64;
    let tripwire_ok = !probe_ceiling_breached(&lite_budget, max_probes_per_dst);
    say!(
        "  IOTP recall {recovered}/{} = {iotp_recall:.3}; probes {} -> {} ({:.1}% saved); \
         identical at threads 1/2/4/8: {matches_all}",
        ex_iotps.len(),
        ex_budget.probes_sent,
        lite_budget.probes_sent,
        probe_reduction * 100.0,
    );

    let passed =
        iotp_recall >= 0.95 && matches_all && probe_reduction > 0.0 && tripwire_ok;
    let campaign_side =
        |strategy: netsim::ProbingStrategy, budget: &netsim::ProbeBudget, iotps: usize| {
            JsonValue::Object(vec![
                ("iotps".to_string(), JsonValue::Int(iotps as i128)),
                ("budget".to_string(), probing_json(strategy, budget)),
            ])
        };
    let report = JsonValue::Object(vec![
        ("bench".to_string(), JsonValue::Str("mda".to_string())),
        ("cycle".to_string(), JsonValue::Int(CYCLE as i128)),
        ("hosts_per_prefix".to_string(), JsonValue::Int(hosts as i128)),
        (
            "campaign".to_string(),
            JsonValue::Object(vec![
                (
                    "exhaustive".to_string(),
                    campaign_side(netsim::ProbingStrategy::Exhaustive, &ex_budget, ex_iotps.len()),
                ),
                (
                    "mda_lite".to_string(),
                    campaign_side(netsim::ProbingStrategy::MdaLite, &lite_budget, lite_iotps.len()),
                ),
                ("thread_sweep".to_string(), thread_rows_json(&sweep)),
                ("iotp_recall".to_string(), JsonValue::Float(iotp_recall)),
                ("probe_reduction".to_string(), JsonValue::Float(probe_reduction)),
                ("matches_across_threads".to_string(), JsonValue::Bool(matches_all)),
            ]),
        ),
        (
            "tripwire".to_string(),
            JsonValue::Object(vec![
                (
                    "max_probes_per_dst".to_string(),
                    match max_probes_per_dst {
                        Some(f) => JsonValue::Float(f),
                        None => JsonValue::Null,
                    },
                ),
                (
                    "probes_per_dst".to_string(),
                    JsonValue::Float(lite_budget.probes_per_pair()),
                ),
                ("ok".to_string(), JsonValue::Bool(tripwire_ok)),
            ]),
        ),
        ("passed".to_string(), JsonValue::Bool(passed)),
    ])
    .render_pretty();
    if let Err(e) = std::fs::write(&out_path, &report) {
        eprintln!("{out_path}: {e}");
        return 1;
    }
    say!("wrote {out_path}");
    if passed {
        0
    } else {
        eprintln!("FAIL: the MDA acceptance bar was not met (see {out_path})");
        1
    }
}

/// `lpr-bench revelation`: the A/B gate for the TNT-style revelation
/// phase. Renders one cycle under a tunnel-visibility mix that hides
/// part of the MPLS deployment, runs the campaign with revelation at
/// probing thread counts 1/2/4/8 (byte-identity required), and takes
/// the A/B — plain LPR vs LPR plus revealed evidence — from
/// [`experiments::revelation::ab`]. Passes when revelation recovers
/// diversity (IOTP count rises, the Unclassified share does not grow),
/// at least one tunnel was actually revealed, the probe overhead is
/// accounted, and every thread count reproduced the sequential run
/// byte-for-byte.
fn revelation_cmd(args: &Args) -> i32 {
    let out_path: String = args.value("--out");
    let mix = REVELATION_MIX;

    let world = ark_dataset::standard_world();
    let reveal_opts = netsim::RevelationOptions::default();
    let generate = |threads: usize| {
        let opts = ark_dataset::CampaignOptions {
            visibility: Some(mix),
            threads,
            ..Default::default()
        };
        ark_dataset::generate_cycle_with_revelation(&world, CYCLE, &opts, &reveal_opts)
    };

    say!("revelation campaign: cycle {CYCLE}, mix {} …", mix.render());
    let (data, evidence) = generate(1);
    let traces = data.snapshots.iter().map(Vec::len).sum::<usize>();
    say!("  sequential: {traces} traces  {} candidates", evidence.len());
    let ab = experiments::revelation::ab(&world, &data, &evidence);

    // Traces, budget and evidence must all reproduce the sequential run
    // exactly at every probing thread count.
    let reference = (campaign_fingerprint(&data.snapshots), data.budget, evidence);
    drop(data);
    let sweep = sweep_threads("revelation campaign", &THREADS_CHECKED[1..], &reference, |n| {
        let (d, ev) = generate(n);
        (campaign_fingerprint(&d.snapshots), d.budget, ev)
    });
    let matches_all = all_match(&sweep);

    let base_share = ab.base.fractions()[3];
    let rev_share = ab.revealed.fractions()[3];
    say!(
        "  A/B: IOTPs {} -> {}; unclassified share {:.3} -> {:.3}; \
         {} of {} candidates revealed; {} DPR probes ({:.1}% overhead); \
         identical at threads 1/2/4/8: {matches_all}",
        ab.base.total(),
        ab.revealed.total(),
        base_share,
        rev_share,
        ab.revealed_tunnels,
        ab.triggers,
        ab.revelation_probes,
        ab.probe_overhead * 100.0,
    );

    let diversity_recovered = ab.revealed.total() > ab.base.total() && rev_share <= base_share;
    let passed = diversity_recovered
        && ab.revealed_tunnels > 0
        && ab.revelation_probes > 0
        && matches_all;

    let side = |counts: &lpr_core::pipeline::ClassCounts| {
        JsonValue::Object(vec![
            ("iotps".to_string(), JsonValue::Int(counts.total() as i128)),
            ("mono_lsp".to_string(), JsonValue::Int(counts.mono_lsp as i128)),
            ("multi_fec".to_string(), JsonValue::Int(counts.multi_fec as i128)),
            ("mono_fec".to_string(), JsonValue::Int(counts.mono_fec() as i128)),
            ("unclassified".to_string(), JsonValue::Int(counts.unclassified as i128)),
        ])
    };
    let report = JsonValue::Object(vec![
        ("bench".to_string(), JsonValue::Str("revelation".to_string())),
        ("cycle".to_string(), JsonValue::Int(CYCLE as i128)),
        ("mix".to_string(), JsonValue::Str(mix.render())),
        ("traces".to_string(), JsonValue::Int(traces as i128)),
        ("base".to_string(), side(&ab.base)),
        ("revealed".to_string(), side(&ab.revealed)),
        (
            "revelation".to_string(),
            JsonValue::Object(vec![
                ("triggers".to_string(), JsonValue::Int(ab.triggers as i128)),
                ("revealed".to_string(), JsonValue::Int(ab.revealed_tunnels as i128)),
                ("probes".to_string(), JsonValue::Int(ab.revelation_probes as i128)),
                ("probe_overhead".to_string(), JsonValue::Float(ab.probe_overhead)),
            ]),
        ),
        ("thread_sweep".to_string(), thread_rows_json(&sweep)),
        ("matches_across_threads".to_string(), JsonValue::Bool(matches_all)),
        ("diversity_recovered".to_string(), JsonValue::Bool(diversity_recovered)),
        ("passed".to_string(), JsonValue::Bool(passed)),
    ])
    .render_pretty();
    if let Err(e) = std::fs::write(&out_path, &report) {
        eprintln!("{out_path}: {e}");
        return 1;
    }
    say!("wrote {out_path}");
    if passed {
        0
    } else {
        eprintln!("FAIL: the revelation acceptance bar was not met (see {out_path})");
        1
    }
}

/// The fixed fixture for the chaos sweep's revelation leg: one Juniper
/// transit AS whose tunnel-visibility mix hides most of the deployment
/// from plain traceroute, so the revelation phase has real work that
/// the injected trigger/DPR faults can take away.
fn chaos_revelation_net() -> netsim::Internet {
    let mut cfg = netsim::MplsConfig::ldp_default();
    // Half the LER pairs stay explicit so the pipeline keeps a stable
    // base of label-visible IOTPs: class shares then move by a bounded
    // amount when a fault knocks out a revealed candidate, instead of
    // swinging the whole (tiny) denominator.
    cfg.visibility = netsim::VisibilityMix {
        explicit: 0.25,
        implicit: 0.25,
        invisible: 0.3,
        opaque: 0.2,
    };
    let specs = vec![
        netsim::AsSpec::transit(
            65000,
            "transit",
            netsim::Vendor::Juniper,
            netsim::TopologyParams {
                core_routers: 12,
                border_routers: 6,
                ecmp_diamonds: 2,
                ..Default::default()
            },
        ),
        netsim::AsSpec::stub(100, "src-a", 0, 2),
        netsim::AsSpec::stub(101, "src-b", 0, 2),
        netsim::AsSpec::stub(200, "dst-a", 4, 0),
        netsim::AsSpec::stub(201, "dst-b", 4, 0),
        netsim::AsSpec::stub(202, "dst-c", 4, 0),
        netsim::AsSpec::stub(203, "dst-d", 4, 0),
    ];
    let peerings = vec![
        netsim::Peering::new(Asn(100), Asn(65000)).at_b(0),
        netsim::Peering::new(Asn(101), Asn(65000)).at_b(3),
        netsim::Peering::new(Asn(65000), Asn(200)).at_a(1),
        netsim::Peering::new(Asn(65000), Asn(201)).at_a(2),
        netsim::Peering::new(Asn(65000), Asn(202)).at_a(4),
        netsim::Peering::new(Asn(65000), Asn(203)).at_a(5),
    ];
    let topo = netsim::Topology::build_with_peerings(&specs, &peerings);
    let mut configs = std::collections::BTreeMap::new();
    configs.insert(Asn(65000), cfg);
    netsim::Internet::new(topo, &configs)
}

/// Per-reason quarantine tallies as JSON fields, in `QuarantineReason`
/// declaration order (only reasons that fired appear).
fn quarantine_fields(report: &lpr_core::quarantine::DegradedReport) -> Vec<(String, JsonValue)> {
    lpr_core::quarantine::QuarantineReason::ALL
        .iter()
        .filter_map(|r| {
            report.quarantined.get(r).map(|&n| (r.name().to_string(), JsonValue::Int(n as i128)))
        })
        .collect()
}

fn chaos(args: &Args) -> i32 {
    let out_path: String = args.value("--out");
    let (seed, rates, drift_bound) = (CHAOS_SEED, CHAOS_RATES, DRIFT_BOUND);

    // The golden campaign every rate degrades a fresh copy of. Future
    // snapshots stay clean: the Persistence reference is held fixed so a
    // row's drift isolates the effect of faults on the measured cycle.
    let world = ark_dataset::standard_world();
    let opts = ark_dataset::CampaignOptions { snapshots: SNAPSHOTS, ..Default::default() };
    let data = ark_dataset::generate_cycle(&world, CYCLE, &opts);
    let golden = &data.snapshots[0];
    let future: Vec<_> =
        data.snapshots[1..].iter().map(|t| Pipeline::snapshot_keys_par(t, 1)).collect();
    let pipeline = Pipeline::new(FilterConfig {
        persistence_window: future.len(),
        ..Default::default()
    });

    say!(
        "chaos sweep: seed {seed}, {} golden traces, rates {:?}, drift bound {drift_bound}",
        golden.len(),
        rates
    );

    // The trace journal is observational only: the chaos report itself
    // stays byte-reproducible (the trace file carries the wall times).
    let trace = TraceOut::new(args);
    let tracer = trace.tracer();
    let run_span = tracer.span("run:bench-chaos");
    tracer.set_default_parent(run_span.context());

    // Runs the pipeline over `input` at every thread count in
    // `THREADS_CHECKED`, returning the sequential output and whether all
    // counts agreed byte-for-byte.
    let run_all = |what: &str, input: &[lpr_core::trace::Trace]| {
        let reference = pipeline.run(input, world.rib(), &future);
        let rows = sweep_threads(what, &THREADS_CHECKED[1..], &reference, |threads| {
            let opts = lpr_par::ShardOptions::new(threads);
            let ingest = IngestState::from_traces(input, world.rib(), None, opts);
            pipeline.finish_stages(ingest, &future, None, opts)
        });
        (reference, all_match(&rows))
    };

    let mut rows: Vec<JsonValue> = Vec::new();
    let mut baseline: Option<[f64; 4]> = None;
    let mut failed = false;
    for &rate in &rates {
        let rate_span = tracer.span(format!("rate:{rate}"));
        let plan = lpr_chaos::FaultPlan::uniform(seed, rate);
        let mut traces = golden.clone();
        let faults = plan.degrade_traces(&mut traces);

        // Direct path: the degraded traces go straight into the
        // pipeline, so structural faults (duplicated/reordered replies)
        // reach the quarantine layer intact. Class-share drift is
        // measured here, uncontaminated by byte-level corruption.
        let (direct, direct_matches) = run_all(&format!("rate {rate}: direct pipeline"), &traces);
        let direct_reconciled = direct.degraded.ingested() == traces.len() as u64
            && direct.degraded.kept + direct.degraded.quarantined_total()
                == traces.len() as u64;
        let counts = direct.class_counts();
        let shares = counts.fractions();
        let base = *baseline.get_or_insert(shares);
        let drift = shares
            .iter()
            .zip(base.iter())
            .map(|(s, b)| (s - b).abs())
            .fold(0.0f64, f64::max);
        let drift_ok = drift <= drift_bound;

        // Bytes path: encode, corrupt at the byte level, decode with
        // the lenient reader, then classify whatever survived. (The
        // warts→core conversion scrubs out-of-order TTLs, so this path
        // exercises skip-and-resync rather than the quarantine.)
        let bytes = warts::encode_cycle(&traces, "chaos", 1, 0, 1).expect("encode");
        let (bytes, corruption) = lpr_chaos::corrupt_warts_bytes(&bytes, seed, plan.corruption);

        let mut reader = warts::WartsStreamReader::new(bytes.as_slice()).lenient();
        let mut decoded = Vec::new();
        let mut convert_failures = 0u64;
        loop {
            match reader.next_record() {
                Ok(Some(warts::Record::Trace(t))) => match warts::trace_to_core(&t) {
                    Ok(Some(core)) => decoded.push(core),
                    Ok(None) => {}
                    Err(_) => convert_failures += 1,
                },
                Ok(Some(_)) => {}
                Ok(None) => break,
                Err(e) => {
                    eprintln!("FAIL: rate {rate}: lenient decode aborted: {e}");
                    return 1;
                }
            }
        }
        let skips = reader.skip_counts().clone();
        let resync_bytes = reader.resync_bytes();

        let (decoded_out, bytes_matches) =
            run_all(&format!("rate {rate}: bytes pipeline"), &decoded);
        let bytes_reconciled = decoded_out.degraded.ingested() == decoded.len() as u64
            && decoded_out.degraded.kept + decoded_out.degraded.quarantined_total()
                == decoded.len() as u64;

        if !direct_reconciled || !bytes_reconciled {
            eprintln!("FAIL: rate {rate}: kept + quarantined != traces ingested");
        }
        if !drift_ok {
            eprintln!(
                "FAIL: rate {rate}: class-share drift {drift:.3} exceeds bound {drift_bound}"
            );
        }
        let row_ok = direct_matches
            && bytes_matches
            && direct_reconciled
            && bytes_reconciled
            && drift_ok;
        if !row_ok {
            failed = true;
        }
        rate_span.event(
            if row_ok { lpr_obs::Level::Info } else { lpr_obs::Level::Error },
            "chaos-row",
            vec![
                ("rate".to_string(), lpr_obs::FieldValue::Str(rate.to_string())),
                ("faults".to_string(), lpr_obs::FieldValue::U64(faults.total() as u64)),
                ("kept".to_string(), lpr_obs::FieldValue::U64(direct.degraded.kept)),
                (
                    "quarantined".to_string(),
                    lpr_obs::FieldValue::U64(direct.degraded.quarantined_total()),
                ),
                (
                    "ok".to_string(),
                    lpr_obs::FieldValue::Str(if row_ok { "true" } else { "false" }.to_string()),
                ),
            ],
        );

        say!(
            "  rate {rate:<5} faults {:>5}  direct: kept {:>4} quar {:>3} iotps {:>3} \
             unclass {:.2} drift {:.3} | bytes: corrupt {:>3} skipped {:>4} decoded {:>4} \
             iotps {:>3}  {}",
            faults.total(),
            direct.degraded.kept,
            direct.degraded.quarantined_total(),
            counts.total(),
            shares[3],
            drift,
            corruption.total(),
            reader.skipped_total(),
            decoded.len(),
            decoded_out.class_counts().total(),
            if row_ok { "ok" } else { "FAIL" },
        );

        let skip_fields: Vec<(String, JsonValue)> = warts::SkipReason::ALL
            .iter()
            .filter_map(|r| {
                skips.get(r).map(|&n| (r.name().to_string(), JsonValue::Int(n as i128)))
            })
            .collect();
        let decoded_counts = decoded_out.class_counts();
        rows.push(JsonValue::Object(vec![
            ("rate".to_string(), JsonValue::Float(rate)),
            ("traces_generated".to_string(), JsonValue::Int(traces.len() as i128)),
            (
                "faults_injected".to_string(),
                JsonValue::Object(vec![
                    ("lost".to_string(), JsonValue::Int(faults.lost as i128)),
                    ("rate_limited".to_string(), JsonValue::Int(faults.rate_limited as i128)),
                    ("php_silenced".to_string(), JsonValue::Int(faults.php_silenced as i128)),
                    (
                        "truncated_exts".to_string(),
                        JsonValue::Int(faults.truncated_exts as i128),
                    ),
                    ("duplicated".to_string(), JsonValue::Int(faults.duplicated as i128)),
                    ("reordered".to_string(), JsonValue::Int(faults.reordered as i128)),
                    ("total".to_string(), JsonValue::Int(faults.total() as i128)),
                ]),
            ),
            (
                "direct".to_string(),
                JsonValue::Object(vec![
                    ("traces_kept".to_string(), JsonValue::Int(direct.degraded.kept as i128)),
                    (
                        "quarantined".to_string(),
                        JsonValue::Object(quarantine_fields(&direct.degraded)),
                    ),
                    (
                        "quarantined_total".to_string(),
                        JsonValue::Int(direct.degraded.quarantined_total() as i128),
                    ),
                    (
                        "classes".to_string(),
                        JsonValue::Object(vec![
                            ("mono_lsp".to_string(), JsonValue::Int(counts.mono_lsp as i128)),
                            ("multi_fec".to_string(), JsonValue::Int(counts.multi_fec as i128)),
                            (
                                "mono_fec_parallel".to_string(),
                                JsonValue::Int(counts.mono_fec_parallel as i128),
                            ),
                            (
                                "mono_fec_disjoint".to_string(),
                                JsonValue::Int(counts.mono_fec_disjoint as i128),
                            ),
                            (
                                "unclassified".to_string(),
                                JsonValue::Int(counts.unclassified as i128),
                            ),
                            ("total".to_string(), JsonValue::Int(counts.total() as i128)),
                        ]),
                    ),
                    (
                        "class_shares".to_string(),
                        JsonValue::Object(vec![
                            ("mono_lsp".to_string(), JsonValue::Float(shares[0])),
                            ("multi_fec".to_string(), JsonValue::Float(shares[1])),
                            ("mono_fec".to_string(), JsonValue::Float(shares[2])),
                            ("unclassified".to_string(), JsonValue::Float(shares[3])),
                        ]),
                    ),
                    ("drift".to_string(), JsonValue::Float(drift)),
                    ("matches_across_threads".to_string(), JsonValue::Bool(direct_matches)),
                    ("reconciled".to_string(), JsonValue::Bool(direct_reconciled)),
                ]),
            ),
            (
                "bytes".to_string(),
                JsonValue::Object(vec![
                    (
                        "corrupted_records".to_string(),
                        JsonValue::Object(vec![
                            (
                                "bit_flips".to_string(),
                                JsonValue::Int(corruption.bit_flips as i128),
                            ),
                            (
                                "truncated_bodies".to_string(),
                                JsonValue::Int(corruption.truncated_bodies as i128),
                            ),
                            (
                                "bad_lengths".to_string(),
                                JsonValue::Int(corruption.bad_lengths as i128),
                            ),
                            (
                                "bad_magics".to_string(),
                                JsonValue::Int(corruption.bad_magics as i128),
                            ),
                            ("total".to_string(), JsonValue::Int(corruption.total() as i128)),
                        ]),
                    ),
                    ("skipped_records".to_string(), JsonValue::Object(skip_fields)),
                    (
                        "skipped_total".to_string(),
                        JsonValue::Int(reader.skipped_total() as i128),
                    ),
                    ("resync_bytes".to_string(), JsonValue::Int(resync_bytes as i128)),
                    ("decoded_traces".to_string(), JsonValue::Int(decoded.len() as i128)),
                    (
                        "convert_failures".to_string(),
                        JsonValue::Int(convert_failures as i128),
                    ),
                    (
                        "traces_kept".to_string(),
                        JsonValue::Int(decoded_out.degraded.kept as i128),
                    ),
                    (
                        "quarantined_total".to_string(),
                        JsonValue::Int(decoded_out.degraded.quarantined_total() as i128),
                    ),
                    ("iotps".to_string(), JsonValue::Int(decoded_counts.total() as i128)),
                    ("matches_across_threads".to_string(), JsonValue::Bool(bytes_matches)),
                    ("reconciled".to_string(), JsonValue::Bool(bytes_reconciled)),
                ]),
            ),
        ]));
    }

    // Revelation leg: the prober-level faults (lost trigger replies,
    // rate-limited DPR walks) swept at the same rates over a fixed
    // netsim fixture whose tunnel-visibility mix hides part of the
    // deployment. The plan touches only revelation probes, so the base
    // traces are identical to the clean run and faults can only remove
    // evidence: the revealed count must fall monotonically towards the
    // clean baseline, the Unclassified share must not shrink, every
    // thread count must agree byte-for-byte, and the class shares stay
    // inside the same drift bound as the main sweep.
    let reveal_net = chaos_revelation_net();
    let reveal_vps: Vec<std::net::Ipv4Addr> =
        reveal_net.topo.vantage_points().iter().map(|(a, _)| *a).collect();
    let reveal_dsts = reveal_net.topo.destinations(2);
    let reveal_opts = netsim::RevelationOptions::default();
    let mut reveal_rows: Vec<JsonValue> = Vec::new();
    let mut reveal_baseline: Option<([f64; 4], u64)> = None;
    for &rate in &rates {
        // Trigger loss and DPR rate limiting hash per LER pair / per
        // flow, and the fixture only has a handful of pairs — the
        // sweep's byte-level rates are amplified so its low end still
        // knocks out real candidates.
        let plan = {
            let mut p = lpr_chaos::FaultPlan::none(seed.wrapping_mul(0x9e37_79b9));
            p.trigger_loss = (rate * 5.0).min(1.0);
            p.dpr_rate_limit = (rate * 5.0).min(1.0);
            p
        };
        let prober = netsim::Prober::new(&reveal_net, netsim::ProbeOptions::default())
            .with_faults(plan);
        let run_at = |threads: usize| {
            prober.campaign(&reveal_vps, &reveal_dsts, threads, Some(&reveal_opts))
        };
        let campaign = run_at(1);
        let what = format!("revelation rate {rate}: campaign");
        let reveal_matches =
            all_match(&sweep_threads(&what, &THREADS_CHECKED[1..], &campaign, run_at));
        let netsim::CampaignOutput { traces, budget, evidence, faults: injected } = campaign;
        let keys = Pipeline::snapshot_keys(&traces);
        let reveal_rib = reveal_net.topo.rib();
        let mut out =
            Pipeline::default().run(&traces, &reveal_rib, &[keys.clone(), keys]);
        lpr_core::reveal::apply_revelations(&mut out, &evidence, None);
        let counts = out.class_counts();
        let shares = counts.fractions();
        let (base_shares, base_revealed) =
            *reveal_baseline.get_or_insert((shares, budget.revelation_revealed));
        let drift = shares
            .iter()
            .zip(base_shares.iter())
            .map(|(s, b)| (s - b).abs())
            .fold(0.0f64, f64::max);
        let drift_ok = drift <= drift_bound;
        let monotone = budget.revelation_revealed <= base_revealed
            && shares[3] >= base_shares[3];
        if !drift_ok {
            eprintln!(
                "FAIL: revelation rate {rate}: class-share drift {drift:.3} exceeds \
                 bound {drift_bound}"
            );
        }
        if !monotone {
            eprintln!(
                "FAIL: revelation rate {rate}: faults fabricated evidence \
                 (revealed {} > clean {base_revealed}, or Unclassified share shrank)",
                budget.revelation_revealed,
            );
        }
        let row_ok = reveal_matches && drift_ok && monotone;
        if !row_ok {
            failed = true;
        }
        say!(
            "  revelation rate {rate:<5} triggers-lost {:>3} dpr-limited {:>3}  \
             candidates {:>3} revealed {:>3} probes {:>5}  unclass {:.2} drift {:.3}  {}",
            injected.trigger_replies_lost,
            injected.dpr_rate_limited,
            budget.revelation_triggers,
            budget.revelation_revealed,
            budget.revelation_probes,
            shares[3],
            drift,
            if row_ok { "ok" } else { "FAIL" },
        );
        reveal_rows.push(JsonValue::Object(vec![
            ("rate".to_string(), JsonValue::Float(rate)),
            (
                "trigger_replies_lost".to_string(),
                JsonValue::Int(injected.trigger_replies_lost as i128),
            ),
            (
                "dpr_rate_limited".to_string(),
                JsonValue::Int(injected.dpr_rate_limited as i128),
            ),
            ("candidates".to_string(), JsonValue::Int(budget.revelation_triggers as i128)),
            ("revealed".to_string(), JsonValue::Int(budget.revelation_revealed as i128)),
            ("probes".to_string(), JsonValue::Int(budget.revelation_probes as i128)),
            (
                "class_shares".to_string(),
                JsonValue::Object(vec![
                    ("mono_lsp".to_string(), JsonValue::Float(shares[0])),
                    ("multi_fec".to_string(), JsonValue::Float(shares[1])),
                    ("mono_fec".to_string(), JsonValue::Float(shares[2])),
                    ("unclassified".to_string(), JsonValue::Float(shares[3])),
                ]),
            ),
            ("drift".to_string(), JsonValue::Float(drift)),
            ("matches_across_threads".to_string(), JsonValue::Bool(reveal_matches)),
            ("monotone".to_string(), JsonValue::Bool(monotone)),
        ]));
    }

    // Deliberately no wall times anywhere in this report: identical
    // seed + rates must yield a byte-identical BENCH_chaos.json.
    let report = JsonValue::Object(vec![
        ("bench".to_string(), JsonValue::Str("chaos".to_string())),
        ("seed".to_string(), JsonValue::Int(seed as i128)),
        ("cycle".to_string(), JsonValue::Int(CYCLE as i128)),
        ("snapshots".to_string(), JsonValue::Int(SNAPSHOTS as i128)),
        ("drift_bound".to_string(), JsonValue::Float(drift_bound)),
        (
            "threads_checked".to_string(),
            JsonValue::Array(
                THREADS_CHECKED.iter().map(|&n| JsonValue::Int(n as i128)).collect(),
            ),
        ),
        ("rates".to_string(), JsonValue::Array(rates.iter().map(|&r| JsonValue::Float(r)).collect())),
        ("rows".to_string(), JsonValue::Array(rows)),
        ("revelation".to_string(), JsonValue::Array(reveal_rows)),
        ("passed".to_string(), JsonValue::Bool(!failed)),
    ])
    .render_pretty();
    if let Err(e) = std::fs::write(&out_path, &report) {
        eprintln!("{out_path}: {e}");
        return 1;
    }
    say!("wrote {out_path}");
    tracer.set_default_parent(lpr_obs::SpanContext::ROOT);
    drop(run_span);
    if !write_trace(&trace) {
        return 1;
    }
    if failed {
        eprintln!("chaos sweep failed (determinism, reconciliation, or drift)");
        return 1;
    }
    0
}

/// `lpr-bench compare`: every path at which the current report and the
/// baseline differ, on stderr; exit 1 if there is any.
fn compare_cmd(args: &Args) -> i32 {
    let current_path = args.positional().expect("compare declares a positional");
    let Some(against) = args.get::<String>("--against") else {
        return usage_error("compare wants <current.json> --against <baseline.json>");
    };
    let load = |path: &str| -> Result<JsonValue, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        lpr_obs::json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let (current, baseline) = match (load(current_path), load(&against)) {
        (Ok(c), Ok(b)) => (c, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("{e}");
            return 1;
        }
    };
    let diffs = lpr_bench::compare::diff(&current, &baseline);
    for line in &diffs {
        eprintln!("FAIL: {line}");
    }
    if diffs.is_empty() {
        say!("compare: {current_path} equals {against}");
        0
    } else {
        eprintln!("compare: {current_path} differs from {against} at {} path(s)", diffs.len());
        1
    }
}

/// The "probing" report section: the campaign's strategy plus its
/// probe-budget tallies, every one of them compared exactly.
fn probing_json(strategy: netsim::ProbingStrategy, b: &netsim::ProbeBudget) -> JsonValue {
    JsonValue::Object(vec![
        ("strategy".to_string(), JsonValue::Str(strategy.name().to_string())),
        ("pairs_total".to_string(), JsonValue::Int(b.pairs_total as i128)),
        ("pairs_probed".to_string(), JsonValue::Int(b.pairs_probed as i128)),
        ("pairs_pruned".to_string(), JsonValue::Int(b.pairs_pruned as i128)),
        ("flows_traced".to_string(), JsonValue::Int(b.flows_traced as i128)),
        ("probes_sent".to_string(), JsonValue::Int(b.probes_sent as i128)),
        ("confirmations".to_string(), JsonValue::Int(b.confirmations as i128)),
        ("probes_per_dst".to_string(), JsonValue::Float(b.probes_per_pair())),
    ])
}

/// The stdout line matching the "probing" report section.
fn say_budget(strategy: netsim::ProbingStrategy, b: &netsim::ProbeBudget) {
    say!(
        "probing [{}]: {} probes over {}/{} pairs ({} pruned), {:.2} probes/dst",
        strategy.name(),
        b.probes_sent,
        b.pairs_probed,
        b.pairs_total,
        b.pairs_pruned,
        b.probes_per_pair(),
    );
}

/// The `--max-probes-per-dst` CI tripwire: true (and a FAIL line) when
/// the campaign overspent its per-destination probe ceiling.
fn probe_ceiling_breached(b: &netsim::ProbeBudget, ceiling: Option<f64>) -> bool {
    match ceiling {
        Some(limit) if b.probes_per_pair() > limit => {
            eprintln!(
                "FAIL: campaign spent {:.2} probes per destination (ceiling {limit:.2})",
                b.probes_per_pair(),
            );
            true
        }
        _ => false,
    }
}

/// The mda and revelation reports' per-thread-count rows: the
/// sequential reference, then each count [`sweep_threads`] compared
/// with it.
fn thread_rows_json(sweep: &[(usize, bool)]) -> JsonValue {
    let row = |&(n, matches): &(usize, bool)| {
        JsonValue::Object(vec![
            ("threads".to_string(), JsonValue::Int(n as i128)),
            ("matches_sequential".to_string(), JsonValue::Bool(matches)),
        ])
    };
    JsonValue::Array(std::iter::once(&(1, true)).chain(sweep).map(row).collect())
}

/// Whether the daemon will keep one dropped file, asked of the
/// daemon's own judge ([`lpr_serve::attempt_ingest`]) on a staged copy,
/// so the soak's expectations are exact rather than probabilistic. Only
/// a clean ingest is kept: a deferred file never finishes growing and
/// is quarantined after its grace scans, and every other answer ends in
/// quarantine too. The copy and its index cache are removed.
fn daemon_keeps(
    scratch_dir: &std::path::Path,
    name: &str,
    bytes: &[u8],
    rib: &ip2as::Ip2AsTrie,
    threads: usize,
) -> bool {
    let scratch = scratch_dir.join(name);
    let kept = std::fs::write(&scratch, bytes).is_ok()
        && matches!(
            lpr_serve::attempt_ingest(&scratch, rib, threads),
            lpr_serve::Attempt::Ingested(_)
        );
    let _ = std::fs::remove_file(lpr_corpus::RecordIndex::cache_path(&scratch));
    let _ = std::fs::remove_file(&scratch);
    kept
}

/// Trickling connections `lpr-bench serve` holds open through its soak.
const SLOW_CLIENTS: usize = 4;
/// Longest a `/healthz` probe may take while they are held.
const HEALTHZ_DEADLINE: Duration = Duration::from_secs(1);

/// [`SLOW_CLIENTS`] connections that send a request head one byte every
/// 50 ms and never end it; each one the daemon cuts is reopened.
struct SlowClients {
    stop: Arc<AtomicBool>,
    thread: std::thread::JoinHandle<u16>,
}

impl SlowClients {
    fn start(addr: SocketAddr) -> SlowClients {
        let stop = Arc::new(AtomicBool::new(false));
        let stopped = stop.clone();
        let open = move || -> Option<TcpStream> {
            let mut stream = TcpStream::connect(addr).ok()?;
            stream.write_all(b"GET /snapshot HTTP/1.1\r\nX-Pad: ").ok()?;
            stream.set_nonblocking(true).ok()?;
            Some(stream)
        };
        let thread = std::thread::spawn(move || {
            let mut clients: Vec<_> = (0..SLOW_CLIENTS).map(|_| open()).collect();
            let mut worst = 0u16;
            let mut answer = [0u8; 512];
            while !stopped.load(Ordering::SeqCst) {
                for client in &mut clients {
                    let cut = match client {
                        None => true,
                        Some(stream) => match stream.read(&mut answer) {
                            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                                stream.write_all(b"a").is_err()
                            }
                            Ok(n) if n > 0 => {
                                // The daemon answered, a 408 at its
                                // deadline.
                                let status = std::str::from_utf8(&answer[..n])
                                    .ok()
                                    .and_then(|text| text.split_whitespace().nth(1)?.parse().ok())
                                    .unwrap_or(599);
                                worst = worst.max(status);
                                true
                            }
                            _ => true,
                        },
                    };
                    if cut {
                        *client = open();
                    }
                }
                std::thread::sleep(Duration::from_millis(50));
            }
            worst
        });
        SlowClients { stop, thread }
    }

    /// Closes the connections; returns the worst status any was sent
    /// (0 when the soak ended before the daemon's request deadline).
    fn finish(self) -> u16 {
        self.stop.store(true, Ordering::SeqCst);
        self.thread.join().unwrap_or(599)
    }
}

/// `lpr-bench serve` — the daemon soak: N cycles of clean +
/// chaos-corrupted spool drops against a live `lpr serve`, with the
/// acceptance gate from the robustness contract (clean-subset identity,
/// complete quarantine, exact reconciliation, never a 5xx), while
/// [`SlowClients`] trickle beside it and every `/healthz` probe answers
/// within [`HEALTHZ_DEADLINE`].
fn serve_soak(args: &Args) -> i32 {
    let (cycles, chaos_rate, seed, threads) =
        (SOAK_CYCLES, SOAK_CHAOS_RATE, SOAK_SEED, SOAK_THREADS);
    let out_path: String = args.value("--out");

    let world = ark_dataset::standard_world();
    let rib = world.rib();

    let root = std::env::temp_dir().join(format!("lpr-bench-serve-{}", std::process::id()));
    let spool = root.join("spool");
    let staging = root.join("staging");
    for d in [&spool, &staging] {
        if let Err(e) = std::fs::create_dir_all(d) {
            eprintln!("FAIL: {}: {e}", d.display());
            return 1;
        }
    }
    let rib_path = root.join("rib.txt");
    if let Err(e) = std::fs::write(&rib_path, ip2as::to_rib_string(rib)) {
        eprintln!("FAIL: {}: {e}", rib_path.display());
        return 1;
    }

    let mut cfg = lpr_serve::ServeConfig::new(spool.clone(), rib_path);
    cfg.threads = threads;
    cfg.tick = std::time::Duration::from_millis(20);
    // Hold every kept cycle: the soak checks identity over the full
    // clean subset (eviction has its own coverage in lpr-serve).
    cfg.window = 2 * cycles + 2;
    cfg.growing_grace = 3;
    cfg.retries = 1;
    cfg.backoff_base = std::time::Duration::from_millis(10);
    let handle = match lpr_serve::Server::start(cfg) {
        Ok(handle) => handle,
        Err(e) => {
            eprintln!("FAIL: daemon did not start: {e}");
            return 1;
        }
    };
    let addr = handle.addr();
    say!("lpr-bench serve: daemon on http://{addr}, spool {}", spool.display());

    // Every request the soak makes goes through here; a single 5xx
    // anywhere fails the run.
    let mut worst_status = 0u16;
    let request = |path: &str, worst: &mut u16| -> Option<String> {
        match lpr_serve::http::get(addr, path) {
            Ok((status, body)) => {
                *worst = (*worst).max(status);
                Some(body)
            }
            Err(e) => {
                eprintln!("FAIL: GET {path}: {e}");
                *worst = (*worst).max(599);
                None
            }
        }
    };

    let slow_clients = SlowClients::start(addr);
    let mut healthz_within_deadline = true;
    let deadline = std::time::Duration::from_secs(60);
    let mut expected_kept: Vec<(u64, std::path::PathBuf)> = Vec::new();
    let mut expected_quarantined: Vec<String> = Vec::new();
    let mut next_cycle = 0u64;
    let mut dropped = 0usize;
    let mut wait_failed = false;

    'soak: for i in 0..cycles {
        // One fresh campaign cycle per iteration: the window genuinely
        // accumulates distinct measurement content.
        let opts = ark_dataset::CampaignOptions {
            snapshots: 1,
            seed: seed.wrapping_add(i as u64),
            ..Default::default()
        };
        let data = ark_dataset::generate_cycle(&world, 40 + i, &opts);
        let clean = warts::encode_cycle(&data.snapshots[0], "soak", 1, 0, 1).expect("encode");
        let (corrupted, _counts) =
            lpr_chaos::corrupt_warts_bytes(&clean, seed.wrapping_add(i as u64), chaos_rate);

        for (tag, bytes) in [("clean", &clean), ("chaos", &corrupted)] {
            let name = format!("c{i:03}-{tag}.warts");
            if daemon_keeps(&staging, &name, bytes, rib, threads) {
                expected_kept.push((next_cycle, spool.join(&name)));
                next_cycle += 1;
            } else {
                expected_quarantined.push(name.clone());
            }
            // Stage-then-rename: the daemon never sees a half-written
            // drop.
            let stage = staging.join(&name);
            if std::fs::write(&stage, bytes).is_err()
                || std::fs::rename(&stage, spool.join(&name)).is_err()
            {
                eprintln!("FAIL: could not drop {name} into the spool");
                wait_failed = true;
                break 'soak;
            }
            dropped += 1;

            // Wait for the drop to settle (ingested or quarantined).
            let started = std::time::Instant::now();
            loop {
                let Some(body) = request("/snapshot", &mut worst_status) else {
                    wait_failed = true;
                    break 'soak;
                };
                let processed = lpr_obs::json::parse(&body)
                    .ok()
                    .and_then(|doc| doc.get("files")?.get("processed")?.as_u64())
                    .unwrap_or(0);
                if processed >= dropped as u64 {
                    break;
                }
                if started.elapsed() > deadline {
                    eprintln!("FAIL: {name} did not settle within {deadline:?}");
                    wait_failed = true;
                    break 'soak;
                }
                std::thread::sleep(std::time::Duration::from_millis(20));
            }
            // Liveness probes between drops (the no-5xx clause covers
            // every route, not just /snapshot).
            let probe = std::time::Instant::now();
            request("/healthz", &mut worst_status);
            healthz_within_deadline &= probe.elapsed() <= HEALTHZ_DEADLINE;
            request("/readyz", &mut worst_status);
        }
    }

    let final_snapshot = request("/snapshot", &mut worst_status);
    request("/report/per-as", &mut worst_status);
    let metrics_body = request("/metrics", &mut worst_status);
    // An unknown path must 404, never 5xx.
    request("/definitely-not-a-route", &mut worst_status);
    let slow_worst = slow_clients.finish();
    handle.stop();

    let doc = final_snapshot.as_deref().and_then(|b| lpr_obs::json::parse(b).ok());
    let files_count = |key: &str| -> u64 {
        doc.as_ref()
            .and_then(|d| d.get("files")?.get(key)?.as_u64())
            .unwrap_or(u64::MAX)
    };
    let kept_count = files_count("kept");
    let quarantined_count = files_count("quarantined");
    let pending_count = files_count("pending");

    // (c) exact reconciliation: kept + quarantined == dropped, nothing
    // pending, and both sides match the locally-predicted split.
    let reconciled = !wait_failed
        && kept_count == expected_kept.len() as u64
        && quarantined_count == expected_quarantined.len() as u64
        && kept_count + quarantined_count == dropped as u64
        && pending_count == 0;

    // (b) every corrupted drop is in quarantine, on disk and in the
    // snapshot, each with a structured reason.
    let snapshot_quarantine: Vec<(String, String)> = doc
        .as_ref()
        .and_then(|d| d.get("quarantined_files")?.as_array())
        .unwrap_or_default()
        .iter()
        .filter_map(|row| {
            Some((
                row.get("file")?.as_str()?.to_string(),
                row.get("reason")?.as_str()?.to_string(),
            ))
        })
        .collect();
    let mut quarantine_complete = !wait_failed;
    for name in &expected_quarantined {
        let on_disk = spool.join("quarantine").join(name).is_file();
        let reason_file = spool.join("quarantine").join(format!("{name}.reason.json"));
        let reason_ok = std::fs::read_to_string(&reason_file)
            .ok()
            .and_then(|text| lpr_obs::json::parse(&text).ok())
            .and_then(|r| Some(!r.get("reason")?.as_str()?.is_empty()))
            .unwrap_or(false);
        let in_snapshot =
            snapshot_quarantine.iter().any(|(f, r)| f == name && !r.is_empty());
        if !(on_disk && reason_ok && in_snapshot) {
            eprintln!(
                "FAIL: {name} not fully quarantined \
                 (moved {on_disk}, reason file {reason_ok}, snapshot row {in_snapshot})"
            );
            quarantine_complete = false;
        }
    }

    // (a) clean-subset identity: the served pipeline section must be
    // byte-identical to the batch pipeline over the kept files.
    let serve_pipeline =
        doc.as_ref().and_then(|d| d.get("pipeline")).map(|p| p.render()).unwrap_or_default();
    let batch_pipeline = if wait_failed {
        String::new()
    } else {
        lpr_serve::batch_snapshot_pipeline(&expected_kept, rib, threads).unwrap_or_else(|e| {
            eprintln!("FAIL: batch reopen of a kept spool file: {e}");
            String::new()
        })
    };
    let identical = !wait_failed && !serve_pipeline.is_empty() && serve_pipeline == batch_pipeline;
    if !identical && !wait_failed {
        eprintln!("FAIL: served snapshot diverges from the batch pipeline over the clean subset");
    }

    // (d) never a 5xx, the slow clients' answers included, and
    // liveness never held up behind them.
    let no_5xx = worst_status < 500 && slow_worst < 500;
    if !no_5xx {
        eprintln!("FAIL: observed HTTP status {}", worst_status.max(slow_worst));
    }
    if !healthz_within_deadline {
        eprintln!("FAIL: a /healthz probe took longer than {HEALTHZ_DEADLINE:?}");
    }
    let metrics_sane = metrics_body
        .as_deref()
        .is_some_and(|m| m.contains("serve_reconcile_ticks") && m.contains("serve_files_ingested"));

    let fingerprint_of = |rendered: &str| -> String {
        lpr_obs::json::parse(rendered)
            .ok()
            .and_then(|p| Some(p.get("fingerprint")?.as_str()?.to_string()))
            .unwrap_or_default()
    };
    let passed = identical
        && quarantine_complete
        && reconciled
        && no_5xx
        && healthz_within_deadline
        && metrics_sane;
    let report = JsonValue::Object(vec![
        ("bench".to_string(), JsonValue::Str("serve".to_string())),
        ("cycles".to_string(), JsonValue::Int(cycles as i128)),
        ("chaos_rate".to_string(), JsonValue::Float(chaos_rate)),
        ("seed".to_string(), JsonValue::Int(seed as i128)),
        ("threads".to_string(), JsonValue::Int(threads as i128)),
        (
            "files".to_string(),
            JsonValue::Object(vec![
                ("dropped".to_string(), JsonValue::Int(dropped as i128)),
                ("kept".to_string(), JsonValue::Int(expected_kept.len() as i128)),
                (
                    "quarantined".to_string(),
                    JsonValue::Int(expected_quarantined.len() as i128),
                ),
            ]),
        ),
        (
            "serve_fingerprint".to_string(),
            JsonValue::Str(fingerprint_of(&serve_pipeline)),
        ),
        (
            "batch_fingerprint".to_string(),
            JsonValue::Str(fingerprint_of(&batch_pipeline)),
        ),
        ("clean_subset_identical".to_string(), JsonValue::Bool(identical)),
        ("quarantine_complete".to_string(), JsonValue::Bool(quarantine_complete)),
        ("reconciled".to_string(), JsonValue::Bool(reconciled)),
        ("worst_status".to_string(), JsonValue::Int(worst_status as i128)),
        ("no_5xx".to_string(), JsonValue::Bool(no_5xx)),
        ("slow_clients".to_string(), JsonValue::Int(SLOW_CLIENTS as i128)),
        ("healthz_within_deadline".to_string(), JsonValue::Bool(healthz_within_deadline)),
        ("metrics_exposed".to_string(), JsonValue::Bool(metrics_sane)),
        ("passed".to_string(), JsonValue::Bool(passed)),
    ]);
    if let Err(e) = std::fs::write(&out_path, report.render_pretty()) {
        eprintln!("FAIL: {out_path}: {e}");
        return 1;
    }
    say!(
        "soak: {dropped} drops -> {} kept, {} quarantined | identity {} | reconcile {} | \
         worst HTTP {worst_status} | wrote {out_path}",
        expected_kept.len(),
        expected_quarantined.len(),
        if identical { "ok" } else { "DIVERGED" },
        if reconciled { "exact" } else { "BROKEN" },
    );
    let _ = std::fs::remove_dir_all(&root);
    if passed {
        0
    } else {
        1
    }
}

/// `lpr-bench corrupt` — seeded byte corruption of a warts file, the
/// smoke-test helper for the daemon's quarantine path.
fn corrupt_cmd(args: &Args) -> i32 {
    let input = args.positional().expect("corrupt declares a positional");
    let Some(output) = args.get::<String>("--out") else {
        return usage_error("corrupt wants <in.warts> --out <out.warts>");
    };
    let rate: f64 = args.value("--rate");
    let seed: u64 = args.value("--seed");
    let bytes = match std::fs::read(input) {
        Ok(bytes) => bytes,
        Err(e) => {
            eprintln!("{input}: {e}");
            return 1;
        }
    };
    let (corrupted, counts) = lpr_chaos::corrupt_warts_bytes(&bytes, seed, rate);
    if let Err(e) = std::fs::write(&output, &corrupted) {
        eprintln!("{output}: {e}");
        return 1;
    }
    say!(
        "{input} -> {output}: {} bit flips, {} truncated bodies, {} bad lengths, \
         {} bad magics (rate {rate}, seed {seed})",
        counts.bit_flips,
        counts.truncated_bodies,
        counts.bad_lengths,
        counts.bad_magics,
    );
    0
}
