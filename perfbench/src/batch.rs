//! The two batch workloads: `corpus-ooc` and `campaign-reveal`.
//!
//! Each iteration turns the run's inputs into a rendered per-AS report.
//! Untraced iterations call the system's own entry points
//! (`Pipeline::run`, `ingest_cycle` + `finish_stages_windowed`,
//! `generate_cycle_with_revelation` + `analyze_cycle_revealed`); traced
//! iterations compose the same result layer by layer from the public
//! functions each entry point is built of, with a span around every
//! call. Both must render the same report.

use crate::inputs::{self, CorpusInputs, CYCLE, WINDOW};
use crate::layers::{back_half, front_half, CountingMapper, Layers, Rendered, SpanTimes};
use crate::stats::{median, quantile};
use crate::sys::{self, counting_alloc};
use crate::{Config, InputSizes, Outcome, SetupSamples, PER_LAYER};
use ark_dataset::World;
use ip2as::Ip2AsTrie;
use lpr_core::filter::{FilterConfig, FilterStage};
use lpr_core::pipeline::{PersistenceWindow, Pipeline, PipelineOutput};
use lpr_core::trace::Trace;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Report renders timed after each iteration (after one untimed
/// warm-up render): the `snapshot_get_ms` samples of the batch
/// workloads. Few per iteration, so the samples spread over the run.
const RENDER_SAMPLES: usize = 8;
/// Untimed warm-up before the measured window, s...
const WARM_UP_S: f64 = 1.0;
/// ...and at least this many iterations.
const WARM_UP_MIN: usize = 5;
/// Ingest threads of the out-of-core path.
const OOC_THREADS: usize = 2;
/// Probing threads of the campaign. Its traces are byte-identical at any
/// thread count; on one thread a shared host's phases of slower memory
/// swing the iteration wall by up to half, on two they average out.
const CAMPAIGN_THREADS: usize = 2;

/// What one iteration produced.
pub struct Run {
    /// Wall time from inputs to the rendered report, s.
    pub wall_s: f64,
    /// Fingerprint of the rendered report.
    pub fnv: u64,
    /// Traces the report analysed.
    pub traces: u64,
    /// The pipeline output (re-rendered for `snapshot_get_ms`).
    pub output: PipelineOutput,
    /// Per-layer counts (traced iterations only).
    pub counts: BTreeMap<&'static str, f64>,
    /// Output checks made by the iteration itself.
    pub checks: Vec<(String, bool)>,
}

impl Run {
    fn new(started: Instant, output: PipelineOutput, traces: u64) -> Run {
        let fnv = Rendered::of(&output).fnv();
        Run {
            wall_s: started.elapsed().as_secs_f64(),
            fnv,
            traces,
            output,
            counts: BTreeMap::new(),
            checks: Vec::new(),
        }
    }
}

/// Runs `f` and returns its result with its duration, s.
fn timed<T>(f: impl FnOnce() -> Result<T, String>) -> Result<(T, f64), String> {
    let t = Instant::now();
    let value = f()?;
    Ok((value, t.elapsed().as_secs_f64()))
}

fn io_err(what: &Path) -> impl Fn(std::io::Error) -> String + '_ {
    move |e| format!("{}: {e}", what.display())
}

/// The analysis configuration every path runs with (persistence window
/// j = 2, as in the paper).
fn filter_config() -> FilterConfig {
    FilterConfig {
        persistence_window: WINDOW,
        ..FilterConfig::default()
    }
}

fn parse_rib(path: &Path) -> Result<Ip2AsTrie, String> {
    let text = std::fs::read_to_string(path).map_err(io_err(path))?;
    ip2as::parse_rib(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn decode_into(path: &Path, traces: &mut Vec<Trace>) -> Result<u64, String> {
    inputs::decode_file(path, traces).map_err(|e| e.to_string())
}

fn open_corpus(paths: &[PathBuf]) -> Result<lpr_corpus::Corpus, String> {
    let corpus = lpr_corpus::Corpus::open_with(paths, true, None)
        .map_err(|e| format!("corpus open: {e}"))?;
    if let Some(skipped) = corpus.skipped_files.first() {
        return Err(format!(
            "{}: skipped ({})",
            skipped.path.display(),
            skipped.reason
        ));
    }
    Ok(corpus)
}

fn ingest(
    corpus: &lpr_corpus::Corpus,
    mapper: &(dyn lpr_core::filter::AsMapper + Sync),
) -> Result<lpr_core::IngestState, String> {
    let (state, report) = lpr_corpus::ingest_cycle(
        corpus,
        mapper,
        lpr_corpus::IngestOptions::new(OOC_THREADS),
        None,
    );
    if report.skipped_total() > 0 || report.convert_failures > 0 || report.resync_bytes > 0 {
        return Err(format!("corpus decode damage: {report:?}"));
    }
    Ok(state)
}

fn spill(
    corpus: &lpr_corpus::Corpus,
    dir: &Path,
    i: usize,
) -> Result<lpr_core::SpilledKeys, String> {
    lpr_corpus::spill_snapshot_keys(corpus, dir, &format!("next{i}"), OOC_THREADS, None)
        .map_err(|e| format!("key spill: {e}"))
}

/// Survivor counts per filter and the classified IOTPs of an output.
fn output_counts(out: &PipelineOutput, counts: &mut BTreeMap<&'static str, f64>) {
    let after = |s| out.report.remaining.get(&s).copied().unwrap_or(0) as f64;
    counts.insert("filter.incomplete.kept", after(FilterStage::IncompleteLsp));
    counts.insert("filter.intra_as.kept", after(FilterStage::IntraAs));
    counts.insert("filter.target_as.kept", after(FilterStage::TargetAs));
    counts.insert(
        "filter.transit_diversity.kept",
        after(FilterStage::TransitDiversity),
    );
    counts.insert("filter.persistence.kept", after(FilterStage::Persistence));
    counts.insert("classify.iotps", out.iotps.len() as f64);
}

/// Copies every per-layer `<span>_s` metric out of the journal: the
/// median per-iteration self time of spans named `<span>`, or, for
/// spans that only run outside iterations (set-up and replays), their
/// median duration.
pub fn record_span_layers(out: &mut Outcome, times: &SpanTimes) {
    for (name, unit) in PER_LAYER {
        let Some(span) = name.strip_suffix("_s") else {
            continue;
        };
        if unit != "s" || name == "unaccounted_s" {
            continue;
        }
        let value = if times
            .iterations
            .iter()
            .any(|it| it.layers.contains_key(span))
        {
            times.layer_s(span)
        } else {
            times.outside_s(span)
        };
        out.metrics.insert(name, value);
    }
    out.metrics.insert("unaccounted_s", times.unaccounted_s());
    out.check("trace journal kept every span", times.dropped == 0);
}

/// Times the set-up (`setup` returns the duration of one repetition)
/// and runs iterations for the measured window, repeating the set-up
/// between them. Records the workload's metrics: end-to-end ones
/// untraced; per-layer ones traced, with untraced iterations interleaved
/// for `trace_overhead_ratio`. Every iteration must render the same
/// report. Returns its fingerprint.
fn measure(
    cfg: &Config,
    out: &mut Outcome,
    layers: &Layers,
    setup: &mut dyn FnMut() -> Result<f64, String>,
    plain: &mut dyn FnMut(bool) -> Result<Run, String>,
    traced: &mut dyn FnMut(&Layers) -> Result<Run, String>,
) -> Result<u64, String> {
    let mut fnv = None;
    let mut accept = |out: &mut Outcome, run: &Run, what: &str| {
        out.attempted += 1;
        if *fnv.get_or_insert(run.fnv) != run.fnv {
            eprintln!("perfbench: {what} iteration rendered a different report");
            out.failed += 1;
        }
        for (name, ok) in &run.checks {
            out.check(name.clone(), *ok);
        }
    };
    let mut walls = Vec::new();
    let mut gets = Vec::new();
    let mut last_traced = None;
    let mut traces = 0;
    let mut setups = SetupSamples::new(setup()?);
    // Untimed warm-up iterations: page cache, allocator and lazy statics
    // settle before the measured window, which every iteration then sees
    // alike. The first also makes the iteration's own checks; each later
    // one starts from a trimmed heap and gives one `peak_rss_mb` sample,
    // which does not depend on what earlier work left in the allocator
    // (the set-up repetitions between measured iterations would).
    let mut rss = Vec::new();
    let mut rss_reset = true;
    let warming = Instant::now();
    let mut warm_ups = 0;
    while warm_ups < WARM_UP_MIN || warming.elapsed().as_secs_f64() < WARM_UP_S {
        let first = warm_ups == 0;
        if !first {
            sys::heap::trim();
            rss_reset &= sys::reset_peak_rss();
        }
        let warm_up = plain(first)?;
        if !first {
            rss.push(sys::peak_rss_mb());
        }
        accept(out, &warm_up, "warm-up");
        warm_ups += 1;
    }
    let started = Instant::now();
    while walls.is_empty() || started.elapsed().as_secs_f64() < cfg.seconds {
        let run = plain(false)?;
        accept(out, &run, "untraced");
        walls.push(run.wall_s);
        traces = run.traces;
        if cfg.trace {
            let run = traced(layers)?;
            accept(out, &run, "traced");
            last_traced = Some(run);
        } else {
            black_box(Rendered::of(&run.output));
            for _ in 0..RENDER_SAMPLES {
                let t = Instant::now();
                black_box(Rendered::of(&run.output));
                gets.push(t.elapsed().as_secs_f64() * 1e3);
            }
        }
        setups.slot(started.elapsed().as_secs_f64(), setup)?;
    }
    out.setup(setups.samples());
    if cfg.trace {
        let times = layers.times();
        record_span_layers(out, &times);
        out.metrics
            .insert("trace_overhead_ratio", times.wall_s() / median(&walls));
        out.timing(
            "traced_iteration_s",
            "s",
            &times
                .iterations
                .iter()
                .map(|i| i.wall_s)
                .collect::<Vec<_>>(),
        );
        out.timing("untraced_iteration_s", "s", &walls);
        if let Some(run) = last_traced {
            out.metrics.extend(run.counts);
        }
    } else {
        if !rss_reset {
            eprintln!("perfbench: peak RSS could not be reset; reporting the process peak");
        }
        let walls_ms: Vec<f64> = walls.iter().map(|w| w * 1e3).collect();
        let total_s: f64 = walls.iter().sum();
        let m = &mut out.metrics;
        m.insert("peak_rss_mb", median(&rss));
        m.insert(
            "traces_per_s",
            (traces * walls.len() as u64) as f64 / total_s,
        );
        m.insert("drop_visible_ms.p50", quantile(&walls_ms, 0.5));
        m.insert("drop_visible_ms.p90", quantile(&walls_ms, 0.9));
        m.insert("snapshot_get_ms.p50", quantile(&gets, 0.5));
        m.insert("snapshot_get_ms.p90", quantile(&gets, 0.9));
        out.timing("peak_rss_mb", "MiB", &rss);
        out.timing("drop_visible_ms", "ms", &walls_ms);
        out.timing("snapshot_get_ms", "ms", &gets);
    }
    fnv.ok_or_else(|| "no iteration ran".to_string())
}

/// Writes the run's corpus and records its sizes.
fn prepare_corpus(cfg: &Config, out: &mut Outcome) -> Result<CorpusInputs, String> {
    let dir = cfg.work.join("corpus");
    let world = ark_dataset::scaled_world(cfg.scale);
    let inputs = inputs::write_corpus(&dir, &world, cfg.scale, cfg.seed).map_err(io_err(&dir))?;
    out.inputs = InputSizes {
        traces: inputs.traces,
        files: inputs.all_files().count() as u64,
        bytes: inputs.bytes,
    };
    Ok(inputs)
}

// ----- in-memory path (cross-check) -----------------------------------

/// The in-memory path over the same files: `WartsStreamReader` decode,
/// `Pipeline::snapshot_keys` over the follow-ups, `Pipeline::run`, the
/// report. `corpus-ooc` must render the same report.
fn mem_plain(inputs: &CorpusInputs, rib: &Ip2AsTrie) -> Result<Run, String> {
    let started = Instant::now();
    let mut traces = Vec::new();
    for path in &inputs.primary {
        decode_into(path, &mut traces)?;
    }
    let mut future = Vec::new();
    for path in &inputs.next {
        let mut next = Vec::new();
        decode_into(path, &mut next)?;
        future.push(Pipeline::snapshot_keys(&next));
    }
    let output = Pipeline::new(filter_config()).run(&traces, rib, &future);
    Ok(Run::new(started, output, traces.len() as u64))
}

/// Replays logged addresses through `Ip2AsTrie::lookup` outside the
/// iteration: the IP2AS share of `filter.attribute_s`.
fn replay_lookups(layers: &Layers, rib: &Ip2AsTrie, addrs: &[std::net::Ipv4Addr]) {
    let _span = layers.span("ip2as.lookup");
    for &addr in addrs {
        black_box(rib.lookup(black_box(addr)));
    }
}

// ----- corpus-ooc --------------------------------------------------------

/// `corpus-ooc`: open the indexed corpus (warm `.lpridx`), ingest it on
/// two threads, spill the follow-up snapshots' keys, finish with the
/// spilled window, render the report.
pub fn corpus_ooc(cfg: &Config) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let inputs = prepare_corpus(cfg, &mut out)?;
    let layers = Layers::new(cfg.trace);
    let files: Vec<PathBuf> = inputs.all_files().cloned().collect();
    let rib = parse_rib(&inputs.rib)?;
    // Each repetition starts cold and leaves the indexes warm.
    let mut setup = || {
        inputs::remove_indexes(&files);
        timed(|| {
            black_box(parse_rib(&inputs.rib)?);
            let _span = layers.span("corpus.index_build");
            for path in &files {
                open_corpus(std::slice::from_ref(path))?;
            }
            Ok(())
        })
        .map(|(_, s)| s)
    };

    let spill_dir = cfg.work.join("spill");
    let fnv = measure(
        cfg,
        &mut out,
        &layers,
        &mut setup,
        &mut |_| ooc_plain(&inputs, &rib, &spill_dir),
        &mut |layers| ooc_traced(layers, &inputs, &rib, &spill_dir),
    )?;
    let other = mem_plain(&inputs, &rib)?;
    out.check(
        "corpus-ooc report equals the in-memory report",
        other.fnv == fnv,
    );
    Ok(out)
}

fn ooc_plain(inputs: &CorpusInputs, rib: &Ip2AsTrie, spill_dir: &Path) -> Result<Run, String> {
    let started = Instant::now();
    let corpus = open_corpus(&inputs.primary)?;
    let state = ingest(&corpus, rib)?;
    let mut spilled = Vec::new();
    for (i, path) in inputs.next.iter().enumerate() {
        spilled.push(spill(
            &open_corpus(std::slice::from_ref(path))?,
            spill_dir,
            i,
        )?);
    }
    let output = Pipeline::new(filter_config())
        .finish_stages_windowed(
            state,
            PersistenceWindow::Spilled(&spilled),
            None,
            lpr_par::ShardOptions::new(OOC_THREADS),
        )
        .map_err(|e| format!("spilled persistence: {e}"))?;
    let mut run = Run::new(started, output, corpus.total_traces());
    for s in &spilled {
        s.delete().map_err(|e| format!("spill cleanup: {e}"))?;
    }
    run.wall_s = started.elapsed().as_secs_f64();
    Ok(run)
}

fn ooc_traced(
    layers: &Layers,
    inputs: &CorpusInputs,
    rib: &Ip2AsTrie,
    spill_dir: &Path,
) -> Result<Run, String> {
    let mapper = CountingMapper::new(rib, false);
    let started = Instant::now();
    let iteration = layers.iteration();
    let span = layers.span("corpus.open");
    let corpus = open_corpus(&inputs.primary)?;
    drop(span);
    let span = layers.span("corpus.ingest");
    let state = ingest(&corpus, &mapper)?;
    drop(span);
    let mut spilled = Vec::new();
    for (i, path) in inputs.next.iter().enumerate() {
        let span = layers.span("corpus.open");
        let next = open_corpus(std::slice::from_ref(path))?;
        drop(span);
        let _span = layers.span("corpus.spill");
        spilled.push(spill(&next, spill_dir, i)?);
    }
    let output = back_half(
        layers,
        state,
        PersistenceWindow::Spilled(&spilled),
        &filter_config(),
    )
    .map_err(|e| format!("spilled persistence: {e}"))?;
    let span = layers.span("report.render");
    let mut run = Run::new(started, output, corpus.total_traces());
    drop(span);
    let span = layers.span("corpus.spill");
    for s in &spilled {
        s.delete().map_err(|e| format!("spill cleanup: {e}"))?;
    }
    drop(span);
    drop(iteration);
    run.wall_s = started.elapsed().as_secs_f64();
    run.counts.insert("ip2as.lookups", mapper.lookups() as f64);
    output_counts(&run.output, &mut run.counts);
    run.counts
        .insert("warts.allocs_per_record", replay_decode(layers, inputs)?);
    Ok(run)
}

/// Replays the decode of every input file through `WartsStreamReader`
/// outside the iteration, whose ingest decodes inside `corpus.ingest`:
/// the `warts.decode` span covers the whole cycle. Returns the
/// allocations per decoded record.
fn replay_decode(layers: &Layers, inputs: &CorpusInputs) -> Result<f64, String> {
    let (mut allocs, mut records) = (0u64, 0u64);
    let _span = layers.span("warts.decode");
    for path in inputs.all_files() {
        let mut traces = Vec::new();
        let before = counting_alloc::allocations();
        records += decode_into(path, &mut traces)?;
        allocs += counting_alloc::allocations() - before;
    }
    Ok(allocs as f64 / records.max(1) as f64)
}

// ----- campaign-reveal ---------------------------------------------------

/// The visibility mix of the revelation campaign.
fn reveal_mix() -> netsim::VisibilityMix {
    netsim::VisibilityMix {
        explicit: 0.4,
        implicit: 0.2,
        invisible: 0.2,
        opaque: 0.2,
    }
}

fn campaign_options(cfg: &Config) -> ark_dataset::CampaignOptions {
    ark_dataset::CampaignOptions {
        probing: netsim::ProbingStrategy::MdaLite,
        visibility: Some(reveal_mix()),
        threads: CAMPAIGN_THREADS,
        ..inputs::campaign_options(cfg.scale, cfg.seed, 1 + WINDOW)
    }
}

/// `campaign-reveal`: a fresh-process SPF cache, then the MDA-Lite
/// campaign with revelation, the revealed analysis and the report.
pub fn campaign_reveal(cfg: &Config) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let layers = Layers::new(cfg.trace);
    let world = ark_dataset::scaled_world(cfg.scale);
    let opts = campaign_options(cfg);

    let mut traces = 0;
    measure(
        cfg,
        &mut out,
        &layers,
        &mut || {
            timed(|| {
                let _span = layers.span("netsim.world");
                Ok(ark_dataset::scaled_world(cfg.scale))
            })
            .map(|(_, s)| s)
        },
        &mut |first| {
            let run = campaign_plain(&world, &opts, first)?;
            traces = run.traces;
            Ok(run)
        },
        &mut |layers| campaign_traced(layers, &world, &opts),
    )?;
    out.inputs.traces = traces;
    Ok(out)
}

fn campaign_plain(
    world: &World,
    opts: &ark_dataset::CampaignOptions,
    check: bool,
) -> Result<Run, String> {
    netsim::igp::spf_cache_reset();
    let started = Instant::now();
    let (data, evidence) = ark_dataset::generate_cycle_with_revelation(
        world,
        CYCLE,
        opts,
        &netsim::RevelationOptions::default(),
    );
    let analysis = ark_dataset::analyze_cycle_revealed(world, &data, WINDOW, &evidence);
    let mut run = Run::new(started, analysis.output, data.snapshots[0].len() as u64);
    if check {
        let revealed = evidence
            .iter()
            .filter(|e| e.status == lpr_core::reveal::RevelationStatus::Revealed)
            .count();
        let plain = ark_dataset::analyze_cycle(world, &data, WINDOW);
        run.checks
            .push(("campaign reveals at least one tunnel".into(), revealed > 0));
        run.checks.push((
            "revealed IOTPs are at least the plain analysis's".into(),
            run.output.iotps.len() >= plain.output.iotps.len(),
        ));
    }
    Ok(run)
}

fn campaign_traced(
    layers: &Layers,
    world: &World,
    opts: &ark_dataset::CampaignOptions,
) -> Result<Run, String> {
    netsim::igp::spf_cache_reset();
    let started = Instant::now();
    let iteration = layers.iteration();
    let span = layers.span("netsim.snapshot");
    let primary_opts = ark_dataset::CampaignOptions {
        snapshots: 1,
        ..opts.clone()
    };
    let (first, evidence) = ark_dataset::generate_cycle_with_revelation(
        world,
        CYCLE,
        &primary_opts,
        &netsim::RevelationOptions::default(),
    );
    drop(span);
    let mut snapshots = first.snapshots;
    let mut budget = first.budget;
    for snap in 1..=WINDOW {
        let _span = layers.span("netsim.snapshot");
        let (traces, b) = ark_dataset::generate_snapshot_with_budget(world, CYCLE, snap, opts);
        budget.merge(&b);
        snapshots.push(traces);
    }
    let (spf_hits, spf_misses) = netsim::igp::spf_cache_stats();

    let mut future = Vec::new();
    for snapshot in &snapshots[1..] {
        let _span = layers.span("filter.snapshot_keys");
        future.push(Pipeline::snapshot_keys(snapshot));
    }
    let mapper = CountingMapper::new(world.rib(), true);
    let state = front_half(layers, &snapshots[0], &mapper);
    let mut output = back_half(
        layers,
        state,
        PersistenceWindow::Mem(&future),
        &filter_config(),
    )
    .map_err(|e| e.to_string())?;
    let span = layers.span("reveal.apply");
    let summary = lpr_core::reveal::apply_revelations(&mut output, &evidence, None);
    drop(span);
    let span = layers.span("report.build");
    black_box(lpr_core::report::CycleReport::build(
        &snapshots[0],
        &output,
        world.rib(),
    ));
    drop(span);
    let span = layers.span("report.render");
    let mut run = Run::new(started, output, snapshots[0].len() as u64);
    drop(span);
    drop(iteration);
    run.wall_s = started.elapsed().as_secs_f64();

    let all_traces: usize = snapshots.iter().map(Vec::len).sum();
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    let c = &mut run.counts;
    c.insert("ip2as.lookups", mapper.lookups() as f64);
    c.insert("reveal.upgraded", summary.total_upgraded() as f64);
    c.insert("netsim.probes_sent", budget.probes_sent as f64);
    c.insert(
        "netsim.probes_per_trace",
        ratio(budget.probes_sent, all_traces as u64),
    );
    c.insert(
        "netsim.pairs_pruned_ratio",
        ratio(budget.pairs_pruned, budget.pairs_total),
    );
    c.insert(
        "netsim.revealed_per_probe",
        ratio(budget.revelation_revealed, budget.revelation_probes),
    );
    c.insert(
        "netsim.spf_cache.hit_ratio",
        ratio(spf_hits, spf_hits + spf_misses),
    );
    output_counts(&run.output, &mut run.counts);

    // Replays outside the iteration: trigger detection (done inside the
    // campaign), the IP2AS lookups, and SPF per AS of the base topology.
    let span = layers.span("reveal.detect");
    for trace in &snapshots[0] {
        black_box(lpr_core::reveal::detect_triggers(trace));
    }
    drop(span);
    replay_lookups(layers, world.rib(), &mapper.into_log());
    let span = layers.span("netsim.spf");
    for id in 0..world.topo.ases.len() {
        black_box(netsim::igp::IgpState::compute(
            &world.topo,
            netsim::AsId(id as u16),
        ));
    }
    drop(span);
    Ok(run)
}
