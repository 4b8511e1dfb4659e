//! Indexed, sharded, bounded-memory ingest.
//!
//! [`ingest_cycle`] is the out-of-core ingest producer. The other two
//! are [`lpr_core::IngestState::from_traces`] (an in-memory trace
//! slice) and a hand-fed [`CycleAccumulator`] (streaming); all three
//! feed the one finish, [`lpr_core::Pipeline::finish_stages_windowed`].
//!
//! It cuts every file's record index into contiguous [`RangeTask`]s
//! and maps them over [`lpr_par::map_shards`]. Each task walks its
//! trace records straight out of the file mapping (against a preload of
//! the file's full address dictionary) in one pass each, into a single
//! reused [`warts::TraceBuf`], feeds them **one at a time** through a
//! [`CycleAccumulator`], and hands back an owned [`IngestState`];
//! merging the states in task order reproduces the sequential ingest
//! exactly. The decode matches [`warts::decode_record_body`] +
//! [`warts::trace_to_core`] record for record but builds no
//! `TraceRecord`, and once the buffer is warm it allocates nothing per
//! record. Peak memory is the surviving LSPs plus one trace per task —
//! never the corpus, never the trace list.

use crate::corpus::{Corpus, DecodeReport};
use lpr_core::filter::{lsp_keys_of_tunnels, AsMapper};
use lpr_core::lsp::LspKey;
use lpr_core::pipeline::IngestState;
use lpr_core::spill::{KeySpiller, SpilledKeys};
use lpr_core::stream::CycleAccumulator;
use lpr_core::trace::Trace;
use lpr_core::tunnel::RawTunnel;
use std::collections::BTreeSet;
use std::io;
use std::path::Path;
use warts::{Conversion, RecordType};

/// How the ingest shards its work.
#[derive(Clone, Copy, Debug)]
pub struct IngestOptions {
    /// Worker threads (0 = available parallelism), as in
    /// [`lpr_par::ShardOptions`].
    pub threads: usize,
    /// Indexed records per [`RangeTask`]: small enough that large
    /// files split across workers, large enough to amortize the
    /// per-task dictionary preload.
    pub records_per_task: usize,
}

impl IngestOptions {
    /// Options for `threads` workers with the default task geometry.
    pub fn new(threads: usize) -> Self {
        IngestOptions { threads, records_per_task: 4096 }
    }
}

/// One contiguous slice of one file's record index.
#[derive(Clone, Copy, Debug)]
pub struct RangeTask {
    /// Index into [`Corpus::files`].
    pub file: usize,
    /// First record (inclusive) in that file's index.
    pub start: usize,
    /// Last record (exclusive).
    pub end: usize,
}

/// Cuts the corpus into decode tasks, in cycle order.
pub fn range_tasks(corpus: &Corpus, records_per_task: usize) -> Vec<RangeTask> {
    let per_task = records_per_task.max(1);
    let mut tasks = Vec::new();
    for (file, cf) in corpus.files.iter().enumerate() {
        let n = cf.index.records.len();
        let mut start = 0;
        while start < n {
            let end = (start + per_task).min(n);
            tasks.push(RangeTask { file, start, end });
            start = end;
        }
    }
    tasks
}

fn shard_opts(threads: usize) -> lpr_par::ShardOptions {
    // Tasks are coarse units already; let every task be schedulable on
    // its own rather than grouping 64 of them per shard.
    lpr_par::ShardOptions { threads, shards_per_thread: 4, min_shard_len: 1 }
}

/// Decodes the trace records of one task and feeds each to `push`.
/// Returns `(convert_failures, decode_errors)`.
fn decode_task(
    corpus: &Corpus,
    task: &RangeTask,
    mut push: impl FnMut(&Trace),
) -> (u64, u64) {
    let file = &corpus.files[task.file];
    // Preload the file's complete dictionary: every reference id a
    // record can carry resolves below the preload, so range-local
    // decode equals sequential decode (embed-form occurrences append
    // duplicates past it, which nothing references).
    let mut addrs = warts::AddrTableReader::from_table(file.index.addr_table.clone());
    // One scratch trace per task: each record is decoded into it in
    // place, so a task allocates per record only while it warms up.
    let mut buf = warts::TraceBuf::default();
    let mut convert_failures = 0u64;
    let mut decode_errors = 0u64;
    for rec in task.start..task.end {
        if file.index.records[rec].record_type != RecordType::Trace as u16 {
            continue;
        }
        match buf.decode(file.body(rec), &mut addrs) {
            Ok(Conversion::Ipv4) => push(buf.trace()),
            Ok(Conversion::NotIpv4) => {} // outside the paper's dataset
            Ok(Conversion::Failed(_)) => convert_failures += 1,
            // The index only records successful decodes, so this is
            // unreachable in practice; counted, not fatal.
            Err(_) => decode_errors += 1,
        }
    }
    (convert_failures, decode_errors)
}

/// Runs the pipeline's ingest half over an indexed corpus: sharded
/// zero-copy decode, per-trace validation/extraction/filtering, shard-
/// order merge. The result feeds
/// [`lpr_core::Pipeline::finish_stages_windowed`] and is byte-identical
/// to the in-memory ingest over the same traces at any thread count.
///
/// The work runs inside a `stage:Ingest` span of `recorder`'s tracer,
/// with one span per shard. A panicking task panics the caller.
pub fn ingest_cycle(
    corpus: &Corpus,
    mapper: &(dyn AsMapper + Sync),
    opts: IngestOptions,
    recorder: Option<&lpr_obs::Recorder>,
) -> (IngestState, DecodeReport) {
    let disabled = lpr_obs::Tracer::disabled();
    let tracer = recorder.map_or(&disabled, |r| r.tracer());
    let ingest_span = tracer.span("stage:Ingest");
    let tasks = range_tasks(corpus, opts.records_per_task);
    let run = lpr_par::map_shards_traced(
        &tasks,
        shard_opts(opts.threads),
        lpr_par::ShardTrace::new(tracer, ingest_span.context()),
        |_, shard| {
            let mut state = IngestState::default();
            let mut convert_failures = 0u64;
            let mut decode_errors = 0u64;
            let mut mpls_traces = 0u64;
            for task in shard {
                let mut acc = CycleAccumulator::new(mapper);
                let (cf, de) = decode_task(corpus, task, |trace| {
                    if trace.has_mpls() {
                        mpls_traces += 1;
                    }
                    acc.push_trace(trace);
                });
                convert_failures += cf;
                decode_errors += de;
                state.merge(acc.into_state());
            }
            (state, convert_failures, decode_errors, mpls_traces)
        },
    )
    .expect_ok();

    let mut ingest = IngestState::default();
    let mut report = corpus.decode_report();
    let mut decode_errors = 0u64;
    for (state, cf, de, mpls) in run.outputs {
        ingest.merge(state);
        report.convert_failures += cf;
        decode_errors += de;
        report.mpls_traces += mpls;
    }
    drop(ingest_span);
    if let Some(rec) = recorder {
        rec.counter(lpr_obs::names::INGEST_SPILLED_TRACES).add(ingest.traces_in);
        if decode_errors > 0 {
            rec.counter(lpr_obs::names::CORPUS_SHARD_DECODE_ERRORS).add(decode_errors);
        }
    }
    (ingest, report)
}

/// The per-task key extraction shared by both snapshot-key paths: the
/// task's keys and its failed conversions.
fn task_keys(corpus: &Corpus, task: &RangeTask) -> (BTreeSet<LspKey>, u64) {
    let mut tunnels: Vec<RawTunnel> = Vec::new();
    let (convert_failures, _) = decode_task(corpus, task, |trace| {
        if lpr_core::quarantine::validate_trace(trace).is_ok() {
            lpr_core::extract_tunnels_into(trace, &mut tunnels);
        }
    });
    (lsp_keys_of_tunnels(&tunnels), convert_failures)
}

/// The keys of `tasks`, one set per shard in shard order, each with
/// the conversions that failed in it.
fn shard_keys(
    corpus: &Corpus,
    tasks: &[RangeTask],
    threads: usize,
) -> Vec<(BTreeSet<LspKey>, u64)> {
    lpr_par::map_shards(tasks, shard_opts(threads), |_, shard| {
        let mut keys = BTreeSet::new();
        let mut convert_failures = 0u64;
        for task in shard {
            let (task_keys, failed) = task_keys(corpus, task);
            keys.extend(task_keys);
            convert_failures += failed;
        }
        (keys, convert_failures)
    })
    .outputs
}

/// The corpus's LSP key set (what [`lpr_core::Pipeline::snapshot_keys`]
/// computes from an in-memory trace list), sharded. Set unions are
/// order-insensitive, so the result matches the sequential one.
pub fn snapshot_keys(corpus: &Corpus, threads: usize) -> BTreeSet<LspKey> {
    snapshot_keys_reported(corpus, threads).0
}

/// [`snapshot_keys`] with the snapshot's [`DecodeReport`]: the index
/// tallies plus the conversions that failed while extracting the keys.
pub fn snapshot_keys_reported(
    corpus: &Corpus,
    threads: usize,
) -> (BTreeSet<LspKey>, DecodeReport) {
    let tasks = range_tasks(corpus, IngestOptions::new(threads).records_per_task);
    let mut keys = BTreeSet::new();
    let mut convert_failures = 0u64;
    for (shard, failed) in shard_keys(corpus, &tasks, threads) {
        keys.extend(shard);
        convert_failures += failed;
    }
    (keys, DecodeReport { convert_failures, ..corpus.decode_report() })
}

/// Out-of-core [`snapshot_keys`]: the keys go to a sorted spill file
/// under `dir` instead of an in-memory set. Tasks are processed in
/// bounded batches (decode parallel, spill sequential), so peak memory
/// is one batch's keys plus the spiller's run buffer — the future
/// snapshots of a persistence window never coexist in RAM.
pub fn spill_snapshot_keys(
    corpus: &Corpus,
    dir: &Path,
    label: &str,
    threads: usize,
    recorder: Option<&lpr_obs::Recorder>,
) -> io::Result<SpilledKeys> {
    spill_snapshot_keys_reported(corpus, dir, label, threads, recorder).map(|(keys, _)| keys)
}

/// [`spill_snapshot_keys`] with the snapshot's [`DecodeReport`], as
/// [`snapshot_keys_reported`] gives it.
pub fn spill_snapshot_keys_reported(
    corpus: &Corpus,
    dir: &Path,
    label: &str,
    threads: usize,
    recorder: Option<&lpr_obs::Recorder>,
) -> io::Result<(SpilledKeys, DecodeReport)> {
    let tasks = range_tasks(corpus, IngestOptions::new(threads).records_per_task);
    let mut spiller = KeySpiller::new(dir, label)?;
    let mut convert_failures = 0u64;
    for batch in tasks.chunks(64) {
        // Each shard's set is freed once spilled, as the run buffer grows.
        for (keys, failed) in shard_keys(corpus, batch, threads) {
            convert_failures += failed;
            for key in &keys {
                spiller.push(key)?;
            }
        }
    }
    let spilled = spiller.finish()?;
    if let Some(rec) = recorder {
        rec.counter(lpr_obs::names::INGEST_SPILLED_KEYS).add(spilled.count);
        rec.counter(lpr_obs::names::INGEST_SPILL_BYTES).add(spilled.bytes);
    }
    Ok((spilled, DecodeReport { convert_failures, ..corpus.decode_report() }))
}

/// Sequentially loads every trace of the corpus, in cycle order — the
/// trace list `lpr tunnels` prints from, and a reference the sharded
/// ingest is checked against. Returns the traces and the
/// convert-failure count.
pub fn load_traces(corpus: &Corpus) -> (Vec<Trace>, u64) {
    let mut traces = Vec::new();
    let mut convert_failures = 0u64;
    for file in 0..corpus.files.len() {
        let n = corpus.files[file].index.records.len();
        let task = RangeTask { file, start: 0, end: n };
        let (cf, _) = decode_task(corpus, &task, |trace| traces.push(trace.clone()));
        convert_failures += cf;
    }
    (traces, convert_failures)
}
