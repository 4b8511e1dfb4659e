//! Allocation bounds on the decode and ingest paths, measured on one
//! scale-1 snapshot (standard world, cycle 40: 3,654 traces). Each
//! figure in brackets is the same measurement when every label stack
//! is a heap allocation and the index check builds every record; the
//! bounds sit between the two.
//!
//! - Every trace record decoded into one reused `TraceBuf`, the way
//!   `ingest_cycle` decodes, costs fewer than 0.05 allocations after
//!   the first. The stream reader plus `trace_to_core`, which build a
//!   `TraceRecord` and then a `Trace` per record, cost 16.6 (22.6);
//!   that path is not bounded here.
//! - The cold index build checks each record without building it:
//!   0.006 allocations per record (12.9).
//! - A warm `ingest_cycle` allocates 3.7 times per trace (14.0): one
//!   `lsrs` vector per extracted tunnel and one hop vector per kept
//!   LSP, and nothing per label stack.
//! - A `KeySetBuilder` over the first follow-up snapshot allocates 1.8
//!   times per tunnel (6.2): one `lsrs` vector per tunnel and one key
//!   per distinct key.
//! - The Persistence probe allocates nothing per LSP.
//!
//! The tests install a counting global allocator, so they live in a
//! test binary of their own, and take turns so that none counts
//! another's allocations.

use ark_dataset::campaign::{generate_cycle, generate_snapshot, CampaignOptions};
use lpr_core::filter::{persistent_flags, FilterConfig, KeySetBuilder};
use lpr_core::pipeline::{IngestState, Pipeline};
use lpr_core::quarantine::validate_trace;
use lpr_core::trace::Trace;
use lpr_core::tunnel::extract_tunnels;
use lpr_corpus::{ingest_cycle, Corpus, IngestOptions, RecordIndex};
use std::alloc::{GlobalAlloc, Layout, System};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};
use warts::{AddrTableReader, Conversion, RecordType, TraceBuf};

static ALLOCS: AtomicU64 = AtomicU64::new(0);

/// Warm `ingest_cycle` allocations per trace: 3.7 here, 14.0 with a
/// heap allocation per label stack.
const INGEST_BOUND: f64 = 5.0;

/// `KeySetBuilder` allocations per tunnel: 1.8 here, 6.2 with a heap
/// allocation per label stack.
const KEYS_BOUND: f64 = 2.5;

static TURN: Mutex<()> = Mutex::new(());

/// Runs the calling test alone among this binary's tests.
fn take_turn() -> MutexGuard<'static, ()> {
    TURN.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Forwards to [`System`], counting allocations and reallocations.
struct CountingAlloc;

// SAFETY: defers every call verbatim to `System`; the only addition is
// a relaxed counter increment, which allocates nothing.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// The test snapshot written as a one-file corpus under a directory of
/// its own (removed by the caller), with its traces.
fn scale1_corpus(name: &str) -> (PathBuf, Corpus, Vec<Trace>) {
    let world = ark_dataset::standard_world();
    let traces = generate_snapshot(&world, 40, 0, &CampaignOptions::default());
    let dir = std::env::temp_dir().join(format!("lpr-decode-allocs-{name}-{}", std::process::id()));
    let paths = lpr_corpus::write_corpus_files(&dir, "cycle", &traces, 1).unwrap();
    let corpus = Corpus::open(&paths).unwrap();
    (dir, corpus, traces)
}

#[test]
fn reused_trace_decode_allocates_nothing_per_record() {
    let _turn = take_turn();
    let (dir, corpus, traces) = scale1_corpus("buf");
    let file = &corpus.files[0];
    let bodies: Vec<&[u8]> = file
        .index
        .records
        .iter()
        .filter(|span| span.record_type == RecordType::Trace as u16)
        .map(|span| {
            let start = span.offset as usize + 8;
            &file.bytes()[start..start + span.body_len as usize]
        })
        .collect();
    assert_eq!(bodies.len(), traces.len());

    let mut addrs = AddrTableReader::from_table(file.index.addr_table.clone());
    let mut buf = TraceBuf::default();
    assert_eq!(buf.decode(bodies[0], &mut addrs), Ok(Conversion::Ipv4));
    let before = ALLOCS.load(Ordering::Relaxed);
    let mut labelled = 0usize;
    for (body, expect) in bodies.iter().zip(&traces).skip(1) {
        assert_eq!(buf.decode(body, &mut addrs), Ok(Conversion::Ipv4));
        let trace = buf.trace();
        labelled += trace.hops.iter().filter(|h| h.is_labelled()).count();
        // Compared by reference: a clone would allocate.
        assert!(trace == expect, "decoded {trace:?}, expected {expect:?}");
    }
    let allocs = ALLOCS.load(Ordering::Relaxed) - before;
    std::fs::remove_dir_all(&dir).ok();

    let records = bodies.len() - 1;
    assert!(
        labelled > records / 10,
        "the corpus must exercise label reuse: {labelled}"
    );
    let per_record = allocs as f64 / records as f64;
    assert!(
        per_record < 0.05,
        "{allocs} allocations over {records} records ({per_record:.3} per record)"
    );
}

#[test]
fn index_build_allocates_nothing_per_record() {
    let _turn = take_turn();
    let (dir, corpus, traces) = scale1_corpus("index");
    let bytes = corpus.files[0].bytes();
    let index = RecordIndex::build(bytes);
    let allocs = allocs_of(|| RecordIndex::build(bytes));
    std::fs::remove_dir_all(&dir).ok();

    assert_eq!(index.traces as usize, traces.len());
    let records = index.records.len();
    let per_record = allocs as f64 / records as f64;
    assert!(
        per_record < 0.05,
        "{allocs} allocations over {records} records ({per_record:.3} per record)"
    );
}

#[test]
fn warm_ingest_allocates_nothing_per_label_stack() {
    let _turn = take_turn();
    let (dir, corpus, traces) = scale1_corpus("ingest");
    let world = ark_dataset::standard_world();
    let opts = IngestOptions::new(1);
    let (warm, _) = ingest_cycle(&corpus, world.rib(), opts, None);
    let allocs = allocs_of(|| ingest_cycle(&corpus, world.rib(), opts, None));
    std::fs::remove_dir_all(&dir).ok();

    assert_eq!(warm.traces_in as usize, traces.len());
    let per_trace = allocs as f64 / traces.len() as f64;
    assert!(
        per_trace < INGEST_BOUND,
        "{allocs} allocations over {} traces ({per_trace:.2} per trace)",
        traces.len()
    );
}

#[test]
fn key_set_allocates_nothing_per_label_stack() {
    let _turn = take_turn();
    let world = ark_dataset::standard_world();
    let traces = generate_snapshot(&world, 40, 1, &CampaignOptions::default());
    let tunnels: usize = traces
        .iter()
        .filter(|t| validate_trace(t).is_ok())
        .map(|t| extract_tunnels(t).len())
        .sum();
    let build = || {
        let mut keys = KeySetBuilder::default();
        traces.iter().for_each(|t| keys.push_trace(t));
        keys.finish()
    };
    let keys = build().len();
    let allocs = allocs_of(build);

    let per_tunnel = allocs as f64 / tunnels as f64;
    assert!(
        per_tunnel < KEYS_BOUND,
        "{allocs} allocations over {tunnels} tunnels ({per_tunnel:.2} per tunnel, {keys} keys)"
    );
}

/// Allocations made by one call of `f`.
fn allocs_of<T>(f: impl FnOnce() -> T) -> u64 {
    let before = ALLOCS.load(Ordering::Relaxed);
    std::hint::black_box(f());
    ALLOCS.load(Ordering::Relaxed) - before
}

#[test]
fn persistence_probe_allocates_nothing_per_lsp() {
    let _turn = take_turn();
    let world = ark_dataset::standard_world();
    let data = generate_cycle(&world, 40, &CampaignOptions::default());
    let one = lpr_par::ShardOptions::new(1);
    let lsps = IngestState::from_traces(&data.snapshots[0], world.rib(), None, one).lsps;
    let window: Vec<_> = data.snapshots[1..3].iter().map(|s| Pipeline::snapshot_keys(s)).collect();
    let config = FilterConfig::default();
    assert!(lsps.len() > 1000, "a scale-1 cycle keeps thousands of LSPs: {}", lsps.len());

    let warm = persistent_flags(&lsps, &window, &config);
    assert!(warm.iter().any(|&f| f) && warm.iter().any(|&f| !f), "the window decides");
    // The flag vector plus the key buffer's growth to the longest key:
    // a constant, whatever the LSP count.
    let all = allocs_of(|| persistent_flags(&lsps, &window, &config));
    let half = allocs_of(|| persistent_flags(&lsps[..lsps.len() / 2], &window, &config));
    let n = lsps.len();
    assert!(all <= 16 && half <= 16, "{all} allocations over {n} LSPs, {half} over half");
}
