//! The one-pass trace decoder allocates nothing per record once warm:
//! every trace record of a generated corpus file, decoded into one
//! reused `TraceBuf` the way `ingest_cycle` does, costs fewer than 0.05
//! allocations after the first; the stream reader plus `trace_to_core`
//! costs about 19. The test installs a counting global allocator, so it
//! lives in a test binary of its own.

use ark_dataset::campaign::{generate_snapshot, CampaignOptions};
use lpr_corpus::Corpus;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use warts::{AddrTableReader, Conversion, RecordType, TraceBuf};

static ALLOCS: AtomicU64 = AtomicU64::new(0);

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

#[test]
fn reused_trace_decode_allocates_nothing_per_record() {
    let world = ark_dataset::standard_world();
    let traces = generate_snapshot(&world, 40, 0, &CampaignOptions::default());
    let dir = std::env::temp_dir().join(format!("lpr-decode-allocs-{}", std::process::id()));
    let paths = lpr_corpus::write_corpus_files(&dir, "cycle", &traces, 1).unwrap();
    let corpus = Corpus::open(&paths).unwrap();
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
