//! Out-of-core vs in-memory equivalence: the headline guarantee of the
//! corpus layer. A simulated multi-file cycle is written, mapped,
//! indexed and ingested out-of-core at several thread counts; every
//! run must be **equal** (PipelineOutput derives PartialEq over IOTPs,
//! report and dynamic ASes) to the in-memory pipeline over the
//! sequentially loaded traces — including when the persistence window
//! is spilled to disk.

use lpr_core::filter::FilterConfig;
use lpr_core::lsp::Asn;
use lpr_core::pipeline::PersistenceWindow;
use lpr_core::prelude::*;
use lpr_core::trace::{Hop, Trace};
use lpr_corpus::{
    ingest_cycle, snapshot_keys_reported, spill_snapshot_keys, Corpus, IngestOptions,
};
use std::net::Ipv4Addr;
use std::path::{Path, PathBuf};

fn ip(a: u8, o: u8) -> Ipv4Addr {
    Ipv4Addr::new(10, a, 0, o)
}

fn mapper(addr: Ipv4Addr) -> Option<Asn> {
    let o = addr.octets();
    match o[0] {
        10 => Some(Asn(o[1] as u32)),
        192 => Some(Asn(100)),
        198 => Some(Asn(101)),
        _ => None,
    }
}

fn mpls_trace(asn: u8, dst: Ipv4Addr, labels: [u32; 2], lsrs: [u8; 2]) -> Trace {
    let mut t = Trace::new(Ipv4Addr::new(203, 0, 113, 5), dst);
    t.push_hop(Hop::responsive(1, ip(asn, 1)));
    t.push_hop(Hop::labelled(2, ip(asn, lsrs[0]), &[Lse::transit(labels[0], 254)]));
    t.push_hop(Hop::labelled(3, ip(asn, lsrs[1]), &[Lse::transit(labels[1], 253)]));
    t.push_hop(Hop::responsive(4, ip(asn, 9)));
    t.push_hop(Hop::responsive(5, dst));
    t.reached = true;
    t
}

/// Several ASes, diverse and non-diverse IOTPs, enough traces for
/// multiple record-range tasks and shards.
fn workload() -> Vec<Trace> {
    let mut traces = Vec::new();
    for asn in 1..=6u8 {
        for i in 0..40u32 {
            let dst = if i % 2 == 0 {
                Ipv4Addr::new(192, 0, 2, 10 + (i % 100) as u8)
            } else {
                Ipv4Addr::new(198, 51, 100, 10 + (i % 100) as u8)
            };
            traces.push(mpls_trace(asn, dst, [100 + i % 3, 200 + i % 3], [2, 3]));
        }
    }
    traces
}

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("lpr-ooc-{}-{}", name, std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn open_workload_corpus(dir: &Path, n_files: usize) -> (Corpus, Vec<Trace>) {
    let traces = workload();
    let paths = lpr_corpus::write_corpus_files(dir, "cycle", &traces, n_files).unwrap();
    assert_eq!(paths.len(), n_files);
    (Corpus::open(&paths).unwrap(), traces)
}

#[test]
fn out_of_core_output_is_identical_at_every_thread_count() {
    let dir = tmp("equiv");
    let (corpus, traces) = open_workload_corpus(&dir, 3);
    assert_eq!(corpus.total_traces(), traces.len() as u64);

    // Reference: sequentially load the corpus back and run in memory.
    let (loaded, convert_failures) = lpr_corpus::ingest::load_traces(&corpus);
    assert_eq!(convert_failures, 0);
    assert_eq!(loaded.len(), traces.len());
    let keys = vec![Pipeline::snapshot_keys(&loaded)];
    let pipeline = Pipeline::default();
    let reference = pipeline.run(&loaded, &mapper, &keys);
    assert!(!reference.iotps.is_empty(), "workload must classify something");

    // Small tasks force intra-file sharding on top of the 3-file split.
    for threads in [1usize, 2, 4, 8] {
        let opts = IngestOptions { threads, records_per_task: 37 };
        let (ingest, report) = ingest_cycle(&corpus, &mapper, opts, None);
        assert_eq!(report.traces, traces.len() as u64, "threads={threads}");
        assert_eq!(report.skipped_total(), 0);
        let out = pipeline
            .finish_stages_windowed(
                ingest,
                PersistenceWindow::Mem(&keys),
                None,
                lpr_par::ShardOptions::new(threads),
            )
            .unwrap();
        assert_eq!(out, reference, "threads={threads}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn corpus_snapshot_keys_match_in_memory_and_spilled_window_agrees() {
    let dir = tmp("spill");
    let (corpus, _) = open_workload_corpus(&dir, 2);
    let (loaded, _) = lpr_corpus::ingest::load_traces(&corpus);

    // Key sets agree between the corpus path and the in-memory path.
    let mem_keys = Pipeline::snapshot_keys(&loaded);
    for threads in [1usize, 4] {
        assert_eq!(snapshot_keys_reported(&corpus, threads).0, mem_keys, "threads={threads}");
    }

    // A spilled persistence window produces the same PipelineOutput as
    // the in-memory window over the same keys.
    let spill_dir = dir.join("spill");
    let spilled =
        vec![spill_snapshot_keys(&corpus, &spill_dir, "snap0", 2, None).unwrap()];
    assert_eq!(spilled[0].count, mem_keys.len() as u64);

    let pipeline = Pipeline::new(FilterConfig { persistence_window: 1, ..Default::default() });
    let window = vec![mem_keys];
    let (ingest_a, _) = ingest_cycle(&corpus, &mapper, IngestOptions::new(2), None);
    let (ingest_b, _) = ingest_cycle(&corpus, &mapper, IngestOptions::new(2), None);
    let mem_out = pipeline
        .finish_stages_windowed(
            ingest_a,
            PersistenceWindow::Mem(&window),
            None,
            lpr_par::ShardOptions::new(2),
        )
        .unwrap();
    let spilled_out = pipeline
        .finish_stages_windowed(
            ingest_b,
            PersistenceWindow::Spilled(&spilled),
            None,
            lpr_par::ShardOptions::new(2),
        )
        .unwrap();
    assert_eq!(spilled_out, mem_out);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn corpus_counters_stay_inside_the_names_vocabulary() {
    let dir = tmp("names");
    let (corpus, traces) = {
        let traces = workload();
        let paths = lpr_corpus::write_corpus_files(&dir, "cycle", &traces, 2).unwrap();
        let rec = lpr_obs::Recorder::new("corpus-open");
        // Open twice: first builds indexes, second hits the caches.
        drop(Corpus::open_with(&paths, true, Some(&rec)).unwrap());
        let corpus = Corpus::open_with(&paths, true, Some(&rec)).unwrap();
        let _ = spill_snapshot_keys(&corpus, &dir.join("spill"), "snap0", 2, Some(&rec));
        let (_, _) = ingest_cycle(&corpus, &mapper, IngestOptions::new(2), Some(&rec));
        let telemetry = rec.finish();
        for name in telemetry.counters.keys() {
            assert!(
                lpr_obs::names::is_known_counter(name),
                "counter {name} is not in lpr_obs::names::ALL_COUNTERS"
            );
        }
        assert_eq!(telemetry.counters["corpus.files_mapped"], 4, "2 files × 2 opens");
        assert_eq!(telemetry.counters["corpus.index_builds"], 2);
        assert_eq!(telemetry.counters["corpus.index_hits"], 2);
        assert!(telemetry.counters["ingest.spilled_keys"] > 0);
        assert!(telemetry.counters["ingest.spill_bytes"] > 0);
        (corpus, traces)
    };
    assert_eq!(corpus.total_traces(), traces.len() as u64);
    std::fs::remove_dir_all(&dir).ok();
}
