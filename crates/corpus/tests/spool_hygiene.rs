//! Spool hygiene regressions: `Corpus::open` must set aside (not fail
//! on) the file shapes a live spool directory exhibits — zero-length
//! files scamper just created and files whose last record is still
//! being written — and a kill mid-index-write must never leave a
//! corrupt `.lpridx` that poisons the next run.

use lpr_corpus::{Corpus, FileSkipReason, RecordIndex};
use std::net::Ipv4Addr;
use std::path::PathBuf;
use warts::SkipReason;

fn ip(a: u8, o: u8) -> Ipv4Addr {
    Ipv4Addr::new(10, a, 0, o)
}

fn workload() -> Vec<lpr_core::trace::Trace> {
    use lpr_core::prelude::*;
    use lpr_core::trace::Hop;
    let mut traces = Vec::new();
    for i in 0..20u32 {
        let dst = Ipv4Addr::new(192, 0, 2, 10 + i as u8);
        let mut t = Trace::new(Ipv4Addr::new(203, 0, 113, 5), dst);
        t.push_hop(Hop::responsive(1, ip(1, 1)));
        t.push_hop(Hop::labelled(2, ip(1, 2), &[Lse::transit(100 + i % 3, 254)]));
        t.push_hop(Hop::labelled(3, ip(1, 3), &[Lse::transit(200 + i % 3, 253)]));
        t.push_hop(Hop::responsive(4, ip(1, 9)));
        t.push_hop(Hop::responsive(5, dst));
        t.reached = true;
        traces.push(t);
    }
    traces
}

fn tmp(name: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("lpr-spool-{}-{}", name, std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn empty_and_still_growing_files_are_skipped_not_fatal() {
    let dir = tmp("skip");
    let paths = lpr_corpus::write_corpus_files(&dir, "cycle", &workload(), 1).unwrap();
    let valid = paths[0].clone();
    let valid_bytes = std::fs::read(&valid).unwrap();

    // An empty spool file: created, nothing written yet.
    let empty = dir.join("empty.warts");
    std::fs::write(&empty, b"").unwrap();

    // A file whose final record's declared body overruns EOF — the
    // shape of a warts file mid-append.
    let growing = dir.join("growing.warts");
    let mut half = valid_bytes.clone();
    half.extend_from_slice(&warts::WARTS_MAGIC.to_be_bytes());
    half.extend_from_slice(&6u16.to_be_bytes()); // record type
    half.extend_from_slice(&512u32.to_be_bytes()); // declared body length...
    half.extend_from_slice(&[0u8; 16]); // ...but only 16 bytes present
    std::fs::write(&growing, &half).unwrap();

    // A file cut off inside the 8-byte record header itself.
    let header = dir.join("header.warts");
    let mut stub = valid_bytes.clone();
    stub.extend_from_slice(&warts::WARTS_MAGIC.to_be_bytes()[..2]);
    stub.push(0);
    std::fs::write(&header, &stub).unwrap();

    let rec = lpr_obs::Recorder::new("spool-open");
    let corpus = Corpus::open_with(
        &[empty.clone(), growing.clone(), header.clone(), valid.clone()],
        true,
        Some(&rec),
    )
    .unwrap();

    // The valid file opens normally; the rest are set aside with
    // structured reasons, in input order.
    assert_eq!(corpus.files.len(), 1);
    assert_eq!(corpus.files[0].path, valid);
    assert_eq!(corpus.total_traces(), 20);
    assert_eq!(corpus.skipped_files.len(), 3);
    assert_eq!(corpus.skipped_files[0].path, empty);
    assert_eq!(corpus.skipped_files[0].reason, FileSkipReason::Empty);
    assert_eq!(corpus.skipped_files[1].path, growing);
    assert_eq!(
        corpus.skipped_files[1].reason,
        FileSkipReason::StillGrowing(SkipReason::TruncatedBody)
    );
    assert_eq!(corpus.skipped_files[2].path, header);
    assert_eq!(
        corpus.skipped_files[2].reason,
        FileSkipReason::StillGrowing(SkipReason::TruncatedHeader)
    );
    assert_eq!(corpus.skipped_files[1].reason.to_string(), "still_growing(truncated_body)");

    let telemetry = rec.finish();
    assert_eq!(telemetry.counters["corpus.files_skipped"], 3);
    assert_eq!(telemetry.counters["corpus.files_mapped"], 1, "skipped files don't count");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn mid_file_corruption_is_not_mistaken_for_growth() {
    // Garbage in the middle of the file is corruption (per-record skip
    // tallies), not growth: the file must still open.
    let dir = tmp("midfile");
    let paths = lpr_corpus::write_corpus_files(&dir, "cycle", &workload(), 1).unwrap();
    let mut bytes = std::fs::read(&paths[0]).unwrap();
    let mid = bytes.len() / 2;
    for b in &mut bytes[mid..mid + 9] {
        *b ^= 0xA5;
    }
    let corrupt = dir.join("corrupt.warts");
    std::fs::write(&corrupt, &bytes).unwrap();

    let corpus = Corpus::open(std::slice::from_ref(&corrupt)).unwrap();
    assert!(corpus.skipped_files.is_empty(), "mid-file damage is not still-growing");
    assert_eq!(corpus.files.len(), 1);
    assert!(corpus.decode_report().skipped_total() > 0, "damage shows up as record skips");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn killed_mid_write_index_is_rebuilt_silently_and_leftovers_swept() {
    let dir = tmp("killed");
    let paths = lpr_corpus::write_corpus_files(&dir, "cycle", &workload(), 1).unwrap();
    let file = paths[0].clone();

    // First open builds and caches the index.
    drop(Corpus::open(std::slice::from_ref(&file)).unwrap());
    let cache = RecordIndex::cache_path(&file);
    assert!(cache.exists());

    // Simulate a kill mid-write: truncate the cache to half and leave
    // an orphaned temp file from the interrupted atomic-rename write.
    let cached = std::fs::read(&cache).unwrap();
    std::fs::write(&cache, &cached[..cached.len() / 2]).unwrap();
    let orphan = RecordIndex::tmp_cache_path(&file);
    std::fs::write(&orphan, b"partial index write").unwrap();

    // The startup sweep clears the orphan but leaves the (named-valid)
    // cache file for the staleness check to judge.
    let rec = lpr_obs::Recorder::new("sweep");
    let swept = lpr_corpus::sweep_stale(&dir, Some(&rec)).unwrap();
    assert_eq!(swept, vec![orphan.clone()]);
    assert!(!orphan.exists());

    // Reopening rebuilds the index silently — no error, full decode.
    let corpus = Corpus::open_with(std::slice::from_ref(&file), true, Some(&rec)).unwrap();
    assert_eq!(corpus.total_traces(), 20);
    let telemetry = rec.finish();
    assert_eq!(telemetry.counters["corpus.index_builds"], 1, "truncated cache → rebuild");
    assert_eq!(telemetry.counters["corpus.index_hits"], 0);
    assert_eq!(telemetry.counters["corpus.index.swept"], 1);

    // The rebuild healed the cache: next open is a clean hit.
    let rec2 = lpr_obs::Recorder::new("reopen");
    drop(Corpus::open_with(std::slice::from_ref(&file), true, Some(&rec2)).unwrap());
    assert_eq!(rec2.finish().counters["corpus.index_hits"], 1);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn tampered_index_spans_are_rebuilt_not_trusted() {
    let dir = tmp("tampered");
    let paths = lpr_corpus::write_corpus_files(&dir, "cycle", &workload(), 1).unwrap();
    let file = paths[0].clone();
    let (expect, _) =
        lpr_corpus::ingest::load_traces(&Corpus::open(std::slice::from_ref(&file)).unwrap());
    assert_eq!(expect.len(), 20);
    let cache = RecordIndex::cache_path(&file);
    let clean = RecordIndex::from_bytes(&std::fs::read(&cache).unwrap()).unwrap();

    // A span running past the end of the file, and a span starting
    // inside its predecessor. Either cache still parses, and the file's
    // fingerprint still matches it.
    let mut past_eof = clean.clone();
    past_eof.records[5].body_len = 1 << 20;
    let mut overlapping = clean.clone();
    overlapping.records[5].offset = overlapping.records[4].offset + 1;
    for (what, tampered) in [("past EOF", past_eof), ("overlapping", overlapping)] {
        std::fs::write(&cache, tampered.to_bytes()).unwrap();
        let rec = lpr_obs::Recorder::new("tampered");
        let corpus = Corpus::open_with(std::slice::from_ref(&file), true, Some(&rec)).unwrap();
        let telemetry = rec.finish();
        assert_eq!(telemetry.counters["corpus.index_builds"], 1, "{what}: rebuilt");
        assert_eq!(lpr_corpus::ingest::load_traces(&corpus).0, expect, "{what}");
    }
    std::fs::remove_dir_all(&dir).ok();
}
