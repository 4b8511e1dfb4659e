//! # lpr-corpus — out-of-core warts corpora
//!
//! The paper's dataset holds ~14 million LSPs *per cycle*, spread over
//! many warts files per monitor. This crate is the ingest layer every
//! batch `lpr classify`/`stats`/`tunnels` run and every `lpr serve`
//! drop goes through; it never builds a cycle's trace list:
//!
//! - [`mmap::MappedFile`] memory-maps each corpus file (read-only,
//!   private), so raw bytes are paged in on demand and never copied;
//!   a pipe or any other file the kernel will not map is read in
//!   instead, and is never given an `.lpridx` cache.
//! - [`index::RecordIndex`] records, for every successfully decoded
//!   record, its offset, body length and type — built in one sequential
//!   *lenient* scan (so its skip tallies are, by construction, exactly
//!   the sequential lenient decoder's) and cached on disk next to the
//!   file as `<name>.lpridx` with a staleness fingerprint.
//! - [`ingest_cycle`] cuts the indexed records into ranges and feeds
//!   them to [`lpr_par::map_shards`]: decode shards across files *and*
//!   within large files. Each shard preloads the file's complete
//!   address dictionary (captured by the index scan), which makes
//!   range-local decode exactly equal to sequential decode; traces are
//!   converted, filtered and dropped one at a time, so only surviving
//!   LSPs are retained.
//! - [`writer::write_corpus_files`] splits a simulated cycle across
//!   multiple self-contained warts files, the shape real Ark cycles
//!   come in.
//!
//! Shard-order merging keeps the result **byte-identical** to the
//! in-memory pipeline at any thread count; `lpr-bench` enforces that
//! with its golden-fingerprint self-check.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod corpus;
pub mod hygiene;
pub mod index;
pub mod ingest;
pub mod mmap;
pub mod writer;

pub use corpus::{Corpus, CorpusFile, DecodeReport, FileSkipReason, SkippedFile};
pub use hygiene::{sweep_stale, STALE_SUFFIXES};
pub use index::RecordIndex;
pub use ingest::{
    ingest_cycle, snapshot_keys, snapshot_keys_reported, spill_snapshot_keys,
    spill_snapshot_keys_reported, IngestOptions,
};
pub use mmap::MappedFile;
pub use writer::write_corpus_files;
