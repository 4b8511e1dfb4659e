//! A multi-file warts corpus, mapped and indexed.

use crate::index::RecordIndex;
use crate::mmap::MappedFile;
use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};
use warts::SkipReason;

/// One mapped + indexed corpus file.
pub struct CorpusFile {
    /// Where the file lives.
    pub path: PathBuf,
    map: MappedFile,
    /// The file's record index (loaded from cache or built on open).
    pub index: RecordIndex,
}

impl CorpusFile {
    /// The file's raw bytes (borrowed from the mapping — no copy).
    pub fn bytes(&self) -> &[u8] {
        self.map.bytes()
    }

    /// The body slice of record `rec` (header excluded), straight out
    /// of the mapping.
    pub fn body(&self, rec: usize) -> &[u8] {
        let span = &self.index.records[rec];
        let start = span.offset as usize + 8;
        &self.bytes()[start..start + span.body_len as usize]
    }
}

/// Why [`Corpus::open`] set a file aside instead of indexing it.
///
/// Both shapes are what a spool directory looks like while scamper is
/// still writing in place: skipping the *file* (and picking it up on a
/// later scan) is the correct move, failing the whole corpus open is
/// not.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FileSkipReason {
    /// Zero-length file: created, nothing written yet.
    Empty,
    /// The file ends in a half-written record — the tail bytes parse as
    /// the *start* of a record whose declared length runs past EOF. The
    /// wrapped [`SkipReason`] says how the tail fell short.
    StillGrowing(SkipReason),
}

impl FileSkipReason {
    /// Short machine-readable name (stable, used in quarantine reason
    /// files and skip summaries).
    pub fn name(&self) -> &'static str {
        match self {
            FileSkipReason::Empty => "empty",
            FileSkipReason::StillGrowing(_) => "still_growing",
        }
    }
}

impl std::fmt::Display for FileSkipReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FileSkipReason::Empty => write!(f, "empty"),
            FileSkipReason::StillGrowing(r) => write!(f, "still_growing({})", r.name()),
        }
    }
}

/// One file [`Corpus::open`] skipped, with its structured reason.
#[derive(Clone, Debug)]
pub struct SkippedFile {
    /// The skipped file.
    pub path: PathBuf,
    /// Why it was set aside.
    pub reason: FileSkipReason,
}

/// An open corpus: one measurement cycle spread over N files.
pub struct Corpus {
    /// The cycle's files, in the order given to [`Corpus::open`] — the
    /// cycle's record order is file order, then stream order within
    /// each file.
    pub files: Vec<CorpusFile>,
    /// Files set aside as empty or still-growing (spool hygiene); the
    /// rest of the corpus opens normally.
    pub skipped_files: Vec<SkippedFile>,
}

/// Decode accounting for a corpus pass, mirroring what the sequential
/// lenient loader reports: the skip tallies come from each file's
/// index scan (equal to a sequential lenient decode by construction),
/// `convert_failures` from the warts→core conversion during ingest.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DecodeReport {
    /// Trace records decoded.
    pub traces: u64,
    /// Ingested traces crossing at least one explicit MPLS tunnel
    /// (filled by [`crate::ingest_cycle`]; index scans leave it 0).
    pub mpls_traces: u64,
    /// Malformed records skipped, by reason (zero entries omitted).
    pub skipped: BTreeMap<SkipReason, u64>,
    /// Bytes discarded while resynchronizing.
    pub resync_bytes: u64,
    /// Traces that decoded but failed warts→core conversion.
    pub convert_failures: u64,
}

impl DecodeReport {
    /// Total records skipped.
    pub fn skipped_total(&self) -> u64 {
        self.skipped.values().sum()
    }

    /// Adds another pass's accounting to this one.
    pub fn merge(&mut self, other: DecodeReport) {
        self.traces += other.traces;
        self.mpls_traces += other.mpls_traces;
        for (reason, n) in other.skipped {
            *self.skipped.entry(reason).or_default() += n;
        }
        self.resync_bytes += other.resync_bytes;
        self.convert_failures += other.convert_failures;
    }

    /// Adds the report's decode tallies to `recorder` under the names a
    /// lenient [`warts::StreamMetrics`] reader counts them:
    /// `warts.traces`, `warts.malformed_records`, `warts.resync_bytes`
    /// and every `warts.skip.*` reason (zeros included). They come from
    /// the index scans, so a cached open reports what a built one does.
    pub fn record(&self, recorder: &lpr_obs::Recorder) {
        recorder.counter(lpr_obs::names::WARTS_TRACES).add(self.traces);
        recorder.counter(lpr_obs::names::WARTS_MALFORMED_RECORDS).add(self.skipped_total());
        recorder.counter(lpr_obs::names::WARTS_RESYNC_BYTES).add(self.resync_bytes);
        for reason in SkipReason::ALL {
            let n = self.skipped.get(&reason).copied().unwrap_or(0);
            recorder.counter(reason.counter_name()).add(n);
        }
    }
}

/// Detects a half-written final record: the bytes after the last
/// indexed span are a cut-short header, or a header whose declared body
/// runs past EOF ([`warts::RecordHeader::parse`]). Mid-file garbage or
/// an insane length does not match — that is corruption, already tallied
/// as per-record skips by the index scan — only a well-formed prefix at
/// the very end of the file reads as "scamper has not finished writing
/// this one yet".
fn growing_tail(bytes: &[u8], index: &RecordIndex) -> Option<SkipReason> {
    let end = index.records.last().map_or(0, |span| (span.offset + span.wire_len()) as usize);
    let tail = &bytes[end.min(bytes.len())..];
    match warts::RecordHeader::parse(tail) {
        Err(SkipReason::TruncatedHeader) if !tail.is_empty() => Some(SkipReason::TruncatedHeader),
        Ok(header) if header.wire_len() > tail.len() => Some(SkipReason::TruncatedBody),
        _ => None,
    }
}

impl Corpus {
    /// Opens and indexes `paths` (writing `.lpridx` caches next to
    /// them).
    pub fn open<P: AsRef<Path>>(paths: &[P]) -> io::Result<Self> {
        Self::open_with(paths, true, None)
    }

    /// [`Corpus::open`] with cache control and telemetry: counts
    /// files/bytes mapped, index hits vs builds, and records indexed.
    /// A file that is not a regular file (a pipe, `/dev/stdin`) is
    /// indexed in memory: no `.lpridx` is read or written for it.
    pub fn open_with<P: AsRef<Path>>(
        paths: &[P],
        cache: bool,
        recorder: Option<&lpr_obs::Recorder>,
    ) -> io::Result<Self> {
        let mut files = Vec::with_capacity(paths.len());
        let mut skipped_files = Vec::new();
        let (mut bytes, mut hits, mut builds, mut records) = (0u64, 0u64, 0u64, 0u64);
        for path in paths {
            let path = path.as_ref().to_path_buf();
            let named =
                |e: io::Error| io::Error::new(e.kind(), format!("{}: {e}", path.display()));
            let map = MappedFile::open(&path).map_err(named)?;
            if map.is_empty() {
                skipped_files.push(SkippedFile { path, reason: FileSkipReason::Empty });
                continue;
            }
            let (index, hit) = if std::fs::metadata(&path).map_err(named)?.is_file() {
                RecordIndex::load_or_build(&path, map.bytes(), cache)
            } else {
                (RecordIndex::build(map.bytes()), false)
            };
            if let Some(reason) = growing_tail(map.bytes(), &index) {
                skipped_files
                    .push(SkippedFile { path, reason: FileSkipReason::StillGrowing(reason) });
                continue;
            }
            bytes += map.len() as u64;
            if hit {
                hits += 1;
            } else {
                builds += 1;
            }
            records += index.records.len() as u64;
            files.push(CorpusFile { path, map, index });
        }
        if let Some(rec) = recorder {
            rec.counter(lpr_obs::names::CORPUS_FILES_MAPPED).add(files.len() as u64);
            rec.counter(lpr_obs::names::CORPUS_BYTES_MAPPED).add(bytes);
            rec.counter(lpr_obs::names::CORPUS_INDEX_HITS).add(hits);
            rec.counter(lpr_obs::names::CORPUS_INDEX_BUILDS).add(builds);
            rec.counter(lpr_obs::names::CORPUS_RECORDS_INDEXED).add(records);
            if !skipped_files.is_empty() {
                rec.counter(lpr_obs::names::CORPUS_FILES_SKIPPED)
                    .add(skipped_files.len() as u64);
            }
        }
        Ok(Corpus { files, skipped_files })
    }

    /// Total corpus size, bytes.
    pub fn total_bytes(&self) -> u64 {
        self.files.iter().map(|f| f.bytes().len() as u64).sum()
    }

    /// Total successfully indexed records.
    pub fn total_records(&self) -> u64 {
        self.files.iter().map(|f| f.index.records.len() as u64).sum()
    }

    /// Total trace records.
    pub fn total_traces(&self) -> u64 {
        self.files.iter().map(|f| f.index.traces).sum()
    }

    /// The corpus-wide decode accounting from the index scans
    /// (`convert_failures` stays 0 here; [`crate::ingest_cycle`] fills
    /// it in).
    pub fn decode_report(&self) -> DecodeReport {
        let mut report = DecodeReport::default();
        for file in &self.files {
            report.traces += file.index.traces;
            report.resync_bytes += file.index.resync_bytes;
            for (reason, n) in file.index.skipped() {
                *report.skipped.entry(reason).or_default() += n;
            }
        }
        report
    }
}
