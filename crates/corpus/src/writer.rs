//! Multi-file corpus writer for simulated cycles.
//!
//! Real Ark cycles arrive as many warts files (one per monitor/day);
//! the netsim scenario generator produces one flat trace list. This
//! writer splits that list into `n_files` contiguous chunks and writes
//! each as a **self-contained** warts file — its own list record,
//! cycle start/stop and address dictionary — so any subset of files
//! decodes independently. Reading the files back in order yields the
//! traces in their original order, which is what keeps the out-of-core
//! pipeline byte-identical to the in-memory one.

use lpr_core::trace::Trace;
use std::io;
use std::path::{Path, PathBuf};

/// Writes `traces` as `n_files` warts files under `dir`, named
/// `<stem>.NNN.warts`; returns the paths in cycle order. `n_files` is
/// clamped to at least 1; trailing files may be one trace shorter when
/// the split is uneven.
pub fn write_corpus_files(
    dir: &Path,
    stem: &str,
    traces: &[Trace],
    n_files: usize,
) -> io::Result<Vec<PathBuf>> {
    std::fs::create_dir_all(dir)?;
    let n_files = n_files.max(1);
    let per_file = traces.len().div_ceil(n_files).max(1);
    let mut paths = Vec::new();
    // An empty cycle still produces one (traceless) file so that a
    // corpus open always has something to map.
    let chunks: Vec<&[Trace]> =
        if traces.is_empty() { vec![traces] } else { traces.chunks(per_file).collect() };
    for (i, chunk) in chunks.into_iter().enumerate() {
        let path = dir.join(format!("{stem}.{i:03}.warts"));
        let bytes = warts::encode_cycle(chunk, stem, 1, 1_400_000_000, 1_400_000_600)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        std::fs::write(&path, bytes)?;
        paths.push(path);
    }
    Ok(paths)
}
