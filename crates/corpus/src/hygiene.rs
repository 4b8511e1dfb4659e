//! Crash-leftover hygiene for spool and spill directories.
//!
//! A process killed mid-run can leave two kinds of debris behind:
//! orphaned `.lpridx.tmp` index writes (the atomic-rename protocol in
//! [`crate::index::RecordIndex::load_or_build`] guarantees a truncated
//! `.lpridx` can never be *renamed into place*, but the temp file
//! itself survives a kill) and stale `.spill`/`.spillrun` files from an
//! interrupted spilled persistence window. Neither is ever valid input
//! to a later run. `lpr serve` sweeps its spool directory and `lpr
//! classify`/`stats` sweep their `--spill-dir` at startup; both own
//! everything in those directories. A batch input's own directory is
//! not swept: the batch run removes only each input's
//! [`crate::index::RecordIndex::tmp_cache_path`].

use std::io;
use std::path::{Path, PathBuf};

/// File-name suffixes [`sweep_stale`] removes. All three are
/// regenerable artifacts: temp index writes and persistence-window
/// spill files.
pub const STALE_SUFFIXES: [&str; 3] = [".lpridx.tmp", ".spill", ".spillrun"];

/// Removes crash leftovers (see [`STALE_SUFFIXES`]) from `dir`,
/// non-recursively, and returns the paths removed. A missing `dir` is
/// not an error (nothing to sweep); per-file removal is best-effort.
/// Counts swept files on the `corpus.index.swept` counter.
pub fn sweep_stale(
    dir: &Path,
    recorder: Option<&lpr_obs::Recorder>,
) -> io::Result<Vec<PathBuf>> {
    let entries = match std::fs::read_dir(dir) {
        Ok(entries) => entries,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(e),
    };
    let mut swept = Vec::new();
    for entry in entries.flatten() {
        let path = entry.path();
        if !path.is_file() {
            continue;
        }
        let Some(name) = path.file_name().and_then(|n| n.to_str()) else { continue };
        if STALE_SUFFIXES.iter().any(|s| name.ends_with(s))
            && std::fs::remove_file(&path).is_ok()
        {
            swept.push(path);
        }
    }
    swept.sort();
    if let Some(rec) = recorder {
        if !swept.is_empty() {
            rec.counter(lpr_obs::names::CORPUS_INDEX_SWEPT).add(swept.len() as u64);
        }
    }
    Ok(swept)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("lpr-hygiene-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn sweeps_only_stale_artifacts() {
        let dir = tmp("sweep");
        for name in ["a.warts", "a.warts.lpridx", "a.warts.lpridx.tmp", "snap0.spill", "x-run0.spillrun"] {
            std::fs::write(dir.join(name), b"x").unwrap();
        }
        let rec = lpr_obs::Recorder::new("sweep");
        let swept = sweep_stale(&dir, Some(&rec)).unwrap();
        assert_eq!(swept.len(), 3);
        assert!(dir.join("a.warts").exists(), "corpus files stay");
        assert!(dir.join("a.warts.lpridx").exists(), "valid index caches stay");
        assert!(!dir.join("a.warts.lpridx.tmp").exists());
        assert!(!dir.join("snap0.spill").exists());
        assert!(!dir.join("x-run0.spillrun").exists());
        assert_eq!(rec.finish().counter(lpr_obs::names::CORPUS_INDEX_SWEPT), 3);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_dir_is_a_clean_noop() {
        let dir = tmp("gone").join("nope");
        assert!(sweep_stale(&dir, None).unwrap().is_empty());
    }
}
