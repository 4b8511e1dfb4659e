//! On-disk spill for the Persistence window.
//!
//! At paper scale a persistence window holds millions of [`LspKey`]s per
//! future snapshot; keeping `j` such [`std::collections::BTreeSet`]s in
//! memory defeats an out-of-core ingest. This module spills each
//! snapshot's keys to a single **sorted** file of length-prefixed key
//! bytes ([`LspKey::as_bytes`]) and answers the Persistence filter's
//! membership question with one sequential merge-join pass per
//! snapshot:
//!
//! 1. [`KeySpiller`] buffers a bounded number of keys, sorts and dedups
//!    each full buffer into a run file, and k-way merges the runs into
//!    one sorted `<label>.spill` file on [`KeySpiller::finish`] —
//!    classic external sort, peak memory is the run buffer.
//! 2. [`persistent_flags_spilled`] takes the cycle's surviving LSP keys
//!    once, sorts them, and streams each snapshot's spill file with a
//!    two-pointer walk — no per-probe seeks, O(L log L) CPU plus one
//!    sequential read of the window.
//!
//! A key is its injective byte string and its `Ord` is byte order, so
//! the file order is key order and spilled membership is *exactly* set
//! membership: for any window, [`persistent_flags_spilled`] equals
//! [`crate::filter::persistent_flags`] over the same key sets (see the
//! equivalence test below).

use crate::filter::FilterConfig;
use crate::lsp::{Lsp, LspKey};
use std::fs::File;
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::path::{Path, PathBuf};

/// Keys buffered in memory before a sorted run is written (bounds the
/// spiller's peak memory).
pub const RUN_CAPACITY: usize = 64 * 1024;

/// One future snapshot's LSP keys, spilled to a sorted on-disk file.
#[derive(Clone, Debug)]
pub struct SpilledKeys {
    /// The sorted spill file (`<dir>/<label>.spill`).
    pub path: PathBuf,
    /// Unique keys in the file.
    pub count: u64,
    /// File size in bytes.
    pub bytes: u64,
}

impl SpilledKeys {
    /// Marks `flags[idx] = true` for every probe `(key, idx)` whose key
    /// appears in this spill file. `probes` must be sorted by key
    /// (duplicates allowed); one sequential pass over the file, no
    /// seeks.
    pub fn mark_members(&self, probes: &[(LspKey, usize)], flags: &mut [bool]) -> io::Result<()> {
        if probes.is_empty() {
            return Ok(());
        }
        let mut reader = RunReader::open(&self.path)?;
        let mut i = 0usize;
        while let Some(key) = reader.next_key()? {
            while i < probes.len() && probes[i].0.as_bytes() < key.as_slice() {
                i += 1;
            }
            while i < probes.len() && probes[i].0.as_bytes() == key.as_slice() {
                flags[probes[i].1] = true;
                i += 1;
            }
            if i == probes.len() {
                break;
            }
        }
        Ok(())
    }

    /// Removes the spill file (best-effort; callers clean up their spill
    /// directory when the cycle is done).
    pub fn delete(&self) -> io::Result<()> {
        std::fs::remove_file(&self.path)
    }
}

/// External-sort writer for one snapshot's key set.
pub struct KeySpiller {
    dir: PathBuf,
    label: String,
    buf: Vec<LspKey>,
    runs: Vec<PathBuf>,
    run_capacity: usize,
}

impl KeySpiller {
    /// Starts spilling under `dir` (created if missing); the final file
    /// is `<dir>/<label>.spill`.
    pub fn new(dir: &Path, label: &str) -> io::Result<Self> {
        std::fs::create_dir_all(dir)?;
        Ok(KeySpiller {
            dir: dir.to_path_buf(),
            label: label.to_string(),
            buf: Vec::new(),
            runs: Vec::new(),
            run_capacity: RUN_CAPACITY,
        })
    }

    /// Overrides the in-memory run capacity (tests use tiny runs to
    /// force multi-run merges).
    pub fn with_run_capacity(mut self, capacity: usize) -> Self {
        self.run_capacity = capacity.max(1);
        self
    }

    /// Adds one key (duplicates are welcome; the spill file stores each
    /// key once).
    pub fn push(&mut self, key: LspKey) -> io::Result<()> {
        self.buf.push(key);
        if self.buf.len() >= self.run_capacity {
            self.flush_run()?;
        }
        Ok(())
    }

    fn flush_run(&mut self) -> io::Result<()> {
        if self.buf.is_empty() {
            return Ok(());
        }
        self.buf.sort_unstable();
        self.buf.dedup();
        let path = self.dir.join(format!("{}-run{}.spillrun", self.label, self.runs.len()));
        let mut w = BufWriter::new(File::create(&path)?);
        for key in &self.buf {
            write_record(&mut w, key.as_bytes())?;
        }
        w.flush()?;
        self.buf.clear();
        self.runs.push(path);
        Ok(())
    }

    /// Merges every run into the final sorted spill file and returns its
    /// handle. Run files are removed.
    pub fn finish(mut self) -> io::Result<SpilledKeys> {
        self.flush_run()?;
        let path = self.dir.join(format!("{}.spill", self.label));
        let mut out = BufWriter::new(File::create(&path)?);
        let mut count = 0u64;

        // K-way merge with global dedup: repeatedly take the smallest
        // head, emit it once, and advance every reader holding it.
        let mut readers: Vec<RunReader> =
            self.runs.iter().map(|p| RunReader::open(p)).collect::<io::Result<_>>()?;
        let mut heads: Vec<Option<Vec<u8>>> =
            readers.iter_mut().map(|r| r.next_key()).collect::<io::Result<_>>()?;
        while let Some(min) = heads.iter().flatten().min().cloned() {
            write_record(&mut out, &min)?;
            count += 1;
            for (head, reader) in heads.iter_mut().zip(&mut readers) {
                while head.as_deref() == Some(min.as_slice()) {
                    *head = reader.next_key()?;
                }
            }
        }
        out.flush()?;
        drop(out);
        for run in &self.runs {
            let _ = std::fs::remove_file(run);
        }
        let bytes = std::fs::metadata(&path)?.len();
        Ok(SpilledKeys { path, count, bytes })
    }
}

fn write_record(w: &mut impl Write, key: &[u8]) -> io::Result<()> {
    w.write_all(&(key.len() as u32).to_be_bytes())?;
    w.write_all(key)
}

/// Sequential reader over one length-prefixed sorted key file.
struct RunReader {
    r: BufReader<File>,
}

impl RunReader {
    fn open(path: &Path) -> io::Result<Self> {
        Ok(RunReader { r: BufReader::new(File::open(path)?) })
    }

    fn next_key(&mut self) -> io::Result<Option<Vec<u8>>> {
        let mut len = [0u8; 4];
        match self.r.read_exact(&mut len) {
            Ok(()) => {}
            Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(None),
            Err(e) => return Err(e),
        }
        let mut key = vec![0u8; u32::from_be_bytes(len) as usize];
        self.r.read_exact(&mut key)?;
        Ok(Some(key))
    }
}

/// The spilled counterpart of [`crate::filter::persistent_flags`]:
/// `flags[i]` is whether `lsps[i]`'s key appears in at least one of the
/// window's spill files. Identical semantics — window truncated to
/// `config.persistence_window` snapshots, and a window of no snapshots
/// keeps everything — via one merge-join pass per snapshot.
pub fn persistent_flags_spilled(
    lsps: &[Lsp],
    window: &[SpilledKeys],
    config: &FilterConfig,
) -> io::Result<Vec<bool>> {
    let window = &window[..config.persistence_window.min(window.len())];
    if window.is_empty() {
        return Ok(vec![true; lsps.len()]);
    }
    let (mut key, mut probes) = (Vec::new(), Vec::with_capacity(lsps.len()));
    for (i, l) in lsps.iter().enumerate() {
        l.encode_key(&mut key);
        probes.push((LspKey::from_encoded(&key), i));
    }
    probes.sort_unstable();
    let mut flags = vec![false; lsps.len()];
    for snapshot in window {
        snapshot.mark_members(&probes, &mut flags)?;
    }
    Ok(flags)
}

/// Spills keys under `dir` as `<label>.spill`.
pub fn spill_keys(
    keys: impl IntoIterator<Item = LspKey>,
    dir: &Path,
    label: &str,
) -> io::Result<SpilledKeys> {
    let mut spiller = KeySpiller::new(dir, label)?;
    for key in keys {
        spiller.push(key)?;
    }
    spiller.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::filter::persistent_flags;
    use crate::label::{LabelStack, Lse};
    use crate::lsp::{Asn, LspHop};
    use std::collections::BTreeSet;
    use std::net::Ipv4Addr;

    fn ip(a: u8, o: u8) -> Ipv4Addr {
        Ipv4Addr::new(10, a, 0, o)
    }

    fn lsp(asn: u8, labels: &[u32]) -> Lsp {
        Lsp {
            asn: Asn(asn as u32),
            ingress: ip(asn, 1),
            egress: ip(asn, 9),
            hops: labels
                .iter()
                .enumerate()
                .map(|(i, &l)| {
                    LspHop::new(
                        ip(asn, 2 + i as u8),
                        LabelStack::from_entries(&[Lse::transit(l, 255)]),
                    )
                })
                .collect(),
            dst_asn: Some(Asn(100)),
        }
    }

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("lpr-spill-{}-{}", name, std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn fnv1a(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
            (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    /// An LSP of `hops` LSRs, each quoting `depth` labels.
    fn stacked(asn: u8, hops: usize, depth: usize) -> Lsp {
        Lsp {
            asn: Asn(asn as u32),
            ingress: ip(asn, 1),
            egress: ip(asn, 9),
            hops: (0..hops)
                .map(|h| {
                    let label = |d: usize| 16 + 100 * asn as u32 + 10 * h as u32 + d as u32;
                    let stack = (0..depth).map(|d| Lse::transit(label(d), 255)).collect();
                    LspHop::new(ip(asn, 2 + h as u8), stack)
                })
                .collect(),
            dst_asn: Some(Asn(100)),
        }
    }

    /// The spill file format is the key format: these sums were taken
    /// from the files written when the spill encoded keys itself, and
    /// every later writer must reproduce them byte for byte.
    #[test]
    fn spill_bytes_are_pinned() {
        let dir = tmp("pinned");
        let two_label: BTreeSet<LspKey> =
            (1..=30u8).map(|a| lsp(a, &[a as u32 * 10, a as u32 * 10 + 1]).key()).collect();
        let mixed: BTreeSet<LspKey> = (1..=6u8)
            .flat_map(|a| (1..=4).flat_map(move |h| (0..=3).map(move |d| stacked(a, h, d).key())))
            .collect();
        let bytes = |keys: &BTreeSet<LspKey>, label: &str| {
            std::fs::read(spill_keys(keys.iter().cloned(), &dir, label).unwrap().path).unwrap()
        };
        let two = bytes(&two_label, "two");
        let mix = bytes(&mixed, "mixed");
        assert_eq!((two.len(), fnv1a(&two)), (1200, 0xef4d_28fb_336e_75ad));
        assert_eq!((mix.len(), fnv1a(&mix)), (4896, 0xd635_fef3_6bfa_b5fd));
        // A multi-run merge writes the same bytes as one sorted run.
        let mut spiller = KeySpiller::new(&dir, "runs").unwrap().with_run_capacity(4);
        for key in mixed.iter().rev() {
            spiller.push(key.clone()).unwrap();
        }
        assert_eq!(std::fs::read(spiller.finish().unwrap().path).unwrap(), mix);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn encoding_is_injective_on_distinct_keys() {
        // Keys engineered so a naive (unprefixed) concatenation would
        // collide: hop boundaries move but the flat byte content cannot.
        let a = lsp(1, &[100, 200]).key();
        let b = lsp(1, &[100]).key();
        assert_ne!(a.as_bytes(), b.as_bytes());
        // Same key encodes identically.
        assert_eq!(a.as_bytes(), lsp(1, &[100, 200]).key().as_bytes());
    }

    #[test]
    fn spilled_flags_match_in_memory_flags() {
        let dir = tmp("equiv");
        let lsps: Vec<Lsp> =
            (1..=30u8).map(|a| lsp(a, &[a as u32 * 10, a as u32 * 10 + 1])).collect();
        // Window: snapshot 0 re-observes ASes 1..=10, snapshot 1 ASes
        // 5..=20; AS 21+ never persists.
        let snap = |range: std::ops::RangeInclusive<u8>| -> BTreeSet<LspKey> {
            range.map(|a| lsp(a, &[a as u32 * 10, a as u32 * 10 + 1]).key()).collect()
        };
        let mem = vec![snap(1..=10), snap(5..=20)];
        let spilled: Vec<SpilledKeys> = mem
            .iter()
            .enumerate()
            .map(|(i, s)| spill_keys(s.iter().cloned(), &dir, &format!("snap{i}")).unwrap())
            .collect();

        let config = FilterConfig::default();
        let expect = persistent_flags(&lsps, &mem, &config);
        let got = persistent_flags_spilled(&lsps, &spilled, &config).unwrap();
        assert_eq!(got, expect);
        assert_eq!(got.iter().filter(|&&f| f).count(), 20);

        // Window-0, and a window of no snapshots, keep everything in
        // both paths.
        let none = FilterConfig { persistence_window: 0, ..Default::default() };
        assert_eq!(
            persistent_flags_spilled(&lsps, &spilled, &none).unwrap(),
            persistent_flags(&lsps, &mem, &none),
        );
        assert_eq!(persistent_flags_spilled(&lsps, &[], &config).unwrap(), vec![true; 30]);
        assert_eq!(persistent_flags(&lsps, &[], &config), vec![true; 30]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn multi_run_merge_dedups_and_sorts() {
        let dir = tmp("runs");
        let mut spiller =
            KeySpiller::new(&dir, "multi").unwrap().with_run_capacity(4);
        // 25 keys pushed twice in interleaved order -> several runs with
        // overlapping content.
        for round in 0..2 {
            for a in 1..=25u8 {
                let a = if round == 0 { a } else { 26 - a };
                spiller.push(lsp(a, &[7]).key()).unwrap();
            }
        }
        let spilled = spiller.finish().unwrap();
        assert_eq!(spilled.count, 25, "dedup across runs");

        // The file is sorted and readable back.
        let mut r = RunReader::open(&spilled.path).unwrap();
        let mut prev: Option<Vec<u8>> = None;
        let mut n = 0;
        while let Some(k) = r.next_key().unwrap() {
            if let Some(p) = &prev {
                assert!(p < &k, "strictly ascending");
            }
            prev = Some(k);
            n += 1;
        }
        assert_eq!(n, 25);
        assert!(std::fs::read_dir(&dir).unwrap().count() == 1, "run files removed");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn window_truncation_matches_config() {
        let dir = tmp("window");
        let key = lsp(1, &[5]).key();
        let empty = spill_keys([], &dir, "empty").unwrap();
        let hit = spill_keys([key], &dir, "hit").unwrap();
        let lsps = vec![lsp(1, &[5])];
        // j = 1 sees only the empty first snapshot.
        let j1 = FilterConfig { persistence_window: 1, ..Default::default() };
        let flags =
            persistent_flags_spilled(&lsps, &[empty.clone(), hit.clone()], &j1).unwrap();
        assert_eq!(flags, vec![false]);
        // j = 2 reaches the hit.
        let j2 = FilterConfig { persistence_window: 2, ..Default::default() };
        let flags = persistent_flags_spilled(&lsps, &[empty, hit], &j2).unwrap();
        assert_eq!(flags, vec![true]);
        std::fs::remove_dir_all(&dir).ok();
    }
}
