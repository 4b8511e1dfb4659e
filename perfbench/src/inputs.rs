//! Input generation. Everything derives from the workload seed; the
//! program under test only ever sees the files written here.

use ark_dataset::{CampaignOptions, World};
use lpr_core::trace::Trace;
use std::io;
use std::path::{Path, PathBuf};

/// The cycle every workload renders (its MPLS deployment mix is the
/// one the repository's benches use).
pub const CYCLE: usize = 40;

/// Threads input generation may use; generation is byte-identical at
/// any count.
const GEN_THREADS: usize = 2;

/// Campaign options of a seeded cycle at `scale`.
pub fn campaign_options(scale: usize, seed: u64, snapshots: usize) -> CampaignOptions {
    CampaignOptions {
        snapshots,
        seed,
        hosts_per_prefix: ark_dataset::scale_hosts_per_prefix(scale),
        threads: GEN_THREADS,
        ..CampaignOptions::default()
    }
}

/// A cycle on disk: the primary snapshot as a multi-file corpus, each
/// follow-up snapshot as one file, and the world's RIB as text.
pub struct CorpusInputs {
    /// RIB text file.
    pub rib: PathBuf,
    /// Primary snapshot files, in cycle order.
    pub primary: Vec<PathBuf>,
    /// One file per follow-up snapshot (the persistence window).
    pub next: Vec<PathBuf>,
    /// Traces in the primary snapshot.
    pub traces: u64,
    /// Bytes over every warts file.
    pub bytes: u64,
}

impl CorpusInputs {
    /// Every warts file, primary first.
    pub fn all_files(&self) -> impl Iterator<Item = &PathBuf> {
        self.primary.iter().chain(&self.next)
    }
}

/// Primary snapshot files per cycle.
pub const PRIMARY_FILES: usize = 4;
/// Follow-up snapshots (the persistence window `j`).
pub const WINDOW: usize = 2;

/// Writes a seeded scale-`scale` cycle under `dir`.
pub fn write_corpus(
    dir: &Path,
    world: &World,
    scale: usize,
    seed: u64,
) -> io::Result<CorpusInputs> {
    let opts = campaign_options(scale, seed, 1 + WINDOW);
    let mut primary = Vec::new();
    let mut next = Vec::new();
    let mut traces = 0u64;
    for snap in 0..=WINDOW {
        let snapshot = ark_dataset::generate_snapshot(world, CYCLE, snap, &opts);
        if snap == 0 {
            traces = snapshot.len() as u64;
            primary = lpr_corpus::write_corpus_files(dir, "cycle", &snapshot, PRIMARY_FILES)?;
        } else {
            next.extend(lpr_corpus::write_corpus_files(
                dir,
                &format!("next{snap}"),
                &snapshot,
                1,
            )?);
        }
    }
    let rib = dir.join("rib.txt");
    std::fs::write(&rib, ip2as::to_rib_string(world.rib()))?;
    let mut inputs = CorpusInputs {
        rib,
        primary,
        next,
        traces,
        bytes: 0,
    };
    inputs.bytes = file_bytes(inputs.all_files());
    Ok(inputs)
}

/// Total size of `paths`, bytes.
pub fn file_bytes<'a>(paths: impl IntoIterator<Item = &'a PathBuf>) -> u64 {
    paths
        .into_iter()
        .filter_map(|p| std::fs::metadata(p).ok())
        .map(|m| m.len())
        .sum()
}

/// Removes every cached `.lpridx` next to `paths`.
pub fn remove_indexes<'a>(paths: impl IntoIterator<Item = &'a PathBuf>) {
    for p in paths {
        let mut idx = p.clone().into_os_string();
        idx.push(".lpridx");
        let _ = std::fs::remove_file(PathBuf::from(idx));
    }
}

/// Decodes one warts file with the streaming reader, appending its
/// traces to `traces`. Returns the records read.
pub fn decode_file(path: &Path, traces: &mut Vec<Trace>) -> io::Result<u64> {
    let file = std::fs::File::open(path)?;
    let mut reader = warts::WartsStreamReader::new(io::BufReader::with_capacity(1 << 20, file));
    let mut records = 0u64;
    let bad = |e: String| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            format!("{}: {e}", path.display()),
        )
    };
    loop {
        match reader.next_record() {
            Ok(Some(warts::Record::Trace(rec))) => {
                records += 1;
                match warts::trace_to_core(&rec) {
                    Ok(Some(trace)) => traces.push(trace),
                    Ok(None) => {}
                    Err(e) => return Err(bad(e.to_string())),
                }
            }
            Ok(Some(_)) => records += 1,
            Ok(None) => return Ok(records),
            Err(e) => return Err(bad(e.to_string())),
        }
    }
}

/// One spool drop staged on disk, waiting to be renamed into the spool.
pub struct SpoolDrop {
    /// Staged file (outside the spool).
    pub staged: PathBuf,
    /// Name it takes in the spool (monotonically increasing).
    pub name: String,
    /// Traces it carries.
    pub traces: u64,
    /// Its size, bytes.
    pub bytes: u64,
}

/// Stages `n` distinct seeded scale-1 cycles under `dir`.
pub fn stage_drops(dir: &Path, world: &World, seed: u64, n: usize) -> io::Result<Vec<SpoolDrop>> {
    let mut drops = Vec::with_capacity(n);
    for i in 0..n {
        let opts = campaign_options(1, seed.wrapping_mul(1_000_003).wrapping_add(i as u64), 1);
        let traces = ark_dataset::generate_snapshot(world, CYCLE, 0, &opts);
        let staged = lpr_corpus::write_corpus_files(dir, &format!("d{i:05}"), &traces, 1)?
            .pop()
            .expect("one corpus file per drop");
        let bytes = std::fs::metadata(&staged)?.len();
        drops.push(SpoolDrop {
            staged,
            name: format!("d{i:05}.warts"),
            traces: traces.len() as u64,
            bytes,
        });
    }
    Ok(drops)
}
