//! Exporting rendered cycles as warts files + RIB snapshot.
//!
//! This is the shape in which the synthetic dataset can be shared or
//! fed to external tooling: one warts file per snapshot (list + cycle
//! records + traces, exactly like an Ark per-monitor dump, except all
//! monitors share one file) and the Routeviews-style RIB text the
//! IP2AS step needs. The `lpr` CLI consumes these files directly:
//!
//! ```text
//! lpr classify --rib rib.txt cycle030_snap0.warts \
//!     --next cycle030_snap1.warts --next cycle030_snap2.warts
//! ```

use crate::campaign::CycleData;
use crate::world::World;
use std::io;
use std::path::{Path, PathBuf};

/// The files one exported cycle produced.
#[derive(Clone, Debug)]
pub struct ExportedCycle {
    /// One warts file per snapshot, primary first.
    pub snapshots: Vec<PathBuf>,
    /// The RIB snapshot path.
    pub rib: PathBuf,
}

/// Serialises every snapshot of a rendered cycle into `dir` (created
/// if missing) and writes the world's RIB next to them.
pub fn export_cycle(world: &World, data: &CycleData, dir: &Path) -> io::Result<ExportedCycle> {
    std::fs::create_dir_all(dir)?;

    let mut snapshot_paths = Vec::with_capacity(data.snapshots.len());
    for (snap, traces) in data.snapshots.iter().enumerate() {
        // Synthetic timestamps: months since "cycle 0", days per snap.
        let start = (data.cycle as u32) * 2_592_000 + (snap as u32) * 86_400;
        let name = format!("cycle{:03}", data.cycle);
        let bytes = warts::encode_cycle(traces, &name, data.cycle as u32, start, start + 86_000)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        let path = dir.join(format!("{name}_snap{snap}.warts"));
        std::fs::write(&path, bytes)?;
        snapshot_paths.push(path);
    }

    let rib_path = dir.join("rib.txt");
    std::fs::write(&rib_path, ip2as::to_rib_string(world.rib()))?;
    Ok(ExportedCycle { snapshots: snapshot_paths, rib: rib_path })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{generate_cycle, CampaignOptions};
    use crate::world::standard_world;
    use lpr_core::prelude::*;

    #[test]
    fn exported_cycle_reimports_identically() {
        let world = standard_world();
        let opts = CampaignOptions::default();
        let data = generate_cycle(&world, 35, &opts);
        let dir = std::env::temp_dir().join(format!("lpr-export-{}", std::process::id()));
        let exported = export_cycle(&world, &data, &dir).unwrap();
        assert_eq!(exported.snapshots.len(), 3);

        // Re-import the primary snapshot and compare with the original.
        let records = warts::read_path(&exported.snapshots[0]).unwrap();
        let traces: Vec<Trace> = records
            .into_iter()
            .filter_map(|r| match r {
                warts::Record::Trace(t) => warts::trace_to_core(&t).unwrap(),
                _ => None,
            })
            .collect();
        assert_eq!(traces, data.snapshots[0]);

        // The exported RIB reproduces the world's mapping.
        let rib_text = std::fs::read_to_string(&exported.rib).unwrap();
        let rib = ip2as::parse_rib(&rib_text).unwrap();
        for t in &traces {
            for h in t.responsive_hops() {
                assert_eq!(
                    rib.lookup(h.addr.unwrap()),
                    world.rib().lookup(h.addr.unwrap())
                );
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
