//! The in-memory reference the `lpr` batch path is checked against.

#![allow(dead_code)]

use lpr_core::pipeline::{IngestState, Pipeline, PipelineOutput};
use lpr_core::prelude::*;
use std::collections::BTreeMap;
use warts::SkipReason;

/// A reference run's output and the records its decoder skipped.
pub type Reference = (PipelineOutput, BTreeMap<SkipReason, u64>);

/// Decodes `paths` with `warts::WartsReader` (lenient or strict) and
/// `trace_to_core`, tallying skips. Strict mode stops at the first
/// decode or conversion error.
pub fn decode(
    paths: &[String],
    lenient: bool,
    skipped: &mut BTreeMap<SkipReason, u64>,
) -> Result<Vec<Trace>, warts::WartsError> {
    let mut traces = Vec::new();
    for path in paths {
        let bytes = std::fs::read(path).unwrap();
        let mut reader = warts::WartsReader::new(&bytes);
        if lenient {
            reader = reader.lenient();
        }
        while let Some(record) = reader.next_record()? {
            let warts::Record::Trace(t) = record else { continue };
            match warts::trace_to_core(&t) {
                Ok(Some(trace)) => traces.push(trace),
                Ok(None) => {}
                Err(e) if !lenient => return Err(e),
                Err(_) => {}
            }
        }
        for (reason, n) in reader.skip_counts() {
            *skipped.entry(*reason).or_default() += n;
        }
    }
    Ok(traces)
}

/// The cycle `inputs` ingested by `IngestState::from_traces` and
/// finished by `finish_stages` against the key sets of the `next`
/// files (one snapshot each), at one thread.
pub fn reference_run(
    inputs: &[String],
    next: &[String],
    rib: &str,
    lenient: bool,
) -> Result<Reference, warts::WartsError> {
    let rib = ip2as::parse_rib(&std::fs::read_to_string(rib).unwrap()).unwrap();
    let mut skipped = BTreeMap::new();
    let traces = decode(inputs, lenient, &mut skipped)?;
    let mut future = Vec::new();
    for path in next {
        let snapshot = decode(std::slice::from_ref(path), lenient, &mut skipped)?;
        future.push(Pipeline::snapshot_keys(&snapshot));
    }
    let pipeline =
        Pipeline::new(FilterConfig { persistence_window: next.len(), ..Default::default() });
    let one = lpr_par::ShardOptions::new(1);
    let ingest = IngestState::from_traces(&traces, &rib, None, one);
    Ok((pipeline.finish_stages(ingest, &future, None, one), skipped))
}
