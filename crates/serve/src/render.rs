//! Deterministic JSON views of a [`PipelineOutput`].
//!
//! The soak harness proves serve/batch equivalence by comparing
//! rendered bytes: the daemon renders its window, and
//! [`batch_snapshot_pipeline`] renders the batch pipeline over the kept
//! files, both through [`snapshot_pipeline_json`], so equal pipeline
//! results render to equal strings — including an FNV-1a fingerprint
//! over the full structural `Debug` form, which makes the comparison
//! sensitive to every field `PipelineOutput::eq` sees.

use lpr_core::pipeline::{IngestState, Pipeline, PipelineOutput};
use lpr_corpus::{ingest_cycle, Corpus, IngestOptions};
use lpr_obs::json::JsonValue;
use std::path::PathBuf;

/// FNV-1a over `bytes` (the same construction the bench golden
/// fingerprints use).
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// The batch reference for a served window: ingests each file as the
/// cycle the daemon assigned it, merges them in order, runs the back
/// half as the daemon's rebuild does, and renders the result through
/// [`snapshot_pipeline_json`].
pub fn batch_snapshot_pipeline(
    files: &[(u64, PathBuf)],
    rib: &ip2as::Ip2AsTrie,
    threads: usize,
) -> std::io::Result<String> {
    let mut window = IngestState::default();
    for (cycle, path) in files {
        let corpus = Corpus::open_with(std::slice::from_ref(path), false, None)?;
        let (mut state, _report) = ingest_cycle(&corpus, rib, IngestOptions::new(threads), None);
        state.tag_cycle(*cycle);
        window.merge(state);
    }
    let out =
        Pipeline::default().finish_stages(window, &[], None, lpr_par::ShardOptions::new(threads));
    Ok(snapshot_pipeline_json(&out).render())
}

/// The snapshot's `pipeline` section: classification tallies, filter
/// survival, trace accounting and a structural fingerprint.
pub fn snapshot_pipeline_json(out: &PipelineOutput) -> JsonValue {
    let counts = out.class_counts();
    let classes = JsonValue::Object(vec![
        ("mono_lsp".into(), JsonValue::Int(counts.mono_lsp as i128)),
        ("multi_fec".into(), JsonValue::Int(counts.multi_fec as i128)),
        ("mono_fec_parallel".into(), JsonValue::Int(counts.mono_fec_parallel as i128)),
        ("mono_fec_disjoint".into(), JsonValue::Int(counts.mono_fec_disjoint as i128)),
        ("unclassified".into(), JsonValue::Int(counts.unclassified as i128)),
    ]);
    let remaining = JsonValue::Object(
        out.report
            .remaining
            .iter()
            .map(|(stage, &n)| (stage.name().to_string(), JsonValue::Int(n as i128)))
            .collect(),
    );
    let quarantined = JsonValue::Object(
        out.degraded
            .quarantined
            .iter()
            .map(|(reason, &n)| (reason.name().to_string(), JsonValue::Int(n as i128)))
            .collect(),
    );
    JsonValue::Object(vec![
        (
            "fingerprint".into(),
            JsonValue::Str(format!("{:#018x}", fnv1a64(format!("{out:?}").as_bytes()))),
        ),
        ("iotps".into(), JsonValue::Int(out.iotps.len() as i128)),
        ("classes".into(), classes),
        ("ases".into(), JsonValue::Int(out.ases().len() as i128)),
        (
            "dynamic_ases".into(),
            JsonValue::Array(
                out.dynamic_ases.iter().map(|a| JsonValue::Int(a.0 as i128)).collect(),
            ),
        ),
        (
            "filter_report".into(),
            JsonValue::Object(vec![
                ("input".into(), JsonValue::Int(out.report.input as i128)),
                ("remaining".into(), remaining),
            ]),
        ),
        (
            "trace_accounting".into(),
            JsonValue::Object(vec![
                ("kept".into(), JsonValue::Int(out.degraded.kept as i128)),
                ("quarantined".into(), quarantined),
            ]),
        ),
    ])
}

/// The `/report/per-as` document: one row per AS owning classified
/// IOTPs, in AS order.
pub fn per_as_json(out: &PipelineOutput) -> JsonValue {
    let rows = out
        .ases()
        .into_iter()
        .map(|asn| {
            let counts = out.class_counts_for(asn);
            JsonValue::Object(vec![
                ("asn".into(), JsonValue::Int(asn.0 as i128)),
                ("iotps".into(), JsonValue::Int(counts.total() as i128)),
                ("mono_lsp".into(), JsonValue::Int(counts.mono_lsp as i128)),
                ("multi_fec".into(), JsonValue::Int(counts.multi_fec as i128)),
                ("mono_fec".into(), JsonValue::Int(counts.mono_fec() as i128)),
                ("unclassified".into(), JsonValue::Int(counts.unclassified as i128)),
                ("dynamic".into(), JsonValue::Bool(out.dynamic_ases.contains(&asn))),
            ])
        })
        .collect();
    JsonValue::Object(vec![("ases".into(), JsonValue::Array(rows))])
}

#[cfg(test)]
mod tests {
    use super::*;
    use lpr_core::prelude::*;
    use lpr_core::trace::Hop;
    use std::net::Ipv4Addr;

    fn mapper(addr: Ipv4Addr) -> Option<Asn> {
        match addr.octets()[0] {
            10 => Some(Asn(1)),
            192 => Some(Asn(100)),
            198 => Some(Asn(101)),
            _ => None,
        }
    }

    fn workload() -> Vec<Trace> {
        let mut traces = Vec::new();
        for i in 0..8u8 {
            let dst = if i % 2 == 0 {
                Ipv4Addr::new(192, 0, 2, 10 + i)
            } else {
                Ipv4Addr::new(198, 51, 100, 10 + i)
            };
            let mut t = Trace::new(Ipv4Addr::new(203, 0, 113, 5), dst);
            t.push_hop(Hop::responsive(1, Ipv4Addr::new(10, 0, 0, 1)));
            t.push_hop(Hop::labelled(
                2,
                Ipv4Addr::new(10, 0, 0, 2),
                &[Lse::transit(100, 254)],
            ));
            t.push_hop(Hop::labelled(
                3,
                Ipv4Addr::new(10, 0, 0, 3),
                &[Lse::transit(200, 253)],
            ));
            t.push_hop(Hop::responsive(4, Ipv4Addr::new(10, 0, 0, 9)));
            t.push_hop(Hop::responsive(5, dst));
            t.reached = true;
            traces.push(t);
        }
        traces
    }

    #[test]
    fn equal_outputs_render_identically_and_unequal_ones_do_not() {
        let traces = workload();
        let pipeline = Pipeline::default();
        let a = pipeline.run(&traces, &mapper, &[]);
        let b = pipeline.run(&traces, &mapper, &[]);
        assert_eq!(
            snapshot_pipeline_json(&a).render(),
            snapshot_pipeline_json(&b).render(),
            "equal outputs must render byte-identically"
        );
        let c = pipeline.run(&traces[..4], &mapper, &[]);
        assert_ne!(snapshot_pipeline_json(&a).render(), snapshot_pipeline_json(&c).render());
    }

    #[test]
    fn per_as_rows_cover_every_classified_as() {
        let out = Pipeline::default().run(&workload(), &mapper, &[]);
        let doc = per_as_json(&out);
        let rows = doc.get("ases").and_then(|v| v.as_array()).unwrap();
        assert_eq!(rows.len(), out.ases().len());
        let total: u64 =
            rows.iter().filter_map(|r| r.get("iotps").and_then(|v| v.as_u64())).sum();
        assert_eq!(total, out.iotps.len() as u64);
    }

    #[test]
    fn fingerprint_is_stable_fnv() {
        assert_eq!(fnv1a64(b""), 0xcbf29ce484222325);
        assert_eq!(fnv1a64(b"a"), 0xaf63dc4c8601ec8c);
    }
}
