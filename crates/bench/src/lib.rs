//! # lpr-bench — check-runner support
//!
//! This library holds the pieces of the `lpr-bench` binary that tests
//! reach: the golden campaign fingerprint every exhaustive `lpr-bench
//! pipeline` run checks, the flag table every subcommand parses from
//! ([`COMMANDS`], read by `lpr_cli::flags`) and the exact report
//! comparison behind `lpr-bench compare` ([`compare`]).

#![forbid(unsafe_code)]

use lpr_cli::flags::{self, flag, Command, Kind, Positional};
use lpr_obs::json::JsonValue;

/// FNV-1a fingerprint of the default-shape campaign's warts encoding,
/// captured before the dense-SPF / probe-ladder / parallel-probing
/// rewrite. Byte-for-byte equality with the old implementation is the
/// contract those optimisations must keep.
pub const GOLDEN_CAMPAIGN_FNV: u64 = 0x814958413857ec30;

/// Combines the per-snapshot warts encodings into one order-sensitive
/// FNV-1a fingerprint (each snapshot's hash is rotated by its index so
/// snapshot swaps change the result).
pub fn campaign_fingerprint(snapshots: &[Vec<lpr_core::trace::Trace>]) -> u64 {
    let mut combined = 0u64;
    for (snap, traces) in snapshots.iter().enumerate() {
        let bytes = warts::encode_cycle(traces, "bench", 1, 0, 1).expect("encode");
        combined ^= lpr_serve::fnv1a64(&bytes).rotate_left(snap as u32 * 21);
    }
    combined
}

/// Every subcommand `lpr-bench` runs, in help order. Each declares
/// every flag it reads, once; what every use runs at one value is a
/// constant of the binary, not a flag.
pub const COMMANDS: &[Command] = &[
    Command {
        name: "pipeline",
        positional: Positional::None,
        about: "Generates cycle 40's campaign (scale 1 holds it in memory; larger scales
write it snapshot by snapshot), runs the LPR pipeline in memory and out
of core, and exits 1 unless every output is identical at threads
1/2/4/8 and the exhaustive campaign matches its golden fingerprint.
The report holds only values every run of the same command repeats.",
        flags: &[
            flag("--out", Kind::Text, Some("BENCH_pipeline.json"), "report path"),
            flag("--threads", Kind::Count { min: 1 }, Some("1"), "threads of the instrumented run"),
            flag("--scale", Kind::Count { min: 1 }, Some("1"), "world size multiplier"),
            flag("--probing", Kind::Probing, Some("exhaustive"), "campaign probing strategy"),
            flag(
                "--max-campaign-share",
                Kind::Fraction,
                None,
                "fail if GenerateCampaign takes more of the stage wall time",
            ),
            flag(
                "--max-probes-per-dst",
                Kind::Positive,
                None,
                "fail if the campaign sends more probes per destination",
            ),
            flag(
                "--mem-ceiling-bytes",
                Kind::Count { min: 0 },
                None,
                "fail if the ingest phase's peak resident bytes exceed N",
            ),
            flags::TRACE_OUT,
            flags::TRACE_LEVEL,
        ],
    },
    Command {
        name: "mda",
        positional: Positional::None,
        about: "MDA-Lite against the exhaustive oracle over cycle 40's campaigns. Exits 1
unless IOTP recall reaches 0.95, the MDA-Lite campaign is identical at
threads 1/2/4/8 and probes are saved. The probes-vs-recall curve is
`experiments mda`'s results/fig_mda_recall.csv.",
        flags: &[
            flag("--out", Kind::Text, Some("BENCH_mda.json"), "report path"),
            flag("--hosts", Kind::Count { min: 1 }, Some("24"), "hosts per destination /24"),
            flag(
                "--max-probes-per-dst",
                Kind::Positive,
                None,
                "fail if MDA-Lite sends more probes per destination",
            ),
        ],
    },
    Command {
        name: "revelation",
        positional: Positional::None,
        about: "Plain LPR against LPR with revealed tunnels on cycle 40, 60% of its
tunnels hidden. Exits 1 unless IOTPs rise, the Unclassified share does
not grow, a tunnel is revealed, DPR probes are counted and threads
1/2/4/8 agree.",
        flags: &[flag("--out", Kind::Text, Some("BENCH_revelation.json"), "report path")],
    },
    Command {
        name: "chaos",
        positional: Positional::None,
        about: "Fault rates 0, 2, 5 and 10% (seed 42) over the golden campaign. Exits 1
if threads 1/2/4/8 disagree, kept + quarantined fails to reconcile,
class-share drift passes 0.5, or faults fabricate revelation evidence.",
        flags: &[
            flag("--out", Kind::Text, Some("BENCH_chaos.json"), "report path"),
            flags::TRACE_OUT,
            flags::TRACE_LEVEL,
        ],
    },
    Command {
        name: "serve",
        positional: Positional::None,
        about: "Soaks a live `lpr serve` with 5 cycles of clean and 10%-corrupted spool
drops while 4 trickling connections stay open. Exits 1 unless the
served snapshot equals the batch pipeline over the clean files, every
corrupted file is quarantined with a reason, the tallies reconcile, no
response is a 5xx and every /healthz probe answers within 1 s.",
        flags: &[flag("--out", Kind::Text, Some("BENCH_serve.json"), "report path")],
    },
    Command {
        name: "corrupt",
        positional: Positional::One("in.warts"),
        about: "Writes a copy of a warts file with seeded byte corruption.",
        flags: &[
            flag("--out", Kind::Text, None, "output path (required)"),
            flag("--rate", Kind::Fraction, Some("0.1"), "per-record corruption rate"),
            flag("--seed", Kind::Count { min: 0 }, Some("1"), "corruption seed"),
        ],
    },
    Command {
        name: "compare",
        positional: Positional::One("current.json"),
        about: "Exits 1 and prints each path if two reports differ anywhere.",
        flags: &[flag("--against", Kind::Text, None, "baseline report (required)")],
    },
];

/// The help text, rendered from [`COMMANDS`].
pub fn usage() -> String {
    let header = "lpr-bench — deterministic checks of the LPR pipeline (wall-time \
                  benchmarks live in perfbench/)";
    flags::usage(header, "lpr-bench", COMMANDS)
}

pub mod compare {
    //! The `lpr-bench compare` engine: an exact structural comparison
    //! of two `lpr-bench` reports. Every value in a report repeats on
    //! every run of the same command, so any difference — a changed
    //! count, a missing stage row, counter or section — is a failure,
    //! never noise.

    use super::JsonValue;

    /// Every path at which `current` and `baseline` differ, in
    /// document order: a changed value, or a key, stage row or array
    /// element present on one side only. Empty when they are equal.
    ///
    /// Objects are matched by key and arrays by position, except arrays
    /// whose elements are all objects with distinct `"name"` strings
    /// (the stage rows), which are matched by name and addressed as
    /// `stages[Persistence]`.
    pub fn diff(current: &JsonValue, baseline: &JsonValue) -> Vec<String> {
        let mut out = Vec::new();
        walk("", Some(current), Some(baseline), &mut out);
        out
    }

    fn walk(path: &str, cur: Option<&JsonValue>, base: Option<&JsonValue>, out: &mut Vec<String>) {
        let (cur, base) = match (cur, base) {
            (Some(c), Some(b)) => (c, b),
            (Some(_), None) => return out.push(format!("{path}: only in the current report")),
            (None, Some(_)) => return out.push(format!("{path}: only in the baseline")),
            (None, None) => return,
        };
        let same_shape = std::mem::discriminant(cur) == std::mem::discriminant(base);
        let (Some(cur_items), Some(base_items), true) = (children(cur), children(base), same_shape)
        else {
            if cur != base {
                out.push(format!("{path}: {} != baseline {}", cur.render(), base.render()));
            }
            return;
        };
        let only_in_base =
            base_items.iter().filter(|(k, _)| !cur_items.iter().any(|(c, _)| c == k));
        let keys: Vec<&String> = cur_items.iter().chain(only_in_base).map(|(k, _)| k).collect();
        for key in keys {
            walk(&join(path, cur, key), find(&cur_items, key), find(&base_items, key), out);
        }
    }

    fn find<'a>(items: &[(String, &'a JsonValue)], key: &str) -> Option<&'a JsonValue> {
        items.iter().find(|(k, _)| k == key).map(|&(_, v)| v)
    }

    /// A container's children as `(key, value)` pairs: object fields by
    /// key, named-object arrays by name, other arrays by index; `None`
    /// for a scalar.
    fn children(v: &JsonValue) -> Option<Vec<(String, &JsonValue)>> {
        match v {
            JsonValue::Object(pairs) => Some(pairs.iter().map(|(k, v)| (k.clone(), v)).collect()),
            JsonValue::Array(items) => {
                let names: Vec<String> = items
                    .iter()
                    .filter_map(|i| Some(i.get("name")?.as_str()?.to_string()))
                    .collect();
                let distinct = names.iter().collect::<std::collections::BTreeSet<_>>().len();
                if names.len() == items.len() && distinct == items.len() && !items.is_empty() {
                    Some(names.into_iter().zip(items).collect())
                } else {
                    Some(items.iter().enumerate().map(|(i, v)| (i.to_string(), v)).collect())
                }
            }
            _ => None,
        }
    }

    fn join(path: &str, parent: &JsonValue, key: &str) -> String {
        match parent {
            JsonValue::Array(_) => format!("{path}[{key}]"),
            _ if path.is_empty() => key.to_string(),
            _ => format!("{path}.{key}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lpr_obs::json;

    #[test]
    fn default_campaign_matches_the_golden_fingerprint() {
        let world = ark_dataset::standard_world();
        for threads in [1usize, 3] {
            let opts = ark_dataset::CampaignOptions { threads, ..Default::default() };
            let data = ark_dataset::generate_cycle(&world, 40, &opts);
            assert_eq!(
                campaign_fingerprint(&data.snapshots),
                GOLDEN_CAMPAIGN_FNV,
                "threads = {threads}"
            );
        }
    }

    fn sample_report() -> json::JsonValue {
        json::parse(
            r#"{
              "iotps": 12,
              "lsps_in": 48,
              "telemetry": {
                "stages": [
                  {"name": "TunnelExtraction", "input": 60, "output": 48},
                  {"name": "Classification", "input": 48, "output": 12}
                ],
                "counters": {"pipeline.traces": 60, "pipeline.traces_kept": 60}
              },
              "ingest": {
                "scale": 1,
                "corpus_files": 4,
                "corpus_bytes": 9000,
                "corpus_records": 70,
                "traces": 60,
                "lsps_in": 48
              },
              "probing": {
                "strategy": "mda-lite",
                "pairs_total": 648,
                "pairs_probed": 500,
                "pairs_pruned": 148,
                "flows_traced": 500,
                "probes_sent": 4000,
                "confirmations": 0,
                "probes_per_dst": 6.17
              }
            }"#,
        )
        .expect("sample parses")
    }

    /// The sample report with one textual substitution applied.
    fn edited(from: &str, to: &str) -> json::JsonValue {
        let text = sample_report().render_pretty();
        assert!(text.contains(from), "{from} not in the sample");
        json::parse(&text.replace(from, to)).expect("edited sample parses")
    }

    #[test]
    fn self_compare_passes() {
        let report = sample_report();
        assert_eq!(compare::diff(&report, &report), Vec::<String>::new());
    }

    #[test]
    fn count_drift_is_a_mismatch_even_when_fast() {
        let diffs = compare::diff(&edited("\"iotps\": 12", "\"iotps\": 11"), &sample_report());
        assert_eq!(diffs, vec!["iotps: 11 != baseline 12".to_string()]);
    }

    #[test]
    fn counter_drift_is_a_mismatch() {
        let current = edited("\"pipeline.traces_kept\": 60", "\"pipeline.traces_kept\": 59");
        let diffs = compare::diff(&current, &sample_report());
        assert_eq!(diffs, vec!["telemetry.counters.pipeline.traces_kept: 59 != baseline 60"]);
    }

    #[test]
    fn ingest_count_drift_is_a_mismatch() {
        let diffs = compare::diff(&edited("\"traces\": 60", "\"traces\": 59"), &sample_report());
        assert_eq!(diffs, vec!["ingest.traces: 59 != baseline 60"]);
    }

    #[test]
    fn missing_section_is_a_mismatch() {
        let without = edited("\"ingest\": {", "\"ingest_gone\": {");
        let diffs = compare::diff(&without, &sample_report());
        assert_eq!(
            diffs,
            vec!["ingest_gone: only in the current report", "ingest: only in the baseline"]
        );
        // A missing stage row is named by its stage.
        let current = edited("\"name\": \"Classification\"", "\"name\": \"Renamed\"");
        let diffs = compare::diff(&current, &sample_report());
        assert_eq!(
            diffs,
            vec![
                "telemetry.stages[Renamed]: only in the current report",
                "telemetry.stages[Classification]: only in the baseline",
            ]
        );
    }

    #[test]
    fn probing_self_compare_passes_and_absence_is_a_mismatch() {
        let with = sample_report();
        let mut without = sample_report();
        if let JsonValue::Object(fields) = &mut without {
            fields.retain(|(key, _)| key != "probing");
        }
        assert_eq!(compare::diff(&with, &with), Vec::<String>::new());
        assert_eq!(compare::diff(&without, &without), Vec::<String>::new());

        // A baseline predating the section: a mismatch, not a skip.
        assert_eq!(compare::diff(&with, &without), vec!["probing: only in the current report"]);
        assert_eq!(compare::diff(&without, &with), vec!["probing: only in the baseline"]);
    }

    #[test]
    fn doubled_probe_budget_is_a_regression() {
        let current = edited("\"probes_sent\": 4000", "\"probes_sent\": 8000");
        let diffs = compare::diff(&current, &sample_report());
        assert_eq!(diffs, vec!["probing.probes_sent: 8000 != baseline 4000"]);
        // The derived rate is compared exactly too.
        let current = edited("\"probes_per_dst\": 6.17", "\"probes_per_dst\": 12.34");
        let diffs = compare::diff(&current, &sample_report());
        assert_eq!(diffs, vec!["probing.probes_per_dst: 12.34 != baseline 6.17"]);
    }

    #[test]
    fn probing_strategy_mismatch_is_a_mismatch() {
        let current = edited("\"strategy\": \"mda-lite\"", "\"strategy\": \"exhaustive\"");
        let diffs = compare::diff(&current, &sample_report());
        assert_eq!(diffs, vec!["probing.strategy: \"exhaustive\" != baseline \"mda-lite\""]);
    }
}
