//! # lpr-bench — benchmark support
//!
//! This library holds the pieces of the `lpr-bench` binary that want
//! unit tests: the golden campaign fingerprint every `lpr-bench
//! pipeline` run checks, the shared rate/speedup formatters (one source
//! of truth for the stdout table and the JSON report) and the
//! [`compare`] engine behind `lpr-bench compare`.

#![forbid(unsafe_code)]

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
        let mut w = warts::WartsWriter::new();
        let list = w.list(1, "bench");
        let cyc = w.cycle_start(list, 1, 0);
        for t in traces {
            w.trace(&warts::trace_to_record(t, list, cyc)).expect("encode");
        }
        w.cycle_stop(cyc, 1);
        let mut h: u64 = 0xcbf29ce484222325;
        for &b in w.into_bytes().iter() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
        combined ^= h.rotate_left(snap as u32 * 21);
    }
    combined
}

/// Items/second over a wall time, or `None` when the wall rounded to
/// 0 µs — a 0-µs stage has no measurable rate, and a fake `0.0` would
/// read as "stalled". Both renderings of the report derive from this
/// one cell (for pipeline stages, `items` is the stage's input count,
/// matching `StageTelemetry::throughput_per_s`).
pub fn throughput_cell(wall_us: u64, items: u64) -> Option<f64> {
    if wall_us == 0 {
        None
    } else {
        Some(items as f64 / (wall_us as f64 / 1e6))
    }
}

/// The stdout rendering of [`throughput_cell`]: `"n/a"` or the rate
/// rounded to whole items/s.
pub fn throughput_text(wall_us: u64, items: u64) -> String {
    match throughput_cell(wall_us, items) {
        None => "n/a".to_string(),
        Some(rate) => format!("{rate:.0}"),
    }
}

/// The JSON rendering of [`throughput_cell`]: `null` or a float.
pub fn throughput_json(wall_us: u64, items: u64) -> JsonValue {
    match throughput_cell(wall_us, items) {
        None => JsonValue::Null,
        Some(rate) => JsonValue::Float(rate),
    }
}

/// Wall-time ratio `reference / wall`, saturating 0-µs measurements to
/// 1 µs so a sweep over an immeasurably fast run reports a finite
/// (and, for the reference row itself, exactly `1.0`) speedup.
pub fn speedup(reference_wall_us: u64, wall_us: u64) -> f64 {
    reference_wall_us.max(1) as f64 / wall_us.max(1) as f64
}

pub mod compare {
    //! The `lpr-bench compare` engine: diffs two `BENCH_pipeline.json`
    //! reports and decides whether the newer one regressed.
    //!
    //! Three classes of check:
    //!
    //! * **Wall time** — per top-level stage (worker rows re-count time
    //!   already in their parent), the current/baseline ratio must stay
    //!   under `1 + threshold`. Stages whose baseline wall is 0 or
    //!   absent are skipped: the committed baseline strips
    //!   nondeterministic timings (see `lpr-bench baseline`), and a
    //!   0-µs measurement has no meaningful ratio.
    //! * **Counts** — IOTPs, input LSPs and every counter present in
    //!   both reports must match *exactly*; these are deterministic for
    //!   a given campaign shape, so any drift is a correctness change,
    //!   not noise.
    //! * **Allocations** — per-stage allocation calls compare like wall
    //!   time (ratio under `1 + threshold`), when both reports carry
    //!   `"allocations"`.

    use super::JsonValue;

    /// One stage's wall-time comparison.
    #[derive(Clone, Debug)]
    pub struct StageRow {
        /// Stage name (top-level stages only).
        pub name: String,
        /// Baseline wall time; `None` when absent or stripped to 0.
        pub baseline_wall_us: Option<u64>,
        /// Current wall time.
        pub current_wall_us: u64,
        /// `current / baseline`, when comparable.
        pub ratio: Option<f64>,
        /// Whether the ratio breached the threshold.
        pub regressed: bool,
    }

    /// An optional report section skipped wholesale: one report carries
    /// it, the other does not (or they are not comparable). Structured
    /// so CI can route "section missing" separately from a hard count
    /// mismatch — a baseline captured before a section existed must not
    /// fail the comparison.
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub struct SectionSkip {
        /// Section key in the report document (e.g. `"ingest"`).
        pub section: String,
        /// Why the section was not compared.
        pub reason: String,
    }

    impl SectionSkip {
        fn new(section: &str, reason: &str) -> Self {
            SectionSkip { section: section.to_string(), reason: reason.to_string() }
        }
    }

    /// Everything `lpr-bench compare` decides and reports.
    #[derive(Clone, Debug, Default)]
    pub struct Outcome {
        /// Per-stage wall-time rows, in current-report stage order.
        pub stages: Vec<StageRow>,
        /// Human-readable regression lines (threshold breaches).
        pub regressions: Vec<String>,
        /// Strict count mismatches (always failures).
        pub mismatches: Vec<String>,
        /// Row-level comparisons skipped for lack of a baseline
        /// measurement.
        pub skipped: Vec<String>,
        /// Whole optional sections skipped with a structured reason
        /// (never failures).
        pub sections_skipped: Vec<SectionSkip>,
    }

    impl Outcome {
        /// A comparison passes when nothing regressed or mismatched.
        pub fn passed(&self) -> bool {
            self.regressions.is_empty() && self.mismatches.is_empty()
        }

        /// The diff document CI uploads as an artifact.
        pub fn to_json(&self, threshold: f64) -> String {
            let stages = self
                .stages
                .iter()
                .map(|row| {
                    JsonValue::Object(vec![
                        ("name".to_string(), JsonValue::Str(row.name.clone())),
                        (
                            "baseline_wall_us".to_string(),
                            match row.baseline_wall_us {
                                Some(us) => JsonValue::Int(us as i128),
                                None => JsonValue::Null,
                            },
                        ),
                        (
                            "current_wall_us".to_string(),
                            JsonValue::Int(row.current_wall_us as i128),
                        ),
                        (
                            "ratio".to_string(),
                            match row.ratio {
                                Some(r) => JsonValue::Float(r),
                                None => JsonValue::Null,
                            },
                        ),
                        ("regressed".to_string(), JsonValue::Bool(row.regressed)),
                    ])
                })
                .collect();
            let strs = |items: &[String]| {
                JsonValue::Array(items.iter().map(|s| JsonValue::Str(s.clone())).collect())
            };
            JsonValue::Object(vec![
                ("bench".to_string(), JsonValue::Str("compare".to_string())),
                ("threshold".to_string(), JsonValue::Float(threshold)),
                ("passed".to_string(), JsonValue::Bool(self.passed())),
                ("stages".to_string(), JsonValue::Array(stages)),
                ("regressions".to_string(), strs(&self.regressions)),
                ("mismatches".to_string(), strs(&self.mismatches)),
                ("skipped".to_string(), strs(&self.skipped)),
                (
                    "sections_skipped".to_string(),
                    JsonValue::Array(
                        self.sections_skipped
                            .iter()
                            .map(|s| {
                                JsonValue::Object(vec![
                                    (
                                        "section".to_string(),
                                        JsonValue::Str(s.section.clone()),
                                    ),
                                    ("reason".to_string(), JsonValue::Str(s.reason.clone())),
                                ])
                            })
                            .collect(),
                    ),
                ),
            ])
            .render_pretty()
        }
    }

    fn telemetry_of(report: &JsonValue) -> Option<&JsonValue> {
        report.get("telemetry")
    }

    /// Top-level `(name, wall_us, input, output)` stage rows of a
    /// report, in document order; worker rows (`worker0/...`) excluded.
    fn stage_rows(report: &JsonValue) -> Vec<(String, u64, u64, u64)> {
        let Some(items) = telemetry_of(report)
            .and_then(|t| t.get("stages"))
            .and_then(|s| s.as_array())
        else {
            return Vec::new();
        };
        items
            .iter()
            .filter_map(|s| {
                let name = s.get("name")?.as_str()?.to_string();
                if name.contains('/') {
                    return None;
                }
                Some((
                    name,
                    s.get("wall_us")?.as_u64()?,
                    s.get("input")?.as_u64()?,
                    s.get("output")?.as_u64()?,
                ))
            })
            .collect()
    }

    fn counters_of(report: &JsonValue) -> Vec<(String, u64)> {
        let Some(counters) =
            telemetry_of(report).and_then(|t| t.get("counters")).and_then(|c| c.as_object())
        else {
            return Vec::new();
        };
        counters.iter().filter_map(|(name, v)| Some((name.clone(), v.as_u64()?))).collect()
    }

    fn alloc_rows(report: &JsonValue) -> Vec<(String, u64)> {
        let Some(allocs) = report.get("allocations").and_then(|a| a.as_object()) else {
            return Vec::new();
        };
        allocs
            .iter()
            .filter_map(|(name, v)| Some((name.clone(), v.get("allocs")?.as_u64()?)))
            .collect()
    }

    /// Diffs `current` against `baseline` with a relative wall-time
    /// regression `threshold` (0.5 = fail past 1.5× the baseline).
    pub fn run(current: &JsonValue, baseline: &JsonValue, threshold: f64) -> Outcome {
        let mut outcome = Outcome::default();
        let limit = 1.0 + threshold;

        let base_stages = stage_rows(baseline);
        let base_by_name: std::collections::BTreeMap<&str, (u64, u64, u64)> = base_stages
            .iter()
            .map(|(name, wall, input, output)| (name.as_str(), (*wall, *input, *output)))
            .collect();
        for (name, wall, input, output) in stage_rows(current) {
            let Some(&(base_wall, base_input, base_output)) = base_by_name.get(name.as_str())
            else {
                outcome.skipped.push(format!("{name}: stage absent from baseline"));
                continue;
            };
            if input != base_input || output != base_output {
                outcome.mismatches.push(format!(
                    "{name}: counts {input} -> {output} differ from baseline \
                     {base_input} -> {base_output}"
                ));
            }
            if base_wall == 0 {
                outcome.skipped.push(format!("{name}: baseline carries no wall time"));
                outcome.stages.push(StageRow {
                    name,
                    baseline_wall_us: None,
                    current_wall_us: wall,
                    ratio: None,
                    regressed: false,
                });
                continue;
            }
            let ratio = wall.max(1) as f64 / base_wall as f64;
            let regressed = ratio > limit;
            if regressed {
                outcome.regressions.push(format!(
                    "{name}: wall {wall} us is {ratio:.2}x the baseline {base_wall} us \
                     (limit {limit:.2}x)"
                ));
            }
            outcome.stages.push(StageRow {
                name,
                baseline_wall_us: Some(base_wall),
                current_wall_us: wall,
                ratio: Some(ratio),
                regressed,
            });
        }

        for key in ["iotps", "lsps_in"] {
            match (
                current.get(key).and_then(|v| v.as_u64()),
                baseline.get(key).and_then(|v| v.as_u64()),
            ) {
                (Some(cur), Some(base)) if cur != base => outcome
                    .mismatches
                    .push(format!("{key}: {cur} differs from baseline {base}")),
                (Some(_), Some(_)) => {}
                _ => outcome.skipped.push(format!("{key}: absent from one report")),
            }
        }

        let base_counters: std::collections::BTreeMap<String, u64> =
            counters_of(baseline).into_iter().collect();
        for (name, value) in counters_of(current) {
            if let Some(&base) = base_counters.get(&name) {
                if value != base {
                    outcome.mismatches.push(format!(
                        "counter {name}: {value} differs from baseline {base}"
                    ));
                }
            }
        }

        let base_allocs: std::collections::BTreeMap<String, u64> =
            alloc_rows(baseline).into_iter().collect();
        for (name, allocs) in alloc_rows(current) {
            let Some(&base) = base_allocs.get(&name) else { continue };
            if base == 0 {
                outcome.skipped.push(format!("{name}: baseline carries no allocations"));
                continue;
            }
            let ratio = allocs as f64 / base as f64;
            if ratio > limit {
                outcome.regressions.push(format!(
                    "{name}: {allocs} allocations is {ratio:.2}x the baseline {base} \
                     (limit {limit:.2}x)"
                ));
            }
        }

        // Deterministic out-of-core ingest counts: corpus shape and
        // trace/LSP tallies must match exactly when both reports ran
        // the ingest phase at the same scale. Rates, walls and peak
        // memory in the same section are measurements, never compared.
        match (
            current.get("ingest").filter(|v| v.as_object().is_some()),
            baseline.get("ingest").filter(|v| v.as_object().is_some()),
        ) {
            (Some(cur), Some(base)) => {
                let scale = |v: &JsonValue| v.get("scale").and_then(|s| s.as_u64());
                if scale(cur) != scale(base) {
                    outcome
                        .sections_skipped
                        .push(SectionSkip::new("ingest", "reports ran at different --scale"));
                } else {
                    for key in
                        ["corpus_files", "corpus_bytes", "corpus_records", "traces", "lsps_in"]
                    {
                        match (
                            cur.get(key).and_then(|v| v.as_u64()),
                            base.get(key).and_then(|v| v.as_u64()),
                        ) {
                            (Some(c), Some(b)) if c != b => outcome.mismatches.push(format!(
                                "ingest.{key}: {c} differs from baseline {b}"
                            )),
                            (Some(_), Some(_)) => {}
                            _ => outcome
                                .skipped
                                .push(format!("ingest.{key}: absent from one report")),
                        }
                    }
                }
            }
            (None, None) => {}
            (Some(_), None) => outcome
                .sections_skipped
                .push(SectionSkip::new("ingest", "absent from baseline report")),
            (None, Some(_)) => outcome
                .sections_skipped
                .push(SectionSkip::new("ingest", "absent from current report")),
        }

        // Probe-budget accounting: campaigns are deterministic for a
        // given strategy, so every count in the section must match
        // exactly; only the derived probes-per-destination rate is
        // ratio-checked (it is where a budget regression shows even if
        // the campaign shape legitimately changed size).
        match (
            current.get("probing").filter(|v| v.as_object().is_some()),
            baseline.get("probing").filter(|v| v.as_object().is_some()),
        ) {
            (Some(cur), Some(base)) => {
                let strategy = |v: &JsonValue| {
                    v.get("strategy").and_then(|s| s.as_str()).map(str::to_string)
                };
                if strategy(cur) != strategy(base) {
                    outcome.sections_skipped.push(SectionSkip::new(
                        "probing",
                        "reports used different probing strategies",
                    ));
                } else {
                    for key in [
                        "pairs_total",
                        "pairs_probed",
                        "pairs_pruned",
                        "flows_traced",
                        "probes_sent",
                        "confirmations",
                    ] {
                        match (
                            cur.get(key).and_then(|v| v.as_u64()),
                            base.get(key).and_then(|v| v.as_u64()),
                        ) {
                            (Some(c), Some(b)) if c != b => outcome.mismatches.push(format!(
                                "probing.{key}: {c} differs from baseline {b}"
                            )),
                            (Some(_), Some(_)) => {}
                            _ => outcome
                                .skipped
                                .push(format!("probing.{key}: absent from one report")),
                        }
                    }
                    match (
                        cur.get("probes_per_dst").and_then(|v| v.as_f64()),
                        base.get("probes_per_dst").and_then(|v| v.as_f64()),
                    ) {
                        (Some(c), Some(b)) if b > 0.0 => {
                            if c > b * limit {
                                outcome.regressions.push(format!(
                                    "probing.probes_per_dst: {c:.2} is over {limit:.2}x \
                                     the baseline {b:.2}"
                                ));
                            }
                        }
                        (Some(_), Some(_)) | (None, None) => {}
                        _ => outcome
                            .skipped
                            .push("probing.probes_per_dst: absent from one report".to_string()),
                    }
                }
            }
            (None, None) => {}
            (Some(_), None) => outcome
                .sections_skipped
                .push(SectionSkip::new("probing", "absent from baseline report")),
            (None, Some(_)) => outcome
                .sections_skipped
                .push(SectionSkip::new("probing", "absent from current report")),
        }

        match (
            current.get("campaign_share").and_then(|v| v.as_f64()),
            baseline.get("campaign_share").and_then(|v| v.as_f64()),
        ) {
            (Some(cur), Some(base)) if base > 0.0 => {
                if cur > base * limit {
                    outcome.regressions.push(format!(
                        "campaign_share: {cur:.3} is over {limit:.2}x the baseline \
                         {base:.3}"
                    ));
                }
            }
            _ => outcome
                .sections_skipped
                .push(SectionSkip::new("campaign_share", "no baseline measurement")),
        }

        outcome
    }

    /// Strips the nondeterministic measurements out of a report,
    /// producing the committable baseline form: stage and total wall
    /// times zeroed, throughput nulled, sweep timings, allocation
    /// tallies, SPF cache stats and `campaign_share` removed, and the
    /// `"ingest"` section's rates/walls/peak-memory readings (plus the
    /// elide check's allocation tallies) nulled. Counts, counters, the
    /// golden fingerprint and the whole `"probing"` section stay —
    /// probe budgets are deterministic for a campaign shape — as they
    /// are the deterministic contract `compare` checks strictly.
    pub fn strip_nondeterministic(report: &JsonValue) -> JsonValue {
        let Some(fields) = report.as_object() else {
            return report.clone();
        };
        let kept: Vec<(String, JsonValue)> = fields
            .iter()
            .filter(|(key, _)| {
                !matches!(
                    key.as_str(),
                    "campaign_share"
                        | "allocations"
                        | "thread_sweep"
                        | "campaign_sweep"
                        | "spf_cache"
                )
            })
            .map(|(key, value)| {
                let value = match key.as_str() {
                    "telemetry" => zero_telemetry_walls(value),
                    "throughput_per_s" => JsonValue::Object(
                        value
                            .as_object()
                            .map(|m| m.iter().map(|(k, _)| (k.clone(), JsonValue::Null)).collect())
                            .unwrap_or_default(),
                    ),
                    "ingest" => null_ingest_measurements(value),
                    "unsupported_elide" => null_fields(
                        value,
                        &["kept_alloc_bytes", "elided_alloc_bytes"],
                    ),
                    _ => value.clone(),
                };
                (key.clone(), value)
            })
            .collect();
        JsonValue::Object(kept)
    }

    /// Nulls the measurement fields of the `"ingest"` section, keeping
    /// its deterministic corpus/trace/LSP counts for strict comparison.
    fn null_ingest_measurements(ingest: &JsonValue) -> JsonValue {
        null_fields(
            ingest,
            &["wall_us", "traces_per_s", "bytes_per_s", "peak_resident_bytes", "peak_heap_bytes"],
        )
    }

    fn null_fields(value: &JsonValue, nulled: &[&str]) -> JsonValue {
        let Some(fields) = value.as_object() else {
            return value.clone();
        };
        JsonValue::Object(
            fields
                .iter()
                .map(|(key, v)| {
                    let v = if nulled.contains(&key.as_str()) { JsonValue::Null } else { v.clone() };
                    (key.clone(), v)
                })
                .collect(),
        )
    }

    fn zero_telemetry_walls(telemetry: &JsonValue) -> JsonValue {
        let Some(fields) = telemetry.as_object() else {
            return telemetry.clone();
        };
        JsonValue::Object(
            fields
                .iter()
                .map(|(key, value)| {
                    let value = match key.as_str() {
                        "total_wall_us" => JsonValue::Int(0),
                        "stages" => JsonValue::Array(
                            value
                                .as_array()
                                .map(|stages| stages.iter().map(zero_stage_wall).collect())
                                .unwrap_or_default(),
                        ),
                        _ => value.clone(),
                    };
                    (key.clone(), value)
                })
                .collect(),
        )
    }

    fn zero_stage_wall(stage: &JsonValue) -> JsonValue {
        let Some(fields) = stage.as_object() else {
            return stage.clone();
        };
        JsonValue::Object(
            fields
                .iter()
                .map(|(key, value)| {
                    let value =
                        if key == "wall_us" { JsonValue::Int(0) } else { value.clone() };
                    (key.clone(), value)
                })
                .collect(),
        )
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

    #[test]
    fn throughput_cells_agree_across_renderings() {
        // 0-µs stage: no measurable rate in either form.
        assert_eq!(throughput_cell(0, 1000), None);
        assert_eq!(throughput_text(0, 1000), "n/a");
        assert_eq!(throughput_json(0, 1000), JsonValue::Null);
        // A measurable stage: 500 items in half a second.
        assert_eq!(throughput_cell(500_000, 500), Some(1000.0));
        assert_eq!(throughput_text(500_000, 500), "1000");
        assert_eq!(throughput_json(500_000, 500), JsonValue::Float(1000.0));
    }

    #[test]
    fn speedup_handles_zero_and_reference_rows() {
        // The single-thread reference row compares against itself.
        assert_eq!(speedup(840, 840), 1.0);
        // 0-µs walls saturate to 1 µs instead of dividing by zero.
        assert_eq!(speedup(0, 0), 1.0);
        assert_eq!(speedup(0, 4), 0.25);
        assert_eq!(speedup(8, 0), 8.0);
        assert_eq!(speedup(900, 300), 3.0);
    }

    fn sample_report(classify_wall: u64) -> json::JsonValue {
        json::parse(&format!(
            r#"{{
              "bench": "pipeline",
              "iotps": 12,
              "lsps_in": 48,
              "campaign_share": 0.4,
              "telemetry": {{
                "label": "t",
                "total_wall_us": {total},
                "threads": 1,
                "stages": [
                  {{"name": "Ingest", "wall_us": 100, "input": 60, "output": 48}},
                  {{"name": "Classification", "wall_us": {classify_wall}, "input": 48, "output": 12}},
                  {{"name": "worker0/Ingest", "wall_us": 90, "input": 60, "output": 48}}
                ],
                "counters": {{"pipeline.traces": 60, "pipeline.traces_kept": 60}}
              }},
              "allocations": {{
                "Pipeline": {{"allocs": 1000, "bytes": 5000}}
              }}
            }}"#,
            total = 100 + classify_wall,
        ))
        .expect("sample parses")
    }

    #[test]
    fn self_compare_passes() {
        let report = sample_report(200);
        let outcome = compare::run(&report, &report, 0.5);
        assert!(outcome.passed(), "{outcome:?}");
        // Worker rows never enter the stage table.
        assert_eq!(outcome.stages.len(), 2);
        assert!(outcome.to_json(0.5).contains("\"passed\": true"));
    }

    #[test]
    fn doubled_stage_wall_is_flagged() {
        let baseline = sample_report(200);
        let outcome = compare::run(&sample_report(400), &baseline, 0.5);
        assert!(!outcome.passed());
        assert_eq!(outcome.regressions.len(), 1);
        assert!(outcome.regressions[0].starts_with("Classification:"));
        let row = outcome.stages.iter().find(|r| r.name == "Classification").unwrap();
        assert!(row.regressed && row.ratio == Some(2.0));
        assert!(outcome.to_json(0.5).contains("\"passed\": false"));
    }

    #[test]
    fn count_drift_is_a_mismatch_even_when_fast() {
        let baseline = sample_report(200);
        let text = sample_report(100).render_pretty().replace("\"iotps\": 12", "\"iotps\": 11");
        let outcome = compare::run(&json::parse(&text).unwrap(), &baseline, 10.0);
        assert!(!outcome.passed());
        assert!(outcome.mismatches.iter().any(|m| m.starts_with("iotps:")));
    }

    #[test]
    fn counter_drift_is_a_mismatch() {
        let baseline = sample_report(200);
        let text = sample_report(200)
            .render_pretty()
            .replace("\"pipeline.traces_kept\": 60", "\"pipeline.traces_kept\": 59");
        let outcome = compare::run(&json::parse(&text).unwrap(), &baseline, 10.0);
        assert!(!outcome.passed());
        assert!(outcome.mismatches.iter().any(|m| m.contains("pipeline.traces_kept")));
    }

    #[test]
    fn stripped_baseline_skips_wall_checks_but_keeps_counts() {
        let baseline = compare::strip_nondeterministic(&sample_report(200));
        // 10x slower than the (stripped) baseline: walls are skipped...
        let outcome = compare::run(&sample_report(2000), &baseline, 0.1);
        assert!(outcome.passed(), "{outcome:?}");
        assert!(outcome.stages.iter().all(|r| r.ratio.is_none() && !r.regressed));
        assert!(!outcome.skipped.is_empty());
        // ...but count drift still fails against the stripped form.
        let drifted = sample_report(200)
            .render_pretty()
            .replace("\"input\": 60,", "\"input\": 61,");
        let outcome = compare::run(&json::parse(&drifted).unwrap(), &baseline, 0.1);
        assert!(!outcome.passed());
    }

    fn sample_report_with_ingest(traces: u64, wall_us: u64) -> json::JsonValue {
        let base = sample_report(200).render_pretty();
        let with_ingest = base.replacen(
            "\"bench\": \"pipeline\",",
            &format!(
                r#""bench": "pipeline",
                "ingest": {{
                  "scale": 1,
                  "corpus_files": 4,
                  "corpus_bytes": 9000,
                  "corpus_records": 70,
                  "traces": {traces},
                  "lsps_in": 48,
                  "wall_us": {wall_us},
                  "traces_per_s": 123.0,
                  "bytes_per_s": 456.0,
                  "peak_resident_bytes": 1048576,
                  "peak_heap_bytes": 2048
                }},"#
            ),
            1,
        );
        json::parse(&with_ingest).expect("ingest sample parses")
    }

    #[test]
    fn missing_optional_section_is_a_structured_skip_not_a_failure() {
        // Baseline predates the ingest section: the comparison still
        // passes, and the absence is reported structurally (section +
        // reason), not as a count mismatch or a bare string.
        let outcome = compare::run(&sample_report_with_ingest(60, 100), &sample_report(200), 0.5);
        assert!(outcome.passed(), "{outcome:?}");
        assert_eq!(
            outcome.sections_skipped,
            vec![compare::SectionSkip {
                section: "ingest".to_string(),
                reason: "absent from baseline report".to_string(),
            }]
        );
        assert!(
            !outcome.skipped.iter().any(|s| s.starts_with("ingest")),
            "section-level skip must not leak into the row-level list: {outcome:?}"
        );
        let json = outcome.to_json(0.5);
        assert!(json.contains("\"sections_skipped\""), "{json}");
        assert!(json.contains("\"section\": \"ingest\""), "{json}");
        assert!(json.contains("\"reason\": \"absent from baseline report\""), "{json}");

        // The mirror direction names the other report.
        let outcome = compare::run(&sample_report(200), &sample_report_with_ingest(60, 100), 0.5);
        assert!(outcome.passed(), "{outcome:?}");
        assert_eq!(outcome.sections_skipped[0].reason, "absent from current report");
    }

    #[test]
    fn ingest_count_drift_is_a_mismatch_but_rates_are_not_compared() {
        let baseline = sample_report_with_ingest(60, 100);
        // Slower wall, same counts: passes.
        let outcome = compare::run(&sample_report_with_ingest(60, 99_000), &baseline, 0.1);
        assert!(outcome.passed(), "{outcome:?}");
        // Trace-count drift: strict failure.
        let outcome = compare::run(&sample_report_with_ingest(59, 100), &baseline, 10.0);
        assert!(!outcome.passed());
        assert!(outcome.mismatches.iter().any(|m| m.starts_with("ingest.traces:")));
    }

    #[test]
    fn stripped_ingest_keeps_counts_and_nulls_measurements() {
        let stripped = compare::strip_nondeterministic(&sample_report_with_ingest(60, 100));
        let ingest = stripped.get("ingest").expect("ingest survives the strip");
        assert_eq!(ingest.get("traces").and_then(|v| v.as_u64()), Some(60));
        assert_eq!(ingest.get("corpus_bytes").and_then(|v| v.as_u64()), Some(9000));
        for key in
            ["wall_us", "traces_per_s", "bytes_per_s", "peak_resident_bytes", "peak_heap_bytes"]
        {
            assert_eq!(ingest.get(key), Some(&JsonValue::Null), "{key} should be nulled");
        }
        // The stripped form still count-checks strictly against a drift.
        let outcome = compare::run(&sample_report_with_ingest(59, 100), &stripped, 10.0);
        assert!(!outcome.passed());
    }

    fn sample_report_with_probing(probes_sent: u64, probes_per_dst: f64) -> json::JsonValue {
        let base = sample_report(200).render_pretty();
        let with_probing = base.replacen(
            "\"bench\": \"pipeline\",",
            &format!(
                r#""bench": "pipeline",
                "probing": {{
                  "strategy": "mda-lite",
                  "pairs_total": 648,
                  "pairs_probed": 500,
                  "pairs_pruned": 148,
                  "flows_traced": 500,
                  "probes_sent": {probes_sent},
                  "confirmations": 0,
                  "probes_per_dst": {probes_per_dst}
                }},"#
            ),
            1,
        );
        json::parse(&with_probing).expect("probing sample parses")
    }

    #[test]
    fn probing_self_compare_passes_and_absence_is_a_structured_skip() {
        let report = sample_report_with_probing(4000, 6.17);
        let outcome = compare::run(&report, &report, 0.5);
        assert!(outcome.passed(), "{outcome:?}");
        assert!(outcome.sections_skipped.is_empty(), "{outcome:?}");

        // A baseline predating the section: structured skip, not a failure.
        let outcome = compare::run(&report, &sample_report(200), 0.5);
        assert!(outcome.passed(), "{outcome:?}");
        assert_eq!(
            outcome.sections_skipped,
            vec![compare::SectionSkip {
                section: "probing".to_string(),
                reason: "absent from baseline report".to_string(),
            }]
        );
    }

    #[test]
    fn doubled_probe_budget_is_a_regression() {
        let baseline = sample_report_with_probing(4000, 6.17);
        // Exact-count drift: strict mismatch even at a huge threshold.
        let outcome = compare::run(&sample_report_with_probing(8000, 6.17), &baseline, 10.0);
        assert!(!outcome.passed());
        assert!(outcome.mismatches.iter().any(|m| m.starts_with("probing.probes_sent:")));
        // The derived rate alone doubling: a threshold regression.
        let outcome = compare::run(&sample_report_with_probing(4000, 12.34), &baseline, 0.5);
        assert!(!outcome.passed());
        assert!(
            outcome.regressions.iter().any(|r| r.starts_with("probing.probes_per_dst:")),
            "{outcome:?}"
        );
    }

    #[test]
    fn probing_strategy_mismatch_is_a_structured_skip() {
        let baseline = sample_report_with_probing(4000, 6.17);
        let text = sample_report_with_probing(9999, 99.0)
            .render_pretty()
            .replace("\"strategy\": \"mda-lite\"", "\"strategy\": \"exhaustive\"");
        let outcome = compare::run(&json::parse(&text).unwrap(), &baseline, 0.5);
        // Different strategies are not comparable: no count mismatch.
        assert!(outcome.passed(), "{outcome:?}");
        assert_eq!(outcome.sections_skipped[0].section, "probing");
        assert_eq!(
            outcome.sections_skipped[0].reason,
            "reports used different probing strategies"
        );
    }

    #[test]
    fn strip_keeps_the_probing_section_wholesale() {
        let stripped =
            compare::strip_nondeterministic(&sample_report_with_probing(4000, 6.17));
        let probing = stripped.get("probing").expect("probing survives the strip");
        assert_eq!(probing.get("probes_sent").and_then(|v| v.as_u64()), Some(4000));
        assert_eq!(probing.get("probes_per_dst").and_then(|v| v.as_f64()), Some(6.17));
        // The stripped form still count-checks strictly.
        let outcome = compare::run(&sample_report_with_probing(3999, 6.17), &stripped, 10.0);
        assert!(!outcome.passed());
    }

    #[test]
    fn doubled_allocations_are_flagged() {
        let baseline = sample_report(200);
        let text =
            sample_report(200).render_pretty().replace("\"allocs\": 1000", "\"allocs\": 2500");
        let outcome = compare::run(&json::parse(&text).unwrap(), &baseline, 0.5);
        assert!(!outcome.passed());
        assert!(outcome.regressions.iter().any(|r| r.contains("allocations")));
    }
}
