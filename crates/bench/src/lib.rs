//! # lpr-bench — check-runner support
//!
//! This library holds the pieces of the `lpr-bench` binary that tests
//! reach: the golden campaign fingerprint every default-shape `lpr-bench
//! pipeline` run checks, the flag table every subcommand parses from
//! ([`cli`]) and the exact report comparison behind `lpr-bench compare`
//! ([`compare`]).

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
        let bytes = warts::encode_cycle(traces, "bench", 1, 0, 1).expect("encode");
        combined ^= lpr_serve::fnv1a64(&bytes).rotate_left(snap as u32 * 21);
    }
    combined
}

pub mod cli {
    //! The flag table: every subcommand declares each of its flags once
    //! — name, value kind, default, bound and help line — and [`parse`]
    //! reads any command line against it. [`usage`] renders the flag
    //! lines of the help text from the same table.

    use std::fmt::Write as _;
    use Kind::*;

    /// How a flag's value is read, and the range it must fall in.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub enum Kind {
        /// Present or absent; takes no value.
        Switch,
        /// Any text (a path).
        Text,
        /// A whole number no smaller than `min`.
        Count { min: u64 },
        /// A number in [0, 1].
        Fraction,
        /// A number above 0.
        Positive,
        /// A comma-separated list of numbers in [0, 1].
        Fractions,
        /// A probing strategy (`netsim::ProbingStrategy::parse`).
        Probing,
        /// A trace event level (`lpr_obs::Level::parse`).
        Level,
        /// A tunnel-visibility mix (`netsim::VisibilityMix::parse`).
        Mix,
    }

    impl Kind {
        /// Whether `v` is a value of this kind, inside its bound.
        fn accepts(self, v: &str) -> bool {
            match self {
                Kind::Switch | Kind::Text => true,
                Kind::Count { min } => v.parse::<u64>().is_ok_and(|n| n >= min),
                Kind::Fraction => fraction(v).is_some(),
                Kind::Positive => v.parse::<f64>().is_ok_and(|f| f > 0.0),
                Kind::Fractions => v.split(',').all(|p| fraction(p).is_some()),
                Kind::Probing => netsim::ProbingStrategy::parse(v).is_some(),
                Kind::Level => lpr_obs::Level::parse(v).is_some(),
                Kind::Mix => netsim::VisibilityMix::parse(v).is_some(),
            }
        }

        /// The value's shape as USAGE spells it (empty for a switch).
        fn shape(self) -> &'static str {
            match self {
                Kind::Switch => "",
                Kind::Text => "PATH",
                Kind::Count { .. } => "N",
                Kind::Fraction | Kind::Positive => "F",
                Kind::Fractions => "F,F,...",
                Kind::Probing => "exhaustive|mda|mda-lite",
                Kind::Level => "debug|info|warn|error",
                Kind::Mix => "explicit:F,implicit:F,invisible:F,opaque:F",
            }
        }

        /// The bound as USAGE spells it, if the kind has one.
        fn bound(self) -> Option<String> {
            match self {
                Kind::Count { min } if min > 0 => Some(format!("N >= {min}")),
                Kind::Fraction => Some("F in [0, 1]".to_string()),
                Kind::Positive => Some("F > 0".to_string()),
                Kind::Fractions => Some("each in [0, 1]".to_string()),
                _ => None,
            }
        }
    }

    /// `v` as a number in [0, 1]; `None` for anything else, NaN included.
    pub fn fraction(v: &str) -> Option<f64> {
        v.trim().parse::<f64>().ok().filter(|f| (0.0..=1.0).contains(f))
    }

    /// One flag of one subcommand.
    #[derive(Debug)]
    pub struct Flag {
        /// The flag as typed, `--name`.
        pub name: &'static str,
        /// How its value is read and bounded.
        pub kind: Kind,
        /// The value used when the flag is not given; `None` leaves it
        /// unset (an optional gate, or a value the command requires).
        pub default: Option<&'static str>,
        /// USAGE's one-line description.
        pub help: &'static str,
    }

    const fn flag(
        name: &'static str,
        kind: Kind,
        default: Option<&'static str>,
        help: &'static str,
    ) -> Flag {
        Flag { name, kind, default, help }
    }

    /// One subcommand: its name, its positional argument (always
    /// required when declared), a short description and its flags.
    #[derive(Debug)]
    pub struct Command {
        pub name: &'static str,
        pub positional: Option<&'static str>,
        pub about: &'static str,
        pub flags: &'static [Flag],
    }

    /// Every subcommand `lpr-bench` runs, in USAGE order.
    pub const COMMANDS: &[Command] = &[
        Command {
            name: "pipeline",
            positional: None,
            about: "Generates a campaign (scale 1 holds the cycle in memory; larger scales
write it snapshot by snapshot), runs the LPR pipeline in memory and out
of core, and exits 1 unless every output is identical at threads
1/2/4/8 and the default-shape exhaustive campaign matches its golden
fingerprint. The report holds only values every run of the same command
repeats.",
            flags: &[
                flag("--out", Text, Some("BENCH_pipeline.json"), "report path"),
                flag("--snapshots", Count { min: 1 }, Some("3"), "snapshots per cycle"),
                flag("--cycle", Count { min: 0 }, Some("40"), "campaign cycle"),
                flag("--threads", Count { min: 1 }, Some("1"), "threads of the instrumented run"),
                flag("--scale", Count { min: 1 }, Some("1"), "world size multiplier"),
                flag("--probing", Probing, Some("exhaustive"), "campaign probing strategy"),
                flag(
                    "--max-campaign-share",
                    Fraction,
                    None,
                    "fail if GenerateCampaign takes more of the stage wall time",
                ),
                flag(
                    "--max-probes-per-dst",
                    Positive,
                    None,
                    "fail if the campaign sends more probes per destination",
                ),
                flag(
                    "--mem-ceiling-bytes",
                    Count { min: 0 },
                    None,
                    "fail if the ingest phase's peak resident bytes exceed N",
                ),
                flag("--trace-out", Text, None, "write a Chrome trace of the run"),
                flag("--trace-level", Level, Some("info"), "lowest traced event level"),
            ],
        },
        Command {
            name: "mda",
            positional: None,
            about: "MDA-Lite against the exhaustive oracle over whole campaigns. Exits 1
unless IOTP recall reaches 0.95, the MDA-Lite campaign is identical at
threads 1/2/4/8 and probes are saved. The probes-vs-recall curve is
`experiments mda`'s results/fig_mda_recall.csv.",
            flags: &[
                flag("--out", Text, Some("BENCH_mda.json"), "report path"),
                flag("--cycle", Count { min: 0 }, Some("40"), "campaign cycle"),
                flag("--hosts", Count { min: 1 }, Some("24"), "hosts per destination /24"),
                flag(
                    "--max-probes-per-dst",
                    Positive,
                    None,
                    "fail if MDA-Lite sends more probes per destination",
                ),
            ],
        },
        Command {
            name: "revelation",
            positional: None,
            about: "Plain LPR against LPR with revealed tunnels on one cycle. Exits 1
unless IOTPs rise, the Unclassified share does not grow, a tunnel is
revealed, DPR probes are counted and threads 1/2/4/8 agree.",
            flags: &[
                flag("--out", Text, Some("BENCH_revelation.json"), "report path"),
                flag("--cycle", Count { min: 0 }, Some("40"), "campaign cycle"),
                flag(
                    "--mix",
                    Mix,
                    Some("explicit:0.4,implicit:0.2,invisible:0.2,opaque:0.2"),
                    "tunnel-visibility mix",
                ),
            ],
        },
        Command {
            name: "chaos",
            positional: None,
            about: "Seeded fault rates over the golden campaign. Exits 1 if threads
1/2/4/8 disagree, kept + quarantined fails to reconcile, class-share
drift passes the bound, or faults fabricate revelation evidence.",
            flags: &[
                flag("--out", Text, Some("BENCH_chaos.json"), "report path"),
                flag("--seed", Count { min: 0 }, Some("42"), "fault seed"),
                flag("--rates", Fractions, Some("0,0.02,0.05,0.1"), "fault rates (0 always runs)"),
                flag("--snapshots", Count { min: 1 }, Some("3"), "snapshots per cycle"),
                flag("--cycle", Count { min: 0 }, Some("40"), "campaign cycle"),
                flag("--drift-bound", Fraction, Some("0.5"), "largest class-share drift"),
                flag("--trace-out", Text, None, "write a Chrome trace of the run"),
                flag("--trace-level", Level, Some("info"), "lowest traced event level"),
            ],
        },
        Command {
            name: "serve",
            positional: None,
            about: "Soaks a live `lpr serve` with clean and corrupted spool drops while 4
trickling connections stay open. Exits 1 unless the served snapshot
equals the batch pipeline over the clean files, every corrupted file is
quarantined with a reason, the tallies reconcile, no response is a 5xx
and every /healthz probe answers within 1 s.",
            flags: &[
                flag("--cycles", Count { min: 1 }, Some("5"), "campaign cycles dropped"),
                flag("--chaos-rate", Fraction, Some("0.1"), "per-record corruption rate"),
                flag("--seed", Count { min: 0 }, Some("1"), "campaign and corruption seed"),
                flag("--threads", Count { min: 1 }, Some("1"), "daemon and batch threads"),
                flag("--out", Text, Some("BENCH_serve.json"), "report path"),
                flag("--keep-spool", Switch, None, "leave the spool on disk"),
            ],
        },
        Command {
            name: "corrupt",
            positional: Some("in.warts"),
            about: "Writes a copy of a warts file with seeded byte corruption.",
            flags: &[
                flag("--out", Text, None, "output path (required)"),
                flag("--rate", Fraction, Some("0.1"), "per-record corruption rate"),
                flag("--seed", Count { min: 0 }, Some("1"), "corruption seed"),
            ],
        },
        Command {
            name: "compare",
            positional: Some("current.json"),
            about: "Exits 1 and prints each path if two reports differ anywhere.",
            flags: &[flag("--against", Text, None, "baseline report (required)")],
        },
    ];

    /// The command named `name`, if `lpr-bench` has one.
    pub fn command(name: &str) -> Option<&'static Command> {
        COMMANDS.iter().find(|c| c.name == name)
    }

    /// The help text: a header, then each command's description and
    /// one line per flag, rendered from [`COMMANDS`].
    pub fn usage() -> String {
        let mut out = String::from(
            "lpr-bench — deterministic checks of the LPR pipeline (wall-time \
             benchmarks live in perfbench/)\n\nUSAGE:\n  lpr-bench <command> [flags]\n  \
             lpr-bench help\n",
        );
        for c in COMMANDS {
            let positional = c.positional.map(|p| format!(" <{p}>")).unwrap_or_default();
            let _ = writeln!(out, "\nlpr-bench {}{positional}\n{}", c.name, c.about);
            for f in c.flags {
                let mut help = f.help.to_string();
                if let Some(bound) = f.kind.bound() {
                    let _ = write!(help, "; {bound}");
                }
                if let Some(default) = f.default {
                    let _ = write!(help, "; default {default}");
                }
                let head = format!("{} {}", f.name, f.kind.shape());
                let head = head.trim_end();
                if head.len() > 28 {
                    let _ = writeln!(out, "  {head}\n  {:<28} {help}", "");
                } else {
                    let _ = writeln!(out, "  {head:<28} {help}");
                }
            }
        }
        out
    }

    /// One command line, read against its command's flag table.
    #[derive(Debug)]
    pub struct Args {
        command: &'static Command,
        given: Vec<(&'static str, String)>,
        positional: Option<String>,
    }

    /// Reads `argv` (the words after the subcommand) against
    /// `command`'s table. An unknown flag, a flag without its value, a
    /// value of the wrong kind or out of bound, and a missing or second
    /// positional are errors.
    pub fn parse(command: &'static Command, argv: &[String]) -> Result<Args, String> {
        let mut args = Args { command, given: Vec::new(), positional: None };
        let mut words = argv.iter();
        while let Some(word) = words.next() {
            if let Some(f) = command.flags.iter().find(|f| f.name == word) {
                let value = match f.kind {
                    Kind::Switch => String::new(),
                    kind => {
                        let v = words.next().ok_or_else(|| format!("{word} wants a value"))?;
                        if !kind.accepts(v) {
                            let bound = kind.bound().unwrap_or_else(|| kind.shape().to_string());
                            return Err(format!("{word} `{v}`: wants {bound}"));
                        }
                        v.clone()
                    }
                };
                args.given.push((f.name, value));
            } else if command.positional.is_some()
                && args.positional.is_none()
                && !word.starts_with("--")
            {
                args.positional = Some(word.clone());
            } else {
                return Err(format!("unknown flag {word}"));
            }
        }
        match (command.positional, &args.positional) {
            (Some(name), None) => Err(format!("{} wants <{name}>", command.name)),
            _ => Ok(args),
        }
    }

    impl Args {
        /// The flag's value as given (the last one wins), else its
        /// default. Panics on a name the command does not declare.
        fn raw(&self, name: &str) -> Option<&str> {
            let Some(f) = self.command.flags.iter().find(|f| f.name == name) else {
                panic!("{} declares no flag {name}", self.command.name);
            };
            let given = self.given.iter().rev().find(|(n, _)| *n == name);
            given.map(|(_, v)| v.as_str()).or(f.default)
        }

        /// Whether a switch was given.
        pub fn on(&self, name: &str) -> bool {
            self.raw(name).is_some()
        }

        /// The flag's value as a `T`, or `None` when it was not given
        /// and has no default.
        pub fn get<T: std::str::FromStr>(&self, name: &str) -> Option<T> {
            self.raw(name).map(|v| match v.trim().parse() {
                Ok(t) => t,
                Err(_) => panic!("{name} `{v}` passed its kind check but does not parse"),
            })
        }

        /// The value of a flag that has a default.
        pub fn value<T: std::str::FromStr>(&self, name: &str) -> T {
            self.get(name).unwrap_or_else(|| panic!("{name} has no default"))
        }

        /// The positional argument; always present when the command
        /// declares one.
        pub fn positional(&self) -> Option<&str> {
            self.positional.as_deref()
        }
    }
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
