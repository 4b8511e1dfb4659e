//! The flag table, the help text and the `lpr` binary agree: every
//! declared flag is in the help text and nothing else is, every flag
//! error — an unknown or removed flag, a missing value, an out-of-range
//! value — exits 1 before any work starts, and each command refuses
//! every flag it does not read.

use lpr_cli::flags::{Kind, Positional};
use lpr_cli::COMMANDS;
use std::collections::{BTreeMap, BTreeSet};
use std::process::{Command, Output};

fn lpr(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_lpr")).args(args).output().expect("run lpr")
}

/// Asserts `args` exits 1 with `needle` on stderr.
fn rejects(args: &[&str], needle: &str) {
    let out = lpr(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
    assert!(stderr.contains(needle), "{args:?} does not say `{needle}`:\n{stderr}");
}

/// A value outside the kind's bound or shape; `None` when every word is
/// a value of the kind.
fn out_of_range(kind: Kind) -> Option<String> {
    match kind {
        Kind::Switch | Kind::Text => None,
        Kind::Count { min: 0 } => Some("-1".to_string()),
        Kind::Count { min } => Some((min - 1).to_string()),
        Kind::Fraction => Some("1.5".to_string()),
        Kind::Positive => Some("0".to_string()),
        Kind::Probing | Kind::Level | Kind::Mix => Some("bogus".to_string()),
    }
}

/// The command name, and a positional when it takes one: an input that
/// does not exist, so any work would fail on it.
fn lead(c: &lpr_cli::flags::Command) -> Vec<&'static str> {
    let positional = (c.positional != Positional::None).then_some("/no/such/input.warts");
    [c.name].into_iter().chain(positional).collect()
}

#[test]
fn the_help_text_lists_exactly_the_table() {
    let help = lpr(&["help"]);
    assert_eq!(help.status.code(), Some(0));
    let text = String::from_utf8_lossy(&help.stdout).into_owned();
    let declared: BTreeSet<&str> =
        COMMANDS.iter().flat_map(|c| c.flags.iter().map(|f| f.name)).collect();
    for c in COMMANDS {
        let section = text
            .split("\nlpr ")
            .find(|s| s.split_whitespace().next() == Some(c.name))
            .unwrap_or_else(|| panic!("no help section for {}", c.name));
        let section = section.split("\n\n").next().unwrap();
        let listed: BTreeSet<&str> = section
            .lines()
            .filter_map(|l| l.strip_prefix("  ")?.split_whitespace().next())
            .filter(|w| w.starts_with("--"))
            .collect();
        let own: BTreeSet<&str> = c.flags.iter().map(|f| f.name).collect();
        assert_eq!(listed, own, "{}'s help section", c.name);
    }
    let mentioned: BTreeSet<&str> = text
        .split(|ch: char| !(ch.is_ascii_alphanumeric() || ch == '-'))
        .filter(|word| word.starts_with("--") && word.len() > 2)
        .collect();
    let undeclared: Vec<_> = mentioned.difference(&declared).collect();
    assert!(undeclared.is_empty(), "the help text names flags outside the table: {undeclared:?}");
}

#[test]
fn every_flag_error_exits_1_before_any_work() {
    for c in COMMANDS {
        let lead = lead(c);
        rejects(&[&lead[..], &["--no-such-flag"]].concat(), "unknown flag --no-such-flag");
        for f in c.flags.iter().filter(|f| f.kind != Kind::Switch) {
            rejects(&[&lead[..], &[f.name]].concat(), "wants a value");
            if let Some(bad) = out_of_range(f.kind) {
                rejects(&[&lead[..], &[f.name, &bad]].concat(), &format!("{} `{bad}`", f.name));
            }
        }
        if let Positional::Many(name) = c.positional {
            rejects(&[c.name], &format!("{} wants <{name}>", c.name));
        }
    }
    rejects(&["frobnicate"], "unknown command `frobnicate`");
    // The persistence window is the number of --next files.
    rejects(&["classify", "a.warts", "--j", "2"], "unknown flag --j");
    rejects(&["classify", "a.warts", "--out-of-core"], "unknown flag --out-of-core");
    rejects(&["classify", "a.warts", "--keep-going", "--fail-fast"], "contradict");
}

#[test]
fn each_command_refuses_the_flags_it_does_not_read() {
    let all: BTreeMap<&str, Kind> =
        COMMANDS.iter().flat_map(|c| c.flags.iter().map(|f| (f.name, f.kind))).collect();
    for c in COMMANDS {
        for (&name, &kind) in all.iter().filter(|(n, _)| c.flags.iter().all(|f| f.name != **n)) {
            let value = (kind != Kind::Switch).then_some("1");
            let line: Vec<String> =
                lead(c).into_iter().chain([name]).chain(value).map(String::from).collect();
            let e = lpr_cli::run(&line, &mut Vec::new()).unwrap_err();
            assert_eq!(e.0, format!("unknown flag {name}"), "{line:?}");
        }
    }
}

#[test]
fn tunnels_refuses_metrics_and_writes_nothing() {
    let dir = std::env::temp_dir().join(format!("lpr-flags-tunnels-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let (warts, metrics) = (dir.join("demo.warts"), dir.join("m.json"));
    std::fs::write(&warts, lpr_cli::write_demo_files().0).unwrap();
    let (warts, metrics) = (warts.to_str().unwrap(), metrics.to_str().unwrap());
    rejects(&["tunnels", warts, "--metrics", metrics], "unknown flag --metrics");
    assert!(!dir.join("m.json").exists(), "a refused command line wrote --metrics");
    assert_eq!(lpr(&["tunnels", warts]).status.code(), Some(0));
    std::fs::remove_dir_all(&dir).ok();
}
