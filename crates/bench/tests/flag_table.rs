//! The flag table, the help text and the binary agree: every declared
//! flag is in the help text and nothing else is, and every flag error —
//! an unknown or removed flag, a missing value, an out-of-range value —
//! exits 2 before any work starts.

use lpr_bench::{usage, COMMANDS};
use lpr_cli::flags::{Kind, Positional};
use std::collections::BTreeSet;
use std::process::{Command, Output};

fn run(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_lpr-bench")).args(args).output().expect("run lpr-bench")
}

/// Asserts `args` exits 2 with `needle` on stderr.
fn rejects(args: &[&str], needle: &str) {
    let out = run(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
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

#[test]
fn the_help_text_lists_exactly_the_table() {
    let text = usage();
    let help = run(&["help"]);
    assert_eq!(help.status.code(), Some(0));
    assert_eq!(String::from_utf8_lossy(&help.stdout), format!("{text}\n"));
    let declared: BTreeSet<&str> =
        COMMANDS.iter().flat_map(|c| c.flags.iter().map(|f| f.name)).collect();
    for c in COMMANDS {
        let section = text
            .split("\nlpr-bench ")
            .find(|s| s.split_whitespace().next() == Some(c.name))
            .unwrap_or_else(|| panic!("no help section for {}", c.name));
        for f in c.flags {
            let line = format!("\n  {} ", f.name);
            assert!(section.contains(&line), "{} {} is not in its help section", c.name, f.name);
        }
    }
    let mentioned: BTreeSet<&str> = text
        .split(|ch: char| !(ch.is_ascii_alphanumeric() || ch == '-'))
        .filter(|word| word.starts_with("--") && word.len() > 2)
        .collect();
    let undeclared: Vec<_> = mentioned.difference(&declared).collect();
    assert!(undeclared.is_empty(), "the help text names flags outside the table: {undeclared:?}");
}

#[test]
fn every_flag_error_exits_2() {
    for c in COMMANDS {
        // The positional is given, so each error below comes from the flag.
        let positional = (c.positional != Positional::None).then_some("x");
        let lead: Vec<&str> = [c.name].into_iter().chain(positional).collect();
        rejects(&[&lead[..], &["--no-such-flag"]].concat(), "unknown flag --no-such-flag");
        for f in c.flags.iter().filter(|f| f.kind != Kind::Switch) {
            rejects(&[&lead[..], &[f.name]].concat(), "wants a value");
            if let Some(bad) = out_of_range(f.kind) {
                rejects(&[&lead[..], &[f.name, &bad]].concat(), &format!("{} `{bad}`", f.name));
            }
        }
    }
    rejects(&["compare", "--against", "x"], "compare wants <current.json>");
}

#[test]
fn removed_flags_and_subcommands_exit_2() {
    rejects(&["pipeline", "--threads-sweep"], "unknown flag --threads-sweep");
    rejects(&["pipeline", "--alloc"], "unknown flag --alloc");
    rejects(&["compare", "--threshold", "0.5"], "unknown flag --threshold");
    rejects(&["compare", "x", "--diff-out", "diff.json"], "unknown flag --diff-out");
    rejects(&["baseline"], "unknown subcommand `baseline`");
    // Values every use ran at one setting are constants of their command.
    for line in [
        &["pipeline", "--snapshots", "3"][..],
        &["pipeline", "--cycle", "40"],
        &["mda", "--cycle", "40"],
        &["revelation", "--cycle", "40"],
        &["revelation", "--mix", "explicit:0.4,implicit:0.2,invisible:0.2,opaque:0.2"],
        &["chaos", "--seed", "42"],
        &["chaos", "--rates", "0,0.02,0.05,0.1"],
        &["chaos", "--snapshots", "3"],
        &["chaos", "--cycle", "40"],
        &["chaos", "--drift-bound", "0.5"],
        &["serve", "--cycles", "5"],
        &["serve", "--chaos-rate", "0.1"],
        &["serve", "--seed", "1"],
        &["serve", "--threads", "1"],
        &["serve", "--keep-spool"],
    ] {
        rejects(line, &format!("unknown flag {}", line[1]));
    }
}
