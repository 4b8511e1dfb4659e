//! `experiments` reads its command line through `lpr_cli::flags`: an
//! unknown command or flag, or a bad `--trace-level`, exits 2 before
//! the world is built.

use std::process::Command;

/// Asserts `args` exits 2 with `needle` on stderr, having done no work.
fn rejects(args: &[&str], needle: &str) {
    let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(args)
        .env("LPR_RESULTS_DIR", std::env::temp_dir().join("experiments-flags-unused"))
        .output()
        .expect("run experiments");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(stderr.contains(needle), "{args:?} does not say `{needle}`:\n{stderr}");
    assert!(!stderr.contains("[world]"), "{args:?} built the world first:\n{stderr}");
}

#[test]
fn flag_errors_exit_2_before_any_work() {
    rejects(&["fig17", "--bogus"], "unknown flag --bogus");
    rejects(&["fig17", "--cycles", "abc"], "unknown flag --cycles");
    rejects(&["fig17", "--trace-level", "loud"], "--trace-level `loud`");
    rejects(&["fig17", "--trace-out"], "--trace-out wants a value");
    rejects(&["fig99"], "unknown command `fig99`");
    rejects(&["fig5", "fig6"], "unknown flag fig6");
}
