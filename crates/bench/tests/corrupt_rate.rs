//! `lpr-bench corrupt --rate` takes a per-record corruption rate: a
//! value outside [0, 1], NaN included, exits 2 and writes nothing.

use std::process::{Command, Output};

fn run(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_lpr-bench")).args(args).output().expect("run lpr-bench")
}

#[test]
fn corrupt_rate_outside_the_unit_interval_exits_2_and_writes_nothing() {
    let dir = std::env::temp_dir().join(format!("lpr-bench-corrupt-rate-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let mut writer = warts::WartsWriter::new();
    let list = writer.list(1, "rate");
    let cycle = writer.cycle_start(list, 1, 0);
    writer.cycle_stop(cycle, 1);
    let input = dir.join("in.warts");
    std::fs::write(&input, writer.into_bytes()).expect("write the input");
    let input = input.to_str().expect("utf-8 temp path");
    let output = dir.join("out.warts");
    let output = output.to_str().expect("utf-8 temp path");
    for rate in ["-0.2", "nan", "1.5"] {
        let out = run(&["corrupt", input, "--out", output, "--rate", rate]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "--rate {rate}: {stderr}");
        assert!(!std::path::Path::new(output).exists(), "--rate {rate} wrote {output}");
    }
    let ok = run(&["corrupt", input, "--out", output, "--rate", "0.3"]);
    assert_eq!(ok.status.code(), Some(0), "{}", String::from_utf8_lossy(&ok.stderr));
    let _ = std::fs::remove_dir_all(&dir);
}
