//! Exit-code taxonomy and degraded-input behaviour of the `lpr` CLI.
//!
//! A demo campaign is corrupted with `lpr-chaos` at the byte level and
//! fed back through `classify`/`stats`: strict mode must fail cleanly,
//! `--keep-going` must complete with the success-with-quarantine status
//! and telemetry that reconciles with the printed summary, and
//! `--fail-fast` must turn the degradation into a hard error.

use lpr_cli::{run, write_demo_files, RunStatus};

struct Tmp(std::path::PathBuf);

impl Tmp {
    fn new(tag: &str) -> Tmp {
        let dir =
            std::env::temp_dir().join(format!("lpr-degraded-test-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        Tmp(dir)
    }

    fn path(&self, name: &str) -> String {
        self.0.join(name).to_string_lossy().into_owned()
    }
}

impl Drop for Tmp {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn s(v: &[&str]) -> Vec<String> {
    v.iter().map(|x| x.to_string()).collect()
}

/// Writes the demo campaign plus a byte-corrupted copy; returns
/// `(clean.warts, corrupt.warts, rib.txt)`.
fn corrupted_demo(tmp: &Tmp, seed: u64, rate: f64) -> (String, String, String) {
    let (bytes, rib) = write_demo_files();
    let (corrupted, counts) = lpr_chaos::corrupt_warts_bytes(&bytes, seed, rate);
    assert!(counts.total() > 0, "corruption must land for the test to mean anything");
    let clean = tmp.path("clean.warts");
    let bad = tmp.path("corrupt.warts");
    let ribf = tmp.path("rib.txt");
    std::fs::write(&clean, &bytes).unwrap();
    std::fs::write(&bad, &corrupted).unwrap();
    std::fs::write(&ribf, rib).unwrap();
    (clean, bad, ribf)
}

#[test]
fn clean_input_exits_clean() {
    let tmp = Tmp::new("clean");
    let (clean, _, rib) = corrupted_demo(&tmp, 11, 0.2);
    let mut buf = Vec::new();
    let status = run(&s(&["classify", "--rib", &rib, &clean]), &mut buf).unwrap();
    assert_eq!(status, RunStatus::Clean);
    assert_eq!(status.exit_code(), 0);
    assert!(!String::from_utf8(buf).unwrap().contains("input degraded"));
}

#[test]
fn corrupt_input_is_fatal_in_strict_mode() {
    let tmp = Tmp::new("strict");
    let (_, bad, rib) = corrupted_demo(&tmp, 12, 0.3);
    let mut buf = Vec::new();
    let e = run(&s(&["classify", "--rib", &rib, &bad]), &mut buf).unwrap_err();
    assert!(e.to_string().contains("corrupt.warts"), "{e}");
}

#[test]
fn keep_going_completes_with_quarantine_status() {
    let tmp = Tmp::new("keepgoing");
    let (_, bad, rib) = corrupted_demo(&tmp, 13, 0.25);
    let mut buf = Vec::new();
    let status =
        run(&s(&["classify", "--rib", &rib, &bad, "--keep-going"]), &mut buf).unwrap();
    assert_eq!(status, RunStatus::Degraded);
    assert_eq!(status.exit_code(), 3);
    let text = String::from_utf8(buf).unwrap();
    assert!(text.contains("input degraded (exit code 3)"), "{text}");
    assert!(text.contains("skipped records:"), "{text}");
}

#[test]
fn fail_fast_makes_degradation_fatal() {
    let tmp = Tmp::new("failfast");
    let (_, bad, rib) = corrupted_demo(&tmp, 13, 0.25);
    // The same corruption that --keep-going survives: strict decode
    // already errors here, so exercise --fail-fast through stats too.
    let mut buf = Vec::new();
    let e = run(&s(&["stats", "--rib", &rib, &bad, "--fail-fast"]), &mut buf).unwrap_err();
    assert!(!e.to_string().is_empty());
}

#[test]
fn keep_going_and_fail_fast_conflict() {
    let mut buf = Vec::new();
    let e = run(
        &s(&["classify", "--rib", "r", "x.warts", "--keep-going", "--fail-fast"]),
        &mut buf,
    )
    .unwrap_err();
    assert!(e.to_string().contains("contradict"), "{e}");
}

#[test]
fn keep_going_on_clean_input_is_clean_and_identical() {
    let tmp = Tmp::new("lenient-clean");
    let (clean, _, rib) = corrupted_demo(&tmp, 14, 0.2);
    let render = |extra: &[&str]| {
        let mut args = s(&["classify", "--rib", &rib, &clean]);
        args.extend(s(extra));
        let mut buf = Vec::new();
        let status = run(&args, &mut buf).unwrap();
        (status, String::from_utf8(buf).unwrap())
    };
    let (strict_status, strict_out) = render(&[]);
    let (lenient_status, lenient_out) = render(&["--keep-going"]);
    assert_eq!(strict_status, RunStatus::Clean);
    assert_eq!(lenient_status, RunStatus::Clean);
    assert_eq!(strict_out, lenient_out, "lenient mode is a no-op on clean input");
}

#[test]
fn lenient_telemetry_reconciles_with_skip_summary() {
    let tmp = Tmp::new("telemetry");
    let (_, bad, rib) = corrupted_demo(&tmp, 15, 0.25);
    let metrics = tmp.path("telemetry.json");
    let mut buf = Vec::new();
    let status = run(
        &s(&["classify", "--rib", &rib, &bad, "--keep-going", "--metrics", &metrics]),
        &mut buf,
    )
    .unwrap();
    assert_eq!(status, RunStatus::Degraded);

    let telemetry =
        lpr_obs::RunTelemetry::from_json(&std::fs::read_to_string(&metrics).unwrap()).unwrap();

    // Per-reason warts.skip.* counters sum to warts.malformed_records,
    // and the same numbers drive the run's degraded status.
    let per_reason: u64 =
        warts::SkipReason::ALL.iter().map(|r| telemetry.counter(r.counter_name())).sum();
    assert!(per_reason > 0, "corruption at 25% must skip something");
    assert_eq!(per_reason, telemetry.counter("warts.malformed_records"));
    assert_eq!(per_reason, telemetry.counter_sum("warts.skip."));

    // Decoded trace records reconcile with what the pipeline ingested:
    // every converted trace is either kept or quarantined.
    let ingested = telemetry.counter("pipeline.traces_kept")
        + telemetry.counter("pipeline.traces_quarantined");
    assert_eq!(ingested + telemetry.counter("cli.convert_failures"), telemetry.counter("warts.traces"));
    assert_eq!(ingested, telemetry.counter("pipeline.traces"));
}

#[test]
fn lenient_decode_is_deterministic_across_thread_counts() {
    let tmp = Tmp::new("lenient-threads");
    let (_, bad, rib) = corrupted_demo(&tmp, 16, 0.2);
    let render = |threads: &str| {
        let mut buf = Vec::new();
        let status = run(
            &s(&["classify", "--rib", &rib, &bad, "--keep-going", "--threads", threads]),
            &mut buf,
        )
        .unwrap();
        (status, String::from_utf8(buf).unwrap())
    };
    let (seq_status, seq_out) = render("1");
    for threads in ["2", "4", "8"] {
        let (st, out) = render(threads);
        assert_eq!(st, seq_status, "--threads {threads}");
        assert_eq!(out, seq_out, "--threads {threads}");
    }
}

/// What the `lpr` binary would exit with, and what it printed.
fn exit_and_stdout(args: &[String]) -> (i32, String) {
    let mut buf = Vec::new();
    let code = run(args, &mut buf).map_or(1, RunStatus::exit_code);
    (code, String::from_utf8(buf).unwrap())
}

/// `lpr classify <args>` in memory, then with `--out-of-core`.
fn classify_both_ways(args: &[&str]) -> [(i32, String); 2] {
    let mut args = s(&[&["classify"], args].concat());
    let in_memory = exit_and_stdout(&args);
    args.push("--out-of-core".to_string());
    [in_memory, exit_and_stdout(&args)]
}

#[test]
fn in_memory_and_out_of_core_agree_on_corrupt_input() {
    for seed in [7, 42, 99, 1234] {
        let tmp = Tmp::new(&format!("agree-{seed}"));
        let (_, bad, rib) = corrupted_demo(&tmp, seed, 0.25);
        let [in_memory, out_of_core] = classify_both_ways(&["--rib", &rib, &bad, "--keep-going"]);
        assert_eq!(in_memory.0, 3, "seed {seed}: {}", in_memory.1);
        assert!(in_memory.1.contains("skipped records:"), "seed {seed}: {}", in_memory.1);
        assert_eq!(out_of_core, in_memory, "seed {seed}");
    }
}

#[test]
fn in_memory_and_out_of_core_agree_on_a_record_over_64_mib() {
    let tmp = Tmp::new("huge");
    let (mut bytes, rib) = write_demo_files();
    // A well-formed record of an unsupported type (tracelb), one byte
    // over the framer's 64 MiB bound.
    bytes.extend_from_slice(&warts::WARTS_MAGIC.to_be_bytes());
    bytes.extend_from_slice(&0x0Au16.to_be_bytes());
    bytes.extend_from_slice(&(warts::MAX_RECORD_LEN as u32 + 1).to_be_bytes());
    bytes.resize(bytes.len() + warts::MAX_RECORD_LEN + 1, 0);
    let (huge, ribf) = (tmp.path("huge.warts"), tmp.path("rib.txt"));
    std::fs::write(&huge, bytes).unwrap();
    std::fs::write(&ribf, rib).unwrap();

    let [in_memory, out_of_core] = classify_both_ways(&["--rib", &ribf, &huge]);
    assert_eq!((in_memory.0, out_of_core.0), (1, 1), "strict refuses it either way");
    let [in_memory, out_of_core] = classify_both_ways(&["--rib", &ribf, &huge, "--keep-going"]);
    assert_eq!(in_memory.0, 3, "{}", in_memory.1);
    assert_eq!(out_of_core, in_memory);
}

#[test]
fn set_aside_inputs_get_one_batch_verdict() {
    let tmp = Tmp::new("set-aside");
    let (bytes, rib) = write_demo_files();
    let (demo, cut, empty, ribf) =
        (tmp.path("demo.warts"), tmp.path("cut.warts"), tmp.path("empty.warts"), tmp.path("rib.txt"));
    std::fs::write(&demo, &bytes).unwrap();
    // A 3-byte cut record header: the tail of a file still being written.
    std::fs::write(&cut, [&bytes[..], &[0x12, 0x05, 0x00]].concat()).unwrap();
    std::fs::write(&empty, b"").unwrap();
    std::fs::write(&ribf, rib).unwrap();

    // An empty input contributes nothing and is clean.
    for mode in [None, Some("--keep-going")] {
        let args: Vec<&str> = ["--rib", &ribf, &demo, &empty].into_iter().chain(mode).collect();
        let [in_memory, out_of_core] = classify_both_ways(&args);
        assert_eq!(in_memory.0, 0, "{mode:?}: {}", in_memory.1);
        assert_eq!(out_of_core, in_memory, "{mode:?}");
    }

    // A still-growing tail is degradation: fatal in strict mode, exit 3
    // under --keep-going. Out of core does not read the set-aside file,
    // so only the verdicts agree, not the IOTPs.
    let [in_memory, out_of_core] = classify_both_ways(&["--rib", &ribf, &cut]);
    assert_eq!((in_memory.0, out_of_core.0), (1, 1));
    let [in_memory, out_of_core] = classify_both_ways(&["--rib", &ribf, &cut, "--keep-going"]);
    assert_eq!((in_memory.0, out_of_core.0), (3, 3), "{}\n{}", in_memory.1, out_of_core.1);
    assert!(in_memory.1.contains("skipped records: 1 [truncated_header=1]"), "{}", in_memory.1);
    let named = format!("set aside unread: {cut} (still_growing(truncated_header))");
    assert!(out_of_core.1.contains(&named), "{}", out_of_core.1);
}
