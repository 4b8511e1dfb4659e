//! Exit-code taxonomy and degraded-input behaviour of the `lpr` CLI.
//!
//! A demo campaign is corrupted with `lpr-chaos` at the byte level and
//! fed back through `classify`/`stats`: strict mode must fail cleanly,
//! `--keep-going` must complete with the success-with-quarantine status
//! and telemetry that reconciles with the printed summary, and
//! `--fail-fast` must turn the degradation into a hard error.

mod common;

use lpr_cli::{run, run_pipeline, write_demo_files, Options, RunStatus};

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

/// The batch path's output and skip tallies over `inputs` and `next`
/// (`lpr classify --keep-going` when `keep_going`), against the
/// in-memory reference decoding the same files the same way. Returns
/// the reference.
fn assert_matches_reference(
    inputs: &[&str],
    next: &[&str],
    rib: &str,
    keep_going: bool,
) -> common::Reference {
    let owned = |paths: &[&str]| paths.iter().map(|p| p.to_string()).collect::<Vec<_>>();
    let (inputs, next) = (owned(inputs), owned(next));
    let reference = common::reference_run(&inputs, &next, rib, keep_going).unwrap();
    let o = Options {
        inputs,
        next,
        rib: Some(rib.to_string()),
        threads: Some(2),
        keep_going,
        ..Default::default()
    };
    let artifacts = run_pipeline(&o).unwrap();
    assert_eq!(artifacts.output, reference.0, "pipeline output");
    assert_eq!(artifacts.load.decode.skipped, reference.1, "skip tallies");
    reference
}

#[test]
fn in_memory_and_out_of_core_agree_on_corrupt_input() {
    for seed in [7, 42, 99, 1234] {
        let tmp = Tmp::new(&format!("agree-{seed}"));
        let (_, bad, rib) = corrupted_demo(&tmp, seed, 0.25);
        let (code, out) = exit_and_stdout(&s(&["classify", "--rib", &rib, &bad, "--keep-going"]));
        assert_eq!(code, 3, "seed {seed}: {out}");
        assert!(out.contains("skipped records:"), "seed {seed}: {out}");
        let (_, skipped) = assert_matches_reference(&[&bad], &[], &rib, true);
        assert!(!skipped.is_empty(), "seed {seed}");
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

    let (code, _) = exit_and_stdout(&s(&["classify", "--rib", &ribf, &huge]));
    assert_eq!(code, 1, "strict refuses it");
    assert!(common::reference_run(std::slice::from_ref(&huge), &[], &ribf, false).is_err());
    let (code, out) = exit_and_stdout(&s(&["classify", "--rib", &ribf, &huge, "--keep-going"]));
    assert_eq!(code, 3, "{out}");
    assert_matches_reference(&[&huge], &[], &ribf, true);
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
        let args: Vec<&str> =
            ["classify", "--rib", &ribf, &demo, &empty].into_iter().chain(mode).collect();
        let (code, out) = exit_and_stdout(&s(&args));
        assert_eq!(code, 0, "{mode:?}: {out}");
        assert_matches_reference(&[&demo, &empty], &[], &ribf, mode.is_some());
    }

    // A still-growing tail is degradation: fatal in strict mode, exit 3
    // under --keep-going. The set-aside file is not read, so none of
    // its records are classified.
    let (code, _) = exit_and_stdout(&s(&["classify", "--rib", &ribf, &cut]));
    assert_eq!(code, 1);
    let (code, out) = exit_and_stdout(&s(&["classify", "--rib", &ribf, &cut, "--keep-going"]));
    assert_eq!(code, 3, "{out}");
    let named = format!("set aside unread: {cut} (still_growing(truncated_header))");
    assert!(out.contains(&named), "{out}");
    assert!(out.contains("total 0 IOTPs"), "{out}");
}

#[test]
fn a_damaged_next_file_gets_the_batch_verdict() {
    let tmp = Tmp::new("next");
    let (clean, bad, rib) = corrupted_demo(&tmp, 42, 0.3);
    let args = s(&["classify", "--rib", &rib, &clean, "--next", &bad]);
    let mut buf = Vec::new();
    let e = run(&args, &mut buf).unwrap_err();
    assert!(e.to_string().contains("corrupt.warts"), "{e}");

    let (code, out) = exit_and_stdout(&[args, s(&["--keep-going"])].concat());
    assert_eq!(code, 3, "{out}");
    assert!(out.contains("skipped records:"), "{out}");
    let (_, skipped) = assert_matches_reference(&[&clean], &[&bad], &rib, true);
    assert!(!skipped.is_empty());

    // A set-aside --next file gets the verdict of a set-aside cycle file.
    let (bytes, _) = write_demo_files();
    let cut = tmp.path("cut.warts");
    std::fs::write(&cut, [&bytes[..], &[0x12, 0x05, 0x00]].concat()).unwrap();
    let args = s(&["classify", "--rib", &rib, &clean, "--next", &cut]);
    assert_eq!(exit_and_stdout(&args).0, 1);
    let (code, out) = exit_and_stdout(&[args, s(&["--keep-going"])].concat());
    assert_eq!(code, 3, "{out}");
    assert!(out.contains(&format!("set aside unread: {cut}")), "{out}");
}

#[test]
fn keep_going_trees_come_from_the_ingested_lsps() {
    let tmp = Tmp::new("trees");
    let (_, bad, rib) = corrupted_demo(&tmp, 42, 0.3);
    let (code, out) =
        exit_and_stdout(&s(&["classify", "--rib", &rib, &bad, "--keep-going", "--trees"]));
    assert_eq!(code, 3, "{out}");
    assert!(out.contains("egress-rooted LSP-trees"), "{out}");

    // The trees are those of the post-TargetAS LSPs the lenient
    // reference ingests.
    let trie = ip2as::parse_rib(&std::fs::read_to_string(&rib).unwrap()).unwrap();
    let traces = common::decode(std::slice::from_ref(&bad), true, &mut Default::default()).unwrap();
    let one = lpr_par::ShardOptions::new(1);
    let ingest = lpr_core::IngestState::from_traces(&traces, &trie, None, one);
    let expected = lpr_core::tree::build_fec_trees(&ingest.lsps);
    let o = Options {
        inputs: vec![bad],
        rib: Some(rib),
        trees: true,
        keep_going: true,
        ..Default::default()
    };
    let artifacts = run_pipeline(&o).unwrap();
    assert!(!expected.is_empty());
    assert_eq!(format!("{:?}", artifacts.trees), format!("{expected:?}"));
}

#[test]
fn tunnels_keep_going_gets_the_batch_verdict() {
    let tmp = Tmp::new("tunnels");
    let (_, bad, _) = corrupted_demo(&tmp, 42, 0.3);
    let mut buf = Vec::new();
    let e = run(&s(&["tunnels", &bad]), &mut buf).unwrap_err();
    assert!(e.to_string().contains("corrupt.warts"), "{e}");

    let (code, out) = exit_and_stdout(&s(&["tunnels", &bad, "--keep-going"]));
    assert_eq!(code, 3, "{out}");
    assert!(out.contains("skipped records:"), "{out}");
    let traces = common::decode(&[bad], true, &mut Default::default()).unwrap();
    let tunnels: usize = traces.iter().map(|t| lpr_core::tunnel::extract_tunnels(t).len()).sum();
    let summary = format!("{tunnels} explicit tunnels in {} traces", traces.len());
    assert!(out.contains(&summary), "{summary}\n{out}");
}
