//! End-to-end tests of the `lpr` CLI against generated demo files.

mod common;

use lpr_cli::{run, write_demo_files};
use std::io::Write;
use std::process::{Command, Stdio};

struct Tmp(std::path::PathBuf);

impl Tmp {
    fn new(tag: &str) -> Tmp {
        let dir = std::env::temp_dir().join(format!("lpr-cli-test-{tag}-{}", std::process::id()));
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

fn demo_files(tmp: &Tmp) -> (String, String) {
    let (bytes, rib) = write_demo_files();
    let warts = tmp.path("demo.warts");
    let ribf = tmp.path("rib.txt");
    std::fs::write(&warts, bytes).unwrap();
    std::fs::write(&ribf, rib).unwrap();
    (warts, ribf)
}

#[test]
fn demo_subcommand_writes_files() {
    let tmp = Tmp::new("demo");
    let out = tmp.path("d.warts");
    let rib = tmp.path("d.rib");
    let mut buf = Vec::new();
    run(&s(&["demo", "--out", &out, "--rib-out", &rib]), &mut buf).unwrap();
    assert!(std::fs::metadata(&out).unwrap().len() > 0);
    assert!(std::fs::metadata(&rib).unwrap().len() > 0);
    assert!(String::from_utf8(buf).unwrap().contains("wrote"));
}

#[test]
fn info_reports_record_inventory() {
    let tmp = Tmp::new("info");
    let (warts, _) = demo_files(&tmp);
    let mut buf = Vec::new();
    run(&s(&["info", &warts]), &mut buf).unwrap();
    let text = String::from_utf8(buf).unwrap();
    assert!(text.contains("trace(s)"), "{text}");
    assert!(text.contains("MPLS extensions"), "{text}");
}

#[test]
fn tunnels_dumps_explicit_tunnels() {
    let tmp = Tmp::new("tunnels");
    let (warts, _) = demo_files(&tmp);
    let mut buf = Vec::new();
    run(&s(&["tunnels", &warts]), &mut buf).unwrap();
    let text = String::from_utf8(buf).unwrap();
    assert!(text.contains("explicit tunnels"), "{text}");
    assert!(text.contains("ingress="), "{text}");
}

#[test]
fn classify_produces_iotp_summary() {
    let tmp = Tmp::new("classify");
    let (warts, rib) = demo_files(&tmp);
    let mut buf = Vec::new();
    run(&s(&["classify", "--rib", &rib, &warts, "--per-as", "--trees"]), &mut buf).unwrap();
    let text = String::from_utf8(buf).unwrap();
    assert!(text.contains("total"), "{text}");
    assert!(text.contains("per-AS classification"), "{text}");
    assert!(text.contains("LSP-trees"), "{text}");
    assert!(text.contains("AS65000"), "{text}");
}

#[test]
fn stats_prints_filter_survival() {
    let tmp = Tmp::new("stats");
    let (warts, rib) = demo_files(&tmp);
    let mut buf = Vec::new();
    // The same file as its own persistence snapshot: everything
    // persists.
    run(&s(&["stats", "--rib", &rib, &warts, "--next", &warts]), &mut buf).unwrap();
    let text = String::from_utf8(buf).unwrap();
    assert!(text.contains("after Persistence"), "{text}");
    assert!(text.contains("(1.000)"), "{text}");
}

#[test]
fn missing_rib_is_a_clean_error() {
    let tmp = Tmp::new("norib");
    let (warts, _) = demo_files(&tmp);
    let mut buf = Vec::new();
    let e = run(&s(&["classify", &warts]), &mut buf).unwrap_err();
    assert!(e.to_string().contains("--rib"), "{e}");
}

#[test]
fn nonexistent_file_is_a_clean_error() {
    let mut buf = Vec::new();
    let e = run(&s(&["info", "/definitely/not/here.warts"]), &mut buf).unwrap_err();
    assert!(e.to_string().contains("not/here.warts"), "{e}");
}

#[test]
fn dump_renders_text() {
    let tmp = Tmp::new("dump");
    let (warts, _) = demo_files(&tmp);
    let mut buf = Vec::new();
    run(&s(&["dump", &warts]), &mut buf).unwrap();
    let text = String::from_utf8(buf).unwrap();
    assert!(text.contains("traceroute from"), "{text}");
    assert!(text.contains("MPLS Label"), "{text}");
    assert!(text.contains("cycle"), "{text}");
}

#[test]
fn serve_once_ingests_the_spool_and_exits_clean() {
    let tmp = Tmp::new("serve");
    let (bytes, rib) = write_demo_files();
    let spool = tmp.0.join("spool");
    std::fs::create_dir_all(&spool).unwrap();
    std::fs::write(spool.join("c0.warts"), bytes).unwrap();
    let ribf = tmp.path("rib.txt");
    std::fs::write(&ribf, rib).unwrap();

    let mut buf = Vec::new();
    let status = run(
        &s(&[
            "serve",
            "--spool",
            &spool.to_string_lossy(),
            "--rib",
            &ribf,
            "--once",
            "2",
            "--tick-ms",
            "25",
            "--threads",
            "1",
        ]),
        &mut buf,
    )
    .unwrap();
    assert_eq!(status, lpr_cli::RunStatus::Clean);
    let text = String::from_utf8(buf).unwrap();
    assert!(text.contains("lpr serve: listening on http://"), "{text}");
}

#[test]
fn serve_flag_parsing_rejects_bad_input() {
    let mut buf = Vec::new();
    let e = run(&s(&["serve", "--rib", "rib.txt"]), &mut buf).unwrap_err();
    assert!(e.to_string().contains("--spool"), "{e}");
    let e = run(&s(&["serve", "--spool", "x", "--rib", "r", "--window", "zero"]), &mut buf)
        .unwrap_err();
    assert!(e.to_string().contains("--window"), "{e}");
    let e = run(&s(&["serve", "--spool", "x", "--rib", "r", "--bogus"]), &mut buf).unwrap_err();
    assert!(e.to_string().contains("--bogus"), "{e}");
}

#[test]
fn metrics_report_the_thread_count_in_memory_and_out_of_core() {
    let tmp = Tmp::new("metrics-threads");
    let (warts, rib) = demo_files(&tmp);
    let metrics = tmp.path("ooc.json");
    let args = ["classify", "--rib", &rib, &warts, "--threads", "4", "--metrics", &metrics];
    run(&s(&args), &mut Vec::new()).unwrap();
    let telemetry =
        lpr_obs::RunTelemetry::from_json(&std::fs::read_to_string(&metrics).unwrap()).unwrap();
    assert_eq!(telemetry.threads, 4, "telemetry threads");
    assert!(!telemetry.worker_stages("Classification").is_empty(), "worker rows");

    // The in-memory reference's back half reports the same.
    let trie = lpr_cli::load_rib(&rib).unwrap();
    let traces =
        common::decode(std::slice::from_ref(&warts), false, &mut Default::default()).unwrap();
    let four = lpr_par::ShardOptions::new(4);
    let rec = lpr_obs::Recorder::new("reference");
    let ingest = lpr_core::IngestState::from_traces(&traces, &trie, Some(&rec), four);
    let pipeline = lpr_core::Pipeline::new(lpr_core::filter::FilterConfig {
        persistence_window: 0,
        ..Default::default()
    });
    let output = pipeline.finish_stages(ingest, &[], Some(&rec), four);
    let reference = rec.finish();
    assert_eq!(reference.threads, 4);
    assert_eq!(
        telemetry.worker_stages("Classification").len(),
        reference.worker_stages("Classification").len()
    );
    let o = lpr_cli::Options {
        inputs: vec![warts],
        rib: Some(rib),
        threads: Some(4),
        ..Default::default()
    };
    assert_eq!(lpr_cli::run_pipeline(&o).unwrap().output, output);
}

/// The warts.* counters of a `--metrics` file.
fn warts_counters(path: &str) -> Vec<(String, u64)> {
    let telemetry =
        lpr_obs::RunTelemetry::from_json(&std::fs::read_to_string(path).unwrap()).unwrap();
    telemetry.counters.into_iter().filter(|(name, _)| name.starts_with("warts.")).collect()
}

#[test]
fn warts_counters_come_from_the_index_cold_and_cached() {
    let tmp = Tmp::new("warts-counters");
    let (bytes, rib) = write_demo_files();
    let (corrupted, _) = lpr_chaos::corrupt_warts_bytes(&bytes, 42, 0.3);
    let (clean, bad, ribf) = (tmp.path("clean.warts"), tmp.path("bad.warts"), tmp.path("rib.txt"));
    std::fs::write(&clean, &bytes).unwrap();
    std::fs::write(&bad, &corrupted).unwrap();
    std::fs::write(&ribf, rib).unwrap();

    for (input, mode, raw) in [(&clean, None, &bytes), (&bad, Some("--keep-going"), &corrupted)] {
        // What a lenient reader counts over the same bytes.
        let registry = lpr_obs::Registry::new();
        let mut reader = warts::WartsReader::new(raw)
            .lenient()
            .with_metrics(warts::StreamMetrics::from_registry(&registry));
        while reader.next_record().unwrap().is_some() {}
        let counted = |name: &'static str| registry.counter(name).get();

        let runs: Vec<_> = ["cold", "cached"]
            .into_iter()
            .map(|tag| {
                let metrics = tmp.path(&format!("{tag}.json"));
                let args: Vec<&str> = ["classify", "--rib", &ribf, input, "--metrics", &metrics]
                    .into_iter()
                    .chain(mode)
                    .collect();
                run(&s(&args), &mut Vec::new()).unwrap();
                let telemetry = lpr_obs::RunTelemetry::from_json(
                    &std::fs::read_to_string(&metrics).unwrap(),
                )
                .unwrap();
                let hits = telemetry.counter("corpus.index_hits");
                assert_eq!(hits, (tag == "cached") as u64, "{tag}");
                warts_counters(&metrics)
            })
            .collect();
        assert_eq!(runs[0], runs[1], "{input}: a cached open reports what a cold one does");
        let names = [
            lpr_obs::names::WARTS_TRACES,
            lpr_obs::names::WARTS_MALFORMED_RECORDS,
            lpr_obs::names::WARTS_RESYNC_BYTES,
        ];
        let reasons = warts::SkipReason::ALL.map(|r| r.counter_name());
        for name in names.into_iter().chain(reasons) {
            let reported = runs[0].iter().find(|(n, _)| n == name).map(|(_, v)| *v);
            assert_eq!(reported, Some(counted(name)), "{input}: {name}");
        }
    }
}

/// Runs the `lpr` binary in `dir`, feeding `stdin` when given; returns
/// its exit code and stdout.
fn lpr_in(dir: &std::path::Path, args: &[&str], stdin: Option<&[u8]>) -> (i32, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_lpr"))
        .current_dir(dir)
        .args(args)
        .stdin(if stdin.is_some() { Stdio::piped() } else { Stdio::null() })
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .unwrap();
    if let Some(bytes) = stdin {
        child.stdin.take().unwrap().write_all(bytes).unwrap();
    }
    let out = child.wait_with_output().unwrap();
    (out.status.code().unwrap_or(-1), String::from_utf8(out.stdout).unwrap())
}

#[test]
fn a_piped_input_classifies_like_the_file() {
    let tmp = Tmp::new("pipe");
    let (warts, rib) = demo_files(&tmp);
    let from_file = lpr_in(&tmp.0, &["classify", "--rib", &rib, &warts], None);
    assert_eq!(from_file.0, 0);
    assert!(!from_file.1.contains("total 0 IOTPs"), "{}", from_file.1);
    let bytes = std::fs::read(&warts).unwrap();
    let piped = lpr_in(&tmp.0, &["classify", "--rib", &rib, "/dev/stdin"], Some(&bytes));
    assert_eq!(piped, from_file);
}

#[test]
fn a_batch_run_leaves_unrelated_files_beside_its_inputs_alone() {
    let tmp = Tmp::new("sweep-keep");
    let (warts, rib) = demo_files(&tmp);
    std::fs::write(tmp.path("notes.spill"), b"field notes").unwrap();
    std::fs::write(tmp.path("other.warts.lpridx.tmp"), b"another run's").unwrap();
    let listing = || {
        let mut names: Vec<String> = std::fs::read_dir(&tmp.0)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        names.sort();
        names
    };
    let before = listing();
    run(&s(&["classify", "--rib", &rib, &warts]), &mut Vec::new()).unwrap();
    let mut expected = before;
    expected.push("demo.warts.lpridx".to_string());
    expected.sort();
    assert_eq!(listing(), expected, "the run adds its index cache and removes nothing");
}

#[test]
fn an_orphaned_index_write_beside_a_relative_input_is_removed() {
    let tmp = Tmp::new("sweep-relative");
    demo_files(&tmp);
    let orphan = tmp.0.join("demo.warts.lpridx.tmp");
    std::fs::write(&orphan, b"killed mid-write").unwrap();
    let (code, _) = lpr_in(&tmp.0, &["classify", "--rib", "rib.txt", "demo.warts"], None);
    assert_eq!(code, 0);
    assert!(!orphan.exists(), "the orphaned .lpridx.tmp survived");
    assert!(tmp.0.join("demo.warts.lpridx").exists());
}
