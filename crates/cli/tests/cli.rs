//! End-to-end tests of the `lpr` CLI against generated demo files.

use lpr_cli::{run, write_demo_files};

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
    for (tag, extra) in [("mem", None), ("ooc", Some("--out-of-core"))] {
        let metrics = tmp.path(&format!("{tag}.json"));
        let mut args = vec!["classify", "--rib", &rib, &warts, "--threads", "4"];
        args.extend(extra);
        args.extend(["--metrics", &metrics]);
        run(&s(&args), &mut Vec::new()).unwrap();
        let telemetry =
            lpr_obs::RunTelemetry::from_json(&std::fs::read_to_string(&metrics).unwrap()).unwrap();
        assert_eq!(telemetry.threads, 4, "{tag}: telemetry threads");
        assert!(!telemetry.worker_stages("Classification").is_empty(), "{tag}: worker rows");
    }
}
