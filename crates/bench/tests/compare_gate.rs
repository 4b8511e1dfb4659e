//! `lpr-bench compare` against the committed baseline: a report that
//! lacks a section, a stage row or a counter, or that changes a count
//! or a verdict, exits 1 and names the path where it differs.

use lpr_obs::json::{self, JsonValue};
use std::path::PathBuf;
use std::process::Command;

fn baseline_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../results/BENCH_baseline.json")
}

fn baseline() -> JsonValue {
    let text = std::fs::read_to_string(baseline_path()).expect("the committed baseline reads");
    json::parse(&text).expect("the committed baseline parses")
}

/// The field `key` of the object `doc`.
fn field<'a>(doc: &'a mut JsonValue, key: &str) -> &'a mut JsonValue {
    let JsonValue::Object(fields) = doc else { panic!("not an object at {key}") };
    &mut fields.iter_mut().find(|(k, _)| k == key).unwrap_or_else(|| panic!("no {key}")).1
}

fn remove(doc: &mut JsonValue, key: &str) {
    let JsonValue::Object(fields) = doc else { panic!("not an object at {key}") };
    fields.retain(|(k, _)| k != key);
}

fn stages(doc: &mut JsonValue) -> &mut Vec<JsonValue> {
    let JsonValue::Array(rows) = field(field(doc, "telemetry"), "stages") else {
        panic!("telemetry.stages is not an array")
    };
    rows
}

fn is_stage(row: &JsonValue, name: &str) -> bool {
    row.get("name").and_then(|n| n.as_str()) == Some(name)
}

/// Runs `lpr-bench compare` on `current` against the committed
/// baseline; returns the exit code and stderr.
fn compare(case: &str, current: &JsonValue) -> (i32, String) {
    let path = std::env::temp_dir()
        .join(format!("lpr-bench-compare-gate-{}-{case}.json", std::process::id()));
    std::fs::write(&path, current.render_pretty()).expect("write the case report");
    let out = Command::new(env!("CARGO_BIN_EXE_lpr-bench"))
        .arg("compare")
        .arg(&path)
        .arg("--against")
        .arg(baseline_path())
        .output()
        .expect("run lpr-bench");
    let _ = std::fs::remove_file(&path);
    (out.status.code().unwrap_or(-1), String::from_utf8_lossy(&out.stderr).into_owned())
}

#[test]
fn the_baseline_equals_itself() {
    let (code, stderr) = compare("itself", &baseline());
    assert_eq!(code, 0, "{stderr}");
}

#[test]
fn every_shortfall_against_the_baseline_exits_1_and_names_its_path() {
    type Edit = fn(&mut JsonValue);
    let cases: [(&str, Edit, &str); 6] = [
        ("empty", |doc| *doc = JsonValue::Object(Vec::new()), "iotps: only in the baseline"),
        (
            "no-persistence-row",
            |doc| stages(doc).retain(|row| !is_stage(row, "Persistence")),
            "telemetry.stages[Persistence]: only in the baseline",
        ),
        (
            "no-counter",
            |doc| remove(field(field(doc, "telemetry"), "counters"), "corpus.bytes_mapped"),
            "telemetry.counters.corpus.bytes_mapped: only in the baseline",
        ),
        ("no-ingest", |doc| remove(doc, "ingest"), "ingest: only in the baseline"),
        (
            "stage-output-off-by-one",
            |doc| {
                let row = stages(doc).iter_mut().find(|row| is_stage(row, "Classification"));
                let output = field(row.expect("a Classification row"), "output");
                *output = JsonValue::Int(output.as_u64().expect("a count") as i128 + 1);
            },
            "telemetry.stages[Classification].output: ",
        ),
        (
            "golden-mismatch",
            |doc| *field(field(doc, "golden_fingerprint"), "matches") = JsonValue::Bool(false),
            "golden_fingerprint.matches: false != baseline true",
        ),
    ];
    for (case, edit, path) in cases {
        let mut doc = baseline();
        edit(&mut doc);
        let (code, stderr) = compare(case, &doc);
        assert_eq!(code, 1, "{case}: {stderr}");
        assert!(stderr.contains(path), "{case} does not name `{path}`:\n{stderr}");
    }
}
