//! Smoke runs of every workload at scale 1, the counting-mapper
//! identity, and the agreement of `BENCHMARK.json` with the metric
//! tables the binary prints.

use lpr_core::filter::FilterConfig;
use lpr_core::pipeline::Pipeline;
use perfbench::layers::CountingMapper;
use perfbench::{Config, Workload, END_TO_END, PER_LAYER};
use std::path::PathBuf;

fn config(workload: Workload, trace: bool) -> Config {
    Config {
        workload,
        seed: 7,
        seconds: 0.6,
        trace,
        scale: 1,
        work: PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
            .join(format!("smoke-{}-{trace}", workload.name())),
    }
}

fn smoke(workload: Workload) {
    for trace in [false, true] {
        let cfg = config(workload, trace);
        let out = perfbench::run(&cfg).unwrap_or_else(|e| panic!("{}: {e}", workload.name()));
        assert!(
            out.correct(),
            "{} trace={trace}: {:?}",
            workload.name(),
            out.checks
        );
        assert!(out.attempted > 0 && out.failed == 0);
        let line = perfbench::result_line(&cfg, &out).expect("every metric measured");
        let doc = lpr_obs::json::parse(&line).expect("result line is JSON");
        let metrics = doc
            .get("metrics")
            .and_then(|m| m.as_object())
            .expect("metrics");
        let table = perfbench::metric_table(trace);
        assert_eq!(metrics.len(), table.len());
        for (name, unit) in table {
            let m = metrics
                .iter()
                .find(|(k, _)| k == name)
                .map(|(_, v)| v)
                .expect(name);
            assert_eq!(m.get("unit").and_then(|u| u.as_str()), Some(*unit));
            let value = m
                .get("value")
                .and_then(|v| v.as_f64())
                .expect("numeric value");
            assert!(value.is_finite(), "{name} = {value}");
            if !trace {
                assert!(value > 0.0, "{}: end-to-end {name} is 0", workload.name());
            }
        }
        assert!(!cfg.work.exists(), "scratch directory left behind");
    }
}

#[test]
fn corpus_ooc_smoke() {
    smoke(Workload::CorpusOoc);
}

#[test]
fn campaign_reveal_smoke() {
    smoke(Workload::CampaignReveal);
}

#[test]
fn serve_spool_smoke() {
    smoke(Workload::ServeSpool);
}

#[test]
fn counting_mapper_leaves_pipeline_output_identical() {
    let world = ark_dataset::standard_world();
    let opts = perfbench::inputs::campaign_options(1, 3, 3);
    let data = ark_dataset::generate_cycle(&world, perfbench::inputs::CYCLE, &opts);
    let future: Vec<_> = data.snapshots[1..]
        .iter()
        .map(|s| Pipeline::snapshot_keys(s))
        .collect();
    let pipeline = Pipeline::new(FilterConfig::default());
    let plain = pipeline.run(&data.snapshots[0], world.rib(), &future);
    for log in [false, true] {
        let mapper = CountingMapper::new(world.rib(), log);
        let counted = pipeline.run(&data.snapshots[0], &mapper, &future);
        assert_eq!(counted, plain);
        assert!(mapper.lookups() > 0);
        assert_eq!(!mapper.into_log().is_empty(), log);
    }
}

#[test]
fn benchmark_json_names_every_metric_and_workload() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json beside the crate");
    let doc = lpr_obs::json::parse(&text).expect("BENCHMARK.json parses");
    let names = |key: &str| -> Vec<(String, String)> {
        doc.get(key)
            .and_then(|v| v.as_array())
            .expect(key)
            .iter()
            .map(|m| {
                let field = |f: &str| m.get(f).and_then(|v| v.as_str()).unwrap_or("").to_string();
                (field("name"), field("unit"))
            })
            .collect()
    };
    let own = |table: &[(&str, &str)]| -> Vec<(String, String)> {
        table
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(names("end_to_end"), own(&END_TO_END));
    assert_eq!(names("per_layer"), own(&PER_LAYER));
    let workloads: Vec<String> = names("workloads").into_iter().map(|(n, _)| n).collect();
    let expected: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
    assert_eq!(workloads, expected);
}
