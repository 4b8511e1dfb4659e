//! End-to-end over the exported synthetic dataset: render a
//! longitudinal cycle, export it as warts + RIB files, and drive the
//! `lpr` CLI over them exactly the way a user of real Ark data would.

use ark_dataset::campaign::{generate_cycle, CampaignOptions};
use ark_dataset::{export_cycle, standard_world};

fn s(v: &[String]) -> Vec<String> {
    v.to_vec()
}

#[test]
fn cli_classifies_an_exported_cycle() {
    let world = standard_world();
    let opts = CampaignOptions::default();
    let data = generate_cycle(&world, 40, &opts);
    let dir = std::env::temp_dir().join(format!("lpr-cli-export-{}", std::process::id()));
    let exported = export_cycle(&world, &data, &dir).unwrap();

    let mut args = vec![
        "classify".to_string(),
        "--rib".to_string(),
        exported.rib.to_string_lossy().into_owned(),
        exported.snapshots[0].to_string_lossy().into_owned(),
    ];
    for next in &exported.snapshots[1..] {
        args.push("--next".to_string());
        args.push(next.to_string_lossy().into_owned());
    }
    args.push("--per-as".to_string());

    let mut buf = Vec::new();
    lpr_cli::run(&s(&args), &mut buf).unwrap();
    let text = String::from_utf8(buf).unwrap();

    // The featured ASes appear with their signature usages at cycle 40:
    // Vodafone dynamic + Multi-FEC, Tata Mono-FEC, Level3 present.
    assert!(text.contains("AS1273"), "{text}");
    assert!(text.contains("AS6453"), "{text}");
    assert!(text.contains("AS3356"), "{text}");
    assert!(text.contains("dynamic ASes"), "{text}");
    assert!(text.contains("AS1273"), "{text}");
    assert!(text.contains("Multi-FEC"), "{text}");
    assert!(text.contains("Mono-FEC (parallel links)"), "{text}");
    // Vendor fingerprints surface in the per-AS section.
    assert!(text.contains("JuniperLike") || text.contains("CiscoLike"), "{text}");

    // `stats` over the same files shows every filter level; two --next
    // files are the paper's j = 2.
    let args = vec![
        "stats".to_string(),
        "--rib".to_string(),
        exported.rib.to_string_lossy().into_owned(),
        exported.snapshots[0].to_string_lossy().into_owned(),
        "--next".to_string(),
        exported.snapshots[1].to_string_lossy().into_owned(),
        "--next".to_string(),
        exported.snapshots[2].to_string_lossy().into_owned(),
    ];
    let mut buf = Vec::new();
    lpr_cli::run(&s(&args), &mut buf).unwrap();
    let text = String::from_utf8(buf).unwrap();
    assert!(text.contains("after Persistence"), "{text}");
    assert!(text.contains("classified IOTPs:"), "{text}");

    std::fs::remove_dir_all(&dir).ok();
}
