//! The file-driven workflow the paper's users follow: model files on disk →
//! SG-ML Processor → operational range; plus pcap export of range traffic.

#![allow(clippy::unwrap_used, clippy::expect_used)] // test/example code may panic

use sg_cyber_range::attack::{CaptureSummary, ProtocolClass};
use sg_cyber_range::core::{CompiledModel, CyberRange, SgmlBundle};
use sg_cyber_range::models::epic_bundle;
use sg_cyber_range::net::{pcap, SimDuration};

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("sgcr-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn bundle_roundtrips_through_a_directory() {
    let dir = temp_dir("bundle");
    let original = epic_bundle();
    original.write_to_dir(&dir).expect("write bundle");

    // The directory holds self-describing files.
    let names: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    assert!(
        names.contains(&"substation01.ssd.xml".to_string()),
        "{names:?}"
    );
    assert!(names.contains(&"GIED1.icd.xml".to_string()), "{names:?}");
    assert!(names.contains(&"ied_config.xml".to_string()));
    assert!(names.contains(&"power_config.xml".to_string()));

    let reloaded = SgmlBundle::from_dir(&dir).expect("reload bundle");
    assert_eq!(reloaded.ssds, original.ssds);
    assert_eq!(reloaded.scds, original.scds);
    assert_eq!(reloaded.seds, original.seds);
    assert_eq!(reloaded.ied_config, original.ied_config);
    assert_eq!(reloaded.scada_config, original.scada_config);
    assert_eq!(reloaded.plc_config, original.plc_config);
    assert_eq!(reloaded.power_extra, original.power_extra);
    // ICDs may be reordered lexicographically; compare as sets.
    let mut a = reloaded.icds.clone();
    let mut b = original.icds.clone();
    a.sort();
    b.sort();
    assert_eq!(a, b);

    // The reloaded bundle compiles and runs.
    let mut range = CyberRange::instantiate(
        CompiledModel::shared(&reloaded).expect("reloaded bundle compiles"),
    )
    .expect("reloaded bundle compiles");
    range.run_for(SimDuration::from_secs(1));
    assert!((range.solve_errors_total() == 0));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn two_icds_for_one_ied_both_survive_a_directory_round_trip() {
    let dir = temp_dir("twin-icds");
    let mut original = epic_bundle();
    // A second, different ICD for GIED1 (a vendor revision, say).
    let twin = original.icds[0].replace("<IED ", "<IED desc=\"revision B\" ");
    assert_ne!(twin, original.icds[0]);
    original.icds.push(twin);
    original.write_to_dir(&dir).expect("write bundle");

    let reloaded = SgmlBundle::from_dir(&dir).expect("reload bundle");
    let mut a = reloaded.icds.clone();
    let mut b = original.icds.clone();
    a.sort();
    b.sort();
    assert_eq!(a, b, "an ICD was overwritten");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn edited_model_changes_the_generated_range() {
    // The paper's customization workflow: edit a shared XML template and
    // regenerate. Double one load in the SSD file on disk.
    let dir = temp_dir("edit");
    epic_bundle().write_to_dir(&dir).expect("write");
    let ssd_path = dir.join("substation01.ssd.xml");
    let text = std::fs::read_to_string(&ssd_path).unwrap();
    let edited = text.replace(r#"p_mw="0.015""#, r#"p_mw="0.03""#);
    assert_ne!(text, edited, "the expected load parameter exists");
    std::fs::write(&ssd_path, edited).unwrap();

    let bundle = SgmlBundle::from_dir(&dir).expect("reload");
    let range =
        CyberRange::instantiate(CompiledModel::shared(&bundle).expect("edited bundle compiles"))
            .expect("edited bundle compiles");
    let load = range.power.load_by_name("EPIC/Load1").unwrap();
    assert_eq!(range.power.load[load.index()].p_mw, 0.03);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn missing_directory_and_empty_directory_are_reported() {
    assert!(SgmlBundle::from_dir("/no/such/sgcr/dir").is_err());
    let dir = temp_dir("empty");
    std::fs::create_dir_all(&dir).unwrap();
    let err = SgmlBundle::from_dir(&dir).unwrap_err();
    assert!(err.message.contains("no SCL model files"));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn range_traffic_exports_as_wireshark_compatible_pcap() {
    let mut range =
        CyberRange::instantiate(CompiledModel::shared(&epic_bundle()).expect("compiles"))
            .expect("compiles");
    let gied1 = range.node("GIED1").unwrap();
    range.net.enable_capture(gied1);
    range.run_for(SimDuration::from_secs(2));

    let frames = range.net.captured(gied1);
    assert!(!frames.is_empty());
    let summary = CaptureSummary::of(frames);
    assert!(summary.count(ProtocolClass::Mms) > 0);

    let file = pcap::to_pcap(frames);
    // Structural validation: magic + linktype + records sum to file length.
    assert_eq!(&file[..4], &0xa1b2_c3d4u32.to_le_bytes());
    assert_eq!(
        u32::from_le_bytes(file[20..24].try_into().unwrap()),
        1,
        "LINKTYPE_ETHERNET"
    );
    let mut offset = 24usize;
    let mut records = 0usize;
    while offset < file.len() {
        let incl = u32::from_le_bytes(file[offset + 8..offset + 12].try_into().unwrap()) as usize;
        let orig = u32::from_le_bytes(file[offset + 12..offset + 16].try_into().unwrap()) as usize;
        assert_eq!(incl, orig);
        offset += 16 + incl;
        records += 1;
    }
    assert_eq!(offset, file.len(), "records tile the file exactly");
    assert_eq!(records, frames.len());
    // Timestamps are monotone non-decreasing.
    let mut last = (0u32, 0u32);
    let mut cursor = 24usize;
    for _ in 0..records {
        let secs = u32::from_le_bytes(file[cursor..cursor + 4].try_into().unwrap());
        let micros = u32::from_le_bytes(file[cursor + 4..cursor + 8].try_into().unwrap());
        assert!((secs, micros) >= last);
        last = (secs, micros);
        let len = u32::from_le_bytes(file[cursor + 8..cursor + 12].try_into().unwrap()) as usize;
        cursor += 16 + len;
    }
}
