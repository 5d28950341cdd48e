//! Multi-substation generation: SED-driven consolidation, WAN abstraction,
//! cross-substation energization, and inter-substation protection (PDIF over
//! R-SV, CILO over R-GOOSE).

#![allow(clippy::unwrap_used, clippy::expect_used)] // test/example code may panic

use sg_cyber_range::core::{
    breaker_cmd_key, breaker_state_key, CompiledModel, CyberRange, IedConfig, SgmlBundle,
};
use sg_cyber_range::ied::{BreakerMap, IedSpec, MeasurementMap, ProtectionSpec, RsvSpec};
use sg_cyber_range::kvstore::Value;
use sg_cyber_range::models::{multisub_bundle, MultiSubParams};
use sg_cyber_range::net::SimDuration;

fn small_params() -> MultiSubParams {
    MultiSubParams {
        substations: 3,
        total_ieds: 9,
        interval_ms: 100,
    }
}

#[test]
fn consolidated_model_energizes_all_substations() {
    let bundle = multisub_bundle(&small_params());
    let range =
        CyberRange::instantiate(CompiledModel::shared(&bundle).expect("multisub bundle compiles"))
            .expect("multisub bundle compiles");
    // One slack (S1 GRID) energizes the whole chain through the SED ties.
    assert_eq!(range.power.ext_grid.len(), 1);
    for (i, bus) in range.power.bus.iter().enumerate() {
        assert!(
            range.last_result().bus[i].energized,
            "bus {} must be energized through the tie chain",
            bus.name
        );
    }
    // WAN switch joins the three station buses.
    assert!(range.plan().switches.iter().any(|s| s.is_wan));
    assert_eq!(range.plan().switches.len(), 4);
    // 9 IEDs + 1 SCADA.
    assert_eq!(range.plan().hosts.len(), 10);
    assert_eq!(range.ieds.len(), 9);
}

#[test]
fn tie_outage_darkens_downstream_substations() {
    let bundle = multisub_bundle(&small_params());
    let mut range = CyberRange::instantiate(CompiledModel::shared(&bundle).expect("compiles"))
        .expect("compiles");
    range.run_for(SimDuration::from_secs(1));

    // Cut the S2–S3 tie: S3 must go dark, S1/S2 stay up.
    let tie = range.power.line_by_name("S2/TIE23").expect("tie exists");
    range.power.line[tie.index()].in_service = false;
    range.run_for(SimDuration::from_secs(1));

    let s1_bus = range.power.bus_by_name("S1/MV/Main/CNMAIN").unwrap();
    let s3_bus = range.power.bus_by_name("S3/MV/Main/CNMAIN").unwrap();
    assert!(range.last_result().bus[s1_bus.index()].energized);
    assert!(!range.last_result().bus[s3_bus.index()].energized);

    // S3's IEDs observe dead feeders through their measurements.
    let s3ied = &range.ieds["S3IED1"];
    let p = s3ied
        .model
        .read("S3IED1LD0/MMXU1$MX$TotW$mag$f")
        .and_then(|v| v.as_f64())
        .unwrap();
    assert!(p.abs() < 1e-9, "S3 feeder power must read zero, got {p}");
}

#[test]
fn scada_polls_ieds_across_the_wan() {
    let bundle = multisub_bundle(&small_params());
    let mut range = CyberRange::instantiate(CompiledModel::shared(&bundle).expect("compiles"))
        .expect("compiles");
    range.run_for(SimDuration::from_secs(3));
    let scada = range.scada.as_ref().unwrap();
    // One tag per substation's first IED, all polled across the WAN switch.
    for s in 0..3 {
        let tag = format!("S{}IED1_P", s + 1);
        let value = scada.tag_value(&tag);
        assert!(
            value.is_some_and(|v| v.abs() > 1e-9),
            "tag {tag} = {value:?}"
        );
    }
}

/// Builds a 2-substation bundle where the tie line is protected by PDIF:
/// S2IED1 streams its local tie current to S1IED1 over R-SV; S1IED1 compares
/// and trips its breaker on divergence.
fn pdif_bundle() -> SgmlBundle {
    let params = MultiSubParams {
        substations: 2,
        total_ieds: 2,
        interval_ms: 100,
    };
    let mut bundle = multisub_bundle(&params);

    // Rewrite the IED config: give S1IED1 a PDIF element fed by R-SV.
    let mut config = IedConfig::parse(bundle.ied_config.as_ref().unwrap()).unwrap();
    let s1_tie_key = "meas/S1/branch/TIE12/i_ka".to_string();
    let s2_ct_key = "meas/S2/ct/TIE12/i_ka".to_string();

    {
        let s1 = config.ieds.iter_mut().find(|s| s.name == "S1IED1").unwrap();
        s1.protections.push(ProtectionSpec::Pdif {
            ln: "PDIF1".into(),
            local_current_key: s1_tie_key.clone(),
            threshold: 0.001,
            delay_ms: 100,
            breaker: "CB1".into(),
        });
        s1.rsv = Some(RsvSpec {
            sv_id: "S1IED1-SV".into(),
            current_key: s1_tie_key.clone(),
            peers: vec!["10.2.0.10".parse().unwrap()],
            subscribe_sv_id: Some("S2IED1-SV".into()),
        });
        s1.measurements.push(MeasurementMap {
            item: "MMXU2$MX$A$phsA$cVal$mag$f".into(),
            kv_key: s1_tie_key.clone(),
        });
    }
    {
        let s2 = config.ieds.iter_mut().find(|s| s.name == "S2IED1").unwrap();
        s2.rsv = Some(RsvSpec {
            sv_id: "S2IED1-SV".into(),
            current_key: s2_ct_key.clone(),
            peers: vec!["10.1.0.10".parse().unwrap()],
            subscribe_sv_id: None,
        });
    }
    // PDIF must be declared in the ICD to be enabled.
    bundle.icds = bundle
        .icds
        .iter()
        .map(|icd| {
            if icd.contains("S1IED1") {
                sg_cyber_range::models::assets::icd_for(
                    "S1IED1",
                    &["LLN0", "LPHD", "MMXU", "XCBR", "CSWI", "PTOC", "PDIF"],
                )
            } else {
                icd.clone()
            }
        })
        .collect();
    bundle.ied_config = Some(config.to_xml());
    bundle
}

#[test]
fn pdif_over_rsv_trips_on_current_divergence() {
    let mut range = CyberRange::instantiate(
        CompiledModel::shared(&pdif_bundle()).expect("pdif bundle compiles"),
    )
    .expect("pdif bundle compiles");
    // S2's "CT" on the tie initially agrees with S1's measurement: keep it
    // synced by copying the power-flow value for a while.
    for _ in 0..20 {
        let tie_i = range
            .store
            .get_float("meas/S1/branch/TIE12/i_ka")
            .unwrap_or(0.0);
        range
            .store
            .set("meas/S2/ct/TIE12/i_ka", Value::Float(tie_i));
        range.run_for(SimDuration::from_millis(100));
    }
    assert_eq!(
        range.ieds["S1IED1"].trip_count(),
        0,
        "healthy line: no trip"
    );

    // Internal fault: S2's end stops seeing the through-current.
    for _ in 0..15 {
        range
            .store
            .set("meas/S2/ct/TIE12/i_ka", Value::Float(0.0001));
        range.run_for(SimDuration::from_millis(100));
    }
    assert!(
        range.ieds["S1IED1"].trip_count() >= 1,
        "PDIF must trip on differential; events: {:?}",
        range.ieds["S1IED1"].events()
    );
}

#[test]
fn paper_profile_dimensions() {
    // The 5-substation / 104-IED configuration generates (without running).
    let bundle = multisub_bundle(&MultiSubParams::paper_profile());
    assert_eq!(bundle.ssds.len(), 5);
    assert_eq!(bundle.icds.len(), 104);
    assert_eq!(bundle.seds.len(), 4);
    let range =
        CyberRange::instantiate(CompiledModel::shared(&bundle).expect("paper profile compiles"))
            .expect("paper profile compiles");
    assert_eq!(range.ieds.len(), 104);
    assert_eq!(range.plan().hosts.len(), 105); // + SCADA
                                               // Physical model scale: 104 feeders + 5 main buses…
    assert_eq!(range.power.bus.len(), 104 * 2 + 5);
    assert_eq!(range.power.line.len(), 104 + 4);
    assert_eq!(range.power.load.len(), 104);
}

/// A breaker-map spec sanity check shared with the generator.
#[test]
fn generator_breaker_maps_match_keymap() {
    let bundle = multisub_bundle(&small_params());
    let config = IedConfig::parse(bundle.ied_config.as_ref().unwrap()).unwrap();
    for spec in &config.ieds {
        for b in &spec.breakers {
            let scoped = format!("{}/{}", spec.substation, b.name);
            assert_eq!(b.state_key, breaker_state_key(&scoped));
            assert_eq!(b.cmd_key, breaker_cmd_key(&scoped));
        }
    }
    // And the spec type stays constructible by hand (API stability).
    let _ = IedSpec::new("X", "S9");
    let _ = BreakerMap {
        name: "CBX".into(),
        xcbr: "XCBR1".into(),
        cswi: "CSWI1".into(),
        state_key: breaker_state_key("S9/CBX"),
        cmd_key: breaker_cmd_key("S9/CBX"),
        interlocked: false,
    };
}
