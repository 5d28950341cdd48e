//! Generator for the EPIC testbed cyber range model — the paper's §IV-A
//! demonstration target.
//!
//! EPIC (Electric Power and Intelligent Control, SUTD) has four segments —
//! **generation** (two motor-generators), **transmission**, **micro-grid**
//! (PV + battery), and **smart home** (controllable loads) — each monitored
//! by IEDs, with a central PLC (CPLC) mediating SCADA↔IED communication and
//! all segments in a single substation. This module generates the SG-ML
//! model files of that shape: SSD, SCD, ICDs, and the supplementary IED /
//! PLC / SCADA / power configs, so the full pipeline runs from files.
//!
//! The physical scale follows the real testbed (a 400 V LV network, tens of
//! kW), which we cannot access — the topology/configuration are from the
//! public descriptions, per the paper.

use crate::assets;
use sgcr_core::{
    branch_i_key, branch_p_key, breaker_cmd_key, breaker_state_key, bus_vm_key, load_p_key,
    source_p_key,
};
use sgcr_core::{
    IedConfig, PlcConfig, PlcDef, PlcGooseRule, PlcLogic, PlcReadRule, PlcWriteRule,
    PowerExtraConfig, SgmlBundle,
};
use sgcr_ied::{
    BreakerMap, GooseEntry, GooseSpec, IedSpec, MeasurementMap, MonitoredBreaker, ProtectionSpec,
};
use sgcr_powerflow::{Profile, ProfileTarget};
use sgcr_scl::write_scl;

/// Substation name used throughout the EPIC model.
pub const SUBSTATION: &str = "EPIC";

/// The four segments and their devices, for reference from experiments.
pub const SEGMENTS: [&str; 4] = ["Generation", "Transmission", "MicroGrid", "SmartHome"];

/// Names of the eight segment IEDs (two per segment, as in the testbed).
pub const IED_NAMES: [&str; 8] = [
    "GIED1", "GIED2", "TIED1", "TIED2", "MIED1", "MIED2", "SIED1", "SIED2",
];

/// Generates the complete EPIC SG-ML bundle.
pub fn epic_bundle() -> SgmlBundle {
    SgmlBundle {
        ssds: vec![epic_ssd()],
        scds: vec![epic_scd()],
        icds: epic_icds(),
        seds: vec![],
        ied_config: Some(epic_ied_config().to_xml()),
        scada_config: Some(epic_scada_config()),
        plc_config: Some(epic_plc_config().to_xml()),
        power_extra: Some(epic_power_extra().to_xml()),
        scenarios: vec![
            include_str!("../../../examples/scenarios/epic_fci.scenario.xml").to_string(),
        ],
        scada_host: Some("SCADA".to_string()),
    }
}

/// The EPIC single-line diagram as an SSD file.
pub fn epic_ssd() -> String {
    let doc = assets::ssd_builder(SUBSTATION)
        .voltage_level("LV", 0.4)
        // Generation segment.
        .bus("LV", "GenBay", "CN_GEN")
        .bus("LV", "GenBay", "CN_GEN_T")
        .gen("LV", "GenBay", "Gen1", "CN_GEN", 0.020, Some(1.0))
        .gen("LV", "GenBay", "Gen2", "CN_GEN", 0.010, Some(1.0))
        .breaker("LV", "GenBay", "CB_GEN", "CN_GEN", "CN_GEN_T", false)
        // Transmission segment.
        .bus("LV", "TransBay", "CN_TRANS")
        .line(
            "LV", "TransBay", "LGen", "CN_GEN_T", "CN_TRANS", 0.05, 0.3, 0.08, 0.2,
        )
        // Micro-grid segment.
        .bus("LV", "MicroBay", "CN_MICRO")
        .bus("LV", "MicroBay", "CN_MICRO_T")
        .breaker(
            "LV",
            "MicroBay",
            "CB_MICRO",
            "CN_MICRO",
            "CN_MICRO_T",
            false,
        )
        .line(
            "LV",
            "MicroBay",
            "LMicro",
            "CN_MICRO_T",
            "CN_TRANS",
            0.08,
            0.3,
            0.08,
            0.15,
        )
        .sgen("LV", "MicroBay", "PV1", "CN_MICRO", 0.008)
        .sgen("LV", "MicroBay", "Battery1", "CN_MICRO", 0.004)
        .load("LV", "MicroBay", "MicroLoad", "CN_MICRO", 0.006, 0.002)
        // Smart home segment.
        .bus("LV", "HomeBay", "CN_HOME")
        .bus("LV", "HomeBay", "CN_HOME_T")
        .breaker("LV", "HomeBay", "CB_HOME", "CN_HOME", "CN_HOME_T", false)
        .line(
            "LV",
            "HomeBay",
            "LHome",
            "CN_HOME_T",
            "CN_TRANS",
            0.10,
            0.3,
            0.08,
            0.15,
        )
        .load("LV", "HomeBay", "Load1", "CN_HOME", 0.015, 0.005)
        .load("LV", "HomeBay", "Load2", "CN_HOME", 0.010, 0.003)
        .finish();
    write_scl(&doc)
}

/// The EPIC communication network as an SCD file: one subnetwork per
/// segment plus a control-room subnetwork for CPLC + SCADA.
pub fn epic_scd() -> String {
    let mut builder = assets::scd_builder(SUBSTATION, "epic-scd");
    let segments: [(&str, &[&str]); 5] = [
        ("GenBus", &["GIED1", "GIED2"]),
        ("TransBus", &["TIED1", "TIED2"]),
        ("MicroBus", &["MIED1", "MIED2"]),
        ("HomeBus", &["SIED1", "SIED2"]),
        ("ControlBus", &["CPLC", "SCADA"]),
    ];
    let mut host_index = 0u8;
    for (seg_index, (bus, hosts)) in segments.iter().enumerate() {
        builder = builder.subnetwork(bus);
        for host in *hosts {
            host_index += 1;
            let ip = format!("10.0.{}.{}", seg_index + 1, 10 + host_index);
            let mac = format!("02-00-00-00-00-{host_index:02X}");
            builder = builder.host(bus, host, &ip, Some(&mac));
        }
    }
    // IEDs also get declared in the SCD body (with their LN inventories).
    for name in IED_NAMES {
        builder = builder.ied(name, &ied_ln_classes(name));
    }
    builder.finish_xml()
}

fn ied_ln_classes(name: &str) -> Vec<&'static str> {
    let mut classes = vec!["LLN0", "LPHD", "MMXU"];
    match name {
        "GIED1" => classes.extend(["XCBR", "CSWI", "PTOC"]),
        "GIED2" => classes.extend(["PTOV", "XCBR", "CSWI"]),
        "TIED1" => classes.extend(["XCBR", "CSWI", "PTOC"]),
        "TIED2" => classes.extend(["XCBR", "CSWI", "PTOC", "PTUV"]),
        "MIED1" => classes.extend(["XCBR", "CSWI", "PTUV"]),
        "MIED2" => {}
        "SIED1" => classes.extend(["XCBR", "CSWI", "CILO"]),
        "SIED2" => classes.extend(["XCBR", "CSWI", "PTUV"]),
        _ => {}
    }
    classes
}

/// One ICD per IED, with the LN inventory that gates feature enablement.
pub fn epic_icds() -> Vec<String> {
    IED_NAMES
        .iter()
        .map(|name| assets::icd_for(name, &ied_ln_classes(name)))
        .collect()
}

/// The supplementary IED Config XML: thresholds + cyber↔physical mapping.
pub fn epic_ied_config() -> IedConfig {
    let sub = SUBSTATION;
    let scoped = |name: &str| format!("{sub}/{name}");
    let b = |name: &str, interlocked: bool| BreakerMap {
        name: name.to_string(),
        xcbr: "XCBR1".into(),
        cswi: "CSWI1".into(),
        state_key: breaker_state_key(&scoped(name)),
        cmd_key: breaker_cmd_key(&scoped(name)),
        interlocked,
    };
    let meas = |item: &str, key: String| MeasurementMap {
        item: item.to_string(),
        kv_key: key,
    };
    let bus_path = |cn: &str, bay: &str| format!("{sub}/LV/{bay}/{cn}");

    let mut ieds = Vec::new();

    // GIED1: generation feeder — measures LGen, controls CB_GEN, PTOC.
    let mut gied1 = IedSpec::new("GIED1", sub);
    gied1
        .measurements
        .push(meas("MMXU1$MX$TotW$mag$f", branch_p_key(&scoped("LGen"))));
    gied1.measurements.push(meas(
        "MMXU1$MX$A$phsA$cVal$mag$f",
        branch_i_key(&scoped("LGen")),
    ));
    gied1.breakers.push(b("CB_GEN", false));
    gied1.protections.push(ProtectionSpec::Ptoc {
        ln: "PTOC1".into(),
        measurement_key: branch_i_key(&scoped("LGen")),
        // ~3-4x nominal, per Table II guidance. Nominal ≈ 45 A at 0.4 kV.
        pickup: 0.150,
        delay_ms: 200,
        breaker: "CB_GEN".into(),
    });
    gied1.goose = Some(GooseSpec {
        appid: 0x3001,
        gocb_ref: "GIED1LD0/LLN0$GO$gcb01".into(),
        dataset: "GIED1LD0/LLN0$DSGoose".into(),
        entries: vec![
            GooseEntry::BreakerState("CB_GEN".into()),
            GooseEntry::ProtectionOp("PTOC1".into()),
        ],
        rgoose_peers: vec![],
    });
    ieds.push(gied1);

    // GIED2: generation bus voltage — PTOV backs up the generators.
    let mut gied2 = IedSpec::new("GIED2", sub);
    gied2.measurements.push(meas(
        "MMXU1$MX$PhV$phsA$cVal$mag$f",
        bus_vm_key(&bus_path("CN_GEN", "GenBay")),
    ));
    gied2.breakers.push(b("CB_GEN", false));
    gied2.protections.push(ProtectionSpec::Ptov {
        ln: "PTOV1".into(),
        voltage_key: bus_vm_key(&bus_path("CN_GEN", "GenBay")),
        threshold_pu: 1.10,
        delay_ms: 300,
        breaker: "CB_GEN".into(),
    });
    ieds.push(gied2);

    // TIED1: micro-grid feeder protection at the transmission side.
    let mut tied1 = IedSpec::new("TIED1", sub);
    tied1
        .measurements
        .push(meas("MMXU1$MX$TotW$mag$f", branch_p_key(&scoped("LMicro"))));
    tied1.measurements.push(meas(
        "MMXU1$MX$A$phsA$cVal$mag$f",
        branch_i_key(&scoped("LMicro")),
    ));
    tied1.breakers.push(b("CB_MICRO", false));
    tied1.protections.push(ProtectionSpec::Ptoc {
        ln: "PTOC1".into(),
        measurement_key: branch_i_key(&scoped("LMicro")),
        pickup: 0.100,
        delay_ms: 200,
        breaker: "CB_MICRO".into(),
    });
    ieds.push(tied1);

    // TIED2: smart-home feeder protection + undervoltage.
    let mut tied2 = IedSpec::new("TIED2", sub);
    tied2
        .measurements
        .push(meas("MMXU1$MX$TotW$mag$f", branch_p_key(&scoped("LHome"))));
    tied2.measurements.push(meas(
        "MMXU1$MX$A$phsA$cVal$mag$f",
        branch_i_key(&scoped("LHome")),
    ));
    tied2.breakers.push(b("CB_HOME", false));
    tied2.protections.push(ProtectionSpec::Ptoc {
        ln: "PTOC1".into(),
        measurement_key: branch_i_key(&scoped("LHome")),
        pickup: 0.120,
        delay_ms: 200,
        breaker: "CB_HOME".into(),
    });
    tied2.goose = Some(GooseSpec {
        appid: 0x3002,
        gocb_ref: "TIED2LD0/LLN0$GO$gcb01".into(),
        dataset: "TIED2LD0/LLN0$DSGoose".into(),
        entries: vec![GooseEntry::BreakerState("CB_HOME".into())],
        rgoose_peers: vec![],
    });
    ieds.push(tied2);

    // MIED1: micro-grid bus undervoltage (islanding detection stand-in).
    let mut mied1 = IedSpec::new("MIED1", sub);
    mied1.measurements.push(meas(
        "MMXU1$MX$PhV$phsA$cVal$mag$f",
        bus_vm_key(&bus_path("CN_MICRO", "MicroBay")),
    ));
    mied1.breakers.push(b("CB_MICRO", false));
    mied1.protections.push(ProtectionSpec::Ptuv {
        ln: "PTUV1".into(),
        voltage_key: bus_vm_key(&bus_path("CN_MICRO", "MicroBay")),
        threshold_pu: 0.88,
        delay_ms: 500,
        breaker: "CB_MICRO".into(),
    });
    ieds.push(mied1);

    // MIED2: PV/battery measurements only.
    let mut mied2 = IedSpec::new("MIED2", sub);
    mied2
        .measurements
        .push(meas("MMXU1$MX$TotW$mag$f", source_p_key(&scoped("PV1"))));
    ieds.push(mied2);

    // SIED1: smart-home breaker with CILO: may only close when the feeder
    // breaker CB_HOME (published by TIED2 over GOOSE) is closed.
    let mut sied1 = IedSpec::new("SIED1", sub);
    sied1
        .measurements
        .push(meas("MMXU1$MX$TotW$mag$f", load_p_key(&scoped("Load1"))));
    sied1.breakers.push(b("CB_HOME", true));
    sied1.protections.push(ProtectionSpec::Cilo {
        ln: "CILO1".into(),
        breaker: "CB_HOME".into(),
        monitored: vec![MonitoredBreaker {
            reference: format!("{sub}/CB_HOME"),
            gocb_ref: "TIED2LD0/LLN0$GO$gcb01".into(),
            dataset_index: 0,
        }],
    });
    ieds.push(sied1);

    // SIED2: home bus voltage. Maps CB_HOME itself (the keys are shared per
    // breaker name) so its undervoltage function can actually open it.
    let mut sied2 = IedSpec::new("SIED2", sub);
    sied2.measurements.push(meas(
        "MMXU1$MX$PhV$phsA$cVal$mag$f",
        bus_vm_key(&bus_path("CN_HOME", "HomeBay")),
    ));
    sied2.breakers.push(b("CB_HOME", false));
    sied2.protections.push(ProtectionSpec::Ptuv {
        ln: "PTUV1".into(),
        voltage_key: bus_vm_key(&bus_path("CN_HOME", "HomeBay")),
        threshold_pu: 0.85,
        delay_ms: 800,
        breaker: "CB_HOME".into(),
    });
    ieds.push(sied2);

    IedConfig { ieds }
}

/// The CPLC configuration: mediates SCADA↔IED communication, per the paper.
pub fn epic_plc_config() -> PlcConfig {
    let st = r#"
PROGRAM cplc
VAR
    p_gen : REAL;          (* MMS read: generation feeder power, MW *)
    v_home : REAL;         (* MMS read: smart-home voltage, pu *)
    cb_gen_closed : BOOL;  (* MMS read: CB_GEN position *)
    gen_trip : BOOL;       (* GOOSE: GIED1 PTOC1 operated *)
    p_gen_kw AT %QW0 : INT;
    v_home_mpu AT %QW1 : INT;
    cb_gen_fb AT %QX0.1 : BOOL;
    gen_trip_fb AT %QX0.2 : BOOL;
    cb_gen_cmd AT %QX0.0 : BOOL;  (* SCADA writes this coil *)
    cmd_to_ied : BOOL;
    shed_home : BOOL;
END_VAR
p_gen_kw := TO_INT(p_gen * 1000.0);
v_home_mpu := TO_INT(v_home * 1000.0);
cb_gen_fb := cb_gen_closed;
gen_trip_fb := gen_trip;
cmd_to_ied := cb_gen_cmd;
(* Load shedding: a generation-feeder protection trip sheds the smart-home
   feeder by opening CB_HOME through SIED2. *)
shed_home := NOT gen_trip;
END_PROGRAM
"#;
    PlcConfig {
        plcs: vec![PlcDef {
            name: "CPLC".into(),
            scan_ms: 100,
            logic: PlcLogic::StructuredText(st.to_string()),
            reads: vec![
                PlcReadRule {
                    server: "GIED1".into(),
                    item: "GIED1LD0/MMXU1$MX$TotW$mag$f".into(),
                    variable: "p_gen".into(),
                    scale: 1.0,
                },
                PlcReadRule {
                    server: "SIED2".into(),
                    item: "SIED2LD0/MMXU1$MX$PhV$phsA$cVal$mag$f".into(),
                    variable: "v_home".into(),
                    scale: 1.0,
                },
                PlcReadRule {
                    server: "GIED1".into(),
                    item: "GIED1LD0/XCBR1$ST$Pos$stVal".into(),
                    variable: "cb_gen_closed".into(),
                    scale: 1.0,
                },
            ],
            writes: vec![
                PlcWriteRule {
                    server: "GIED1".into(),
                    item: "GIED1LD0/CSWI1$CO$Pos$Oper$ctlVal".into(),
                    variable: "cmd_to_ied".into(),
                },
                PlcWriteRule {
                    server: "SIED2".into(),
                    item: "SIED2LD0/CSWI1$CO$Pos$Oper$ctlVal".into(),
                    variable: "shed_home".into(),
                },
            ],
            gooses: vec![PlcGooseRule {
                gocb_ref: "GIED1LD0/LLN0$GO$gcb01".into(),
                index: 1,
                variable: "gen_trip".into(),
            }],
        }],
    }
}

/// The SCADA HMI configuration: Modbus to CPLC, direct MMS to two IEDs.
pub fn epic_scada_config() -> String {
    r#"<ScadaConfig name="EPIC-HMI">
  <DataSource name="CPLC" type="MODBUS" ip="10.0.5.19" port="502" unit="1" pollMs="500">
    <Point name="GenFeeder_kW" kind="holding" address="0"/>
    <Point name="HomeVolt_mpu" kind="holding" address="1"/>
    <Point name="CB_GEN_fb" kind="coil" address="1"/>
    <Point name="GenProt_trip" kind="coil" address="2"/>
    <Point name="CB_GEN_cmd" kind="coil" address="0" writable="true"/>
  </DataSource>
  <DataSource name="TIED1" type="MMS" ip="10.0.2.13" pollMs="1000">
    <Point name="MicroFeeder_MW" item="TIED1LD0/MMXU1$MX$TotW$mag$f"/>
  </DataSource>
  <DataSource name="MIED1" type="MMS" ip="10.0.3.15" pollMs="1000">
    <Point name="MicroVolt_pu" item="MIED1LD0/MMXU1$MX$PhV$phsA$cVal$mag$f"/>
  </DataSource>
  <Alarm point="MicroVolt_pu" kind="low" limit="0.9" message="Micro-grid undervoltage"/>
  <Alarm point="GenFeeder_kW" kind="high" limit="40" message="Generation feeder overload"/>
  <Alarm point="GenProt_trip" kind="true" message="Generation feeder protection operated"/>
</ScadaConfig>"#
        .to_string()
}

/// The power extra config: 100 ms interval and a residential-ish smart-home
/// load profile.
pub fn epic_power_extra() -> PowerExtraConfig {
    let mut config = PowerExtraConfig {
        interval_ms: 100,
        ..PowerExtraConfig::default()
    };
    config.schedule.profiles.push(Profile {
        target: ProfileTarget::LoadScaling(format!("{SUBSTATION}/Load1")),
        points: crate::profiles::residential(8, 60_000),
    });
    config.schedule.profiles.push(Profile {
        target: ProfileTarget::SgenScaling(format!("{SUBSTATION}/PV1")),
        points: crate::profiles::solar(8, 60_000),
    });
    config
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgcr_scl::parse_scl;

    #[test]
    fn ssd_parses_and_has_four_segments() {
        let text = epic_ssd();
        let doc = parse_scl(&text).unwrap();
        let substation = &doc.substations[0];
        assert_eq!(substation.name, SUBSTATION);
        let bays: Vec<&str> = substation.voltage_levels[0]
            .bays
            .iter()
            .map(|b| b.name.as_str())
            .collect();
        assert_eq!(bays, vec!["GenBay", "TransBay", "MicroBay", "HomeBay"]);
    }

    #[test]
    fn scd_parses_with_all_hosts() {
        let text = epic_scd();
        let doc = parse_scl(&text).unwrap();
        let comm = doc.communication.as_ref().unwrap();
        assert_eq!(comm.subnetworks.len(), 5);
        let host_count: usize = comm.subnetworks.iter().map(|s| s.connected_aps.len()).sum();
        assert_eq!(host_count, 10); // 8 IEDs + CPLC + SCADA
        assert_eq!(doc.ieds.len(), 8);
    }

    #[test]
    fn icds_declare_gating_lns() {
        let icds = epic_icds();
        assert_eq!(icds.len(), 8);
        let gied1 = parse_scl(&icds[0]).unwrap();
        assert!(gied1.ied("GIED1").unwrap().has_ln_class("PTOC"));
        assert!(!gied1.ied("GIED1").unwrap().has_ln_class("PTOV"));
    }

    #[test]
    fn supplementary_configs_parse() {
        let ied_config = IedConfig::parse(&epic_ied_config().to_xml()).unwrap();
        assert_eq!(ied_config.ieds.len(), 8);
        let plc_config = PlcConfig::parse(&epic_plc_config().to_xml()).unwrap();
        assert_eq!(plc_config.plcs.len(), 1);
        sgcr_scada::ScadaConfig::parse(&epic_scada_config()).unwrap();
        PowerExtraConfig::parse(&epic_power_extra().to_xml()).unwrap();
    }
}
