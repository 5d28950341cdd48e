//! The paper's §IV-B attack case studies, executed against the *generated*
//! EPIC cyber range: false command injection and ARP-spoofing MITM.

#![allow(clippy::unwrap_used, clippy::expect_used)] // test/example code may panic

use sg_cyber_range::attack::{
    CaptureSummary, FciAttackApp, FciPlan, MitmApp, MitmPlan, ProtocolClass, ScanPlan, ScannerApp,
    Transform,
};
use sg_cyber_range::core::{CompiledModel, CyberRange};
use sg_cyber_range::models::epic_bundle;
use sg_cyber_range::net::{Ipv4Addr, SimDuration};

fn epic_range() -> CyberRange {
    CyberRange::instantiate(
        CompiledModel::shared(&epic_bundle()).expect("EPIC bundle must compile"),
    )
    .expect("EPIC bundle must compile")
}

#[test]
fn fci_attack_opens_breaker_and_changes_power_flow() {
    let mut range = epic_range();
    range.run_for(SimDuration::from_secs(1));
    let before = range.last_result().line[0].p_from_mw.abs();
    assert!(before > 1e-6, "LGen carries power before the attack");

    // Compromised node on the generation segment's switch.
    range.add_host("malware-host", Ipv4Addr::new(10, 0, 1, 66), "GenBus");
    let victim = range.plan().host_ip("GIED1").unwrap();
    let (attack, report) = FciAttackApp::new(FciPlan {
        victim,
        item: "GIED1LD0/CSWI1$CO$Pos$Oper$ctlVal".into(),
        value: false, // forged OPEN
        at_ms: 2000,
        interrogate: true,
    });
    range.attach_app("malware-host", Box::new(attack));

    range.run_for(SimDuration::from_secs(3));

    let report = report.lock().clone();
    assert_eq!(report.command_accepted, Some(true));
    assert!(
        !report.discovered_items.is_empty(),
        "recon listed the victim's model"
    );
    // Physical impact: the generation feeder is de-energized.
    assert!(!range.last_result().line[0].in_service);
    let cb = range.power.switch_by_name("EPIC/CB_GEN").unwrap();
    assert!(!range.power.switch[cb.index()].closed);
    // SCADA sees the consequence through the PLC-mediated feedback.
    let scada = range.scada.as_ref().unwrap();
    assert_eq!(
        scada.tag_value("CB_GEN_fb"),
        Some(0.0),
        "HMI shows CB_GEN open"
    );
}

#[test]
fn mitm_falsifies_scada_measurements_in_generated_range() {
    let mut range = epic_range();
    range.run_for(SimDuration::from_secs(2));
    let scada = range.scada.as_ref().unwrap().clone();
    let truthful = scada.tag_value("MicroFeeder_MW").expect("polled");
    assert!(truthful.abs() > 1e-6);

    // Attacker between the SCADA HMI and TIED1 (the MMS data source).
    // SCADA sits on the control bus; its traffic to TIED1 crosses the WAN.
    // Position the attacker on the control bus and poison both ends.
    range.add_host("mitm-box", Ipv4Addr::new(10, 0, 5, 66), "ControlBus");
    let scada_ip = range.plan().host_ip("SCADA").unwrap();
    let tied1_ip = range.plan().host_ip("TIED1").unwrap();
    let (mitm, handle) = MitmApp::new(MitmPlan {
        victim_a: scada_ip,
        victim_b: tied1_ip,
        start_ms: 3000,
        stop_ms: u64::MAX,
        transform: Transform::ScaleMmsFloats(10.0),
    });
    range.attach_app("mitm-box", Box::new(mitm));

    range.run_for(SimDuration::from_secs(6));

    let falsified = scada.tag_value("MicroFeeder_MW").expect("still polled");
    let report = handle.lock().clone();
    assert!(report.position_established, "ARP position established");
    assert!(report.modified > 0, "MMS responses rewritten: {report:?}");
    assert!(
        (falsified - truthful * 10.0).abs() < truthful.abs(),
        "HMI shows ~10x the true value: true={truthful}, shown={falsified}"
    );
    // Ground truth in the process store is untouched.
    let true_now = range
        .store
        .get_float("meas/EPIC/branch/LMicro/p_mw")
        .unwrap();
    assert!((true_now - truthful).abs() < truthful.abs() * 0.5);
}

#[test]
fn recon_scan_maps_the_generation_segment() {
    let mut range = epic_range();
    range.add_host("recon-box", Ipv4Addr::new(10, 0, 1, 99), "GenBus");
    let (scanner, report) = ScannerApp::new(ScanPlan {
        first: Ipv4Addr::new(10, 0, 1, 1),
        last: Ipv4Addr::new(10, 0, 1, 30),
        ports: vec![102, 502],
        probe_interval: SimDuration::from_millis(20),
    });
    range.attach_app("recon-box", Box::new(scanner));
    range.run_for(SimDuration::from_secs(6));

    let report = report.lock().clone();
    assert!(report.finished);
    // GIED1 and GIED2 live on 10.0.1.x.
    let gied1 = range.plan().host_ip("GIED1").unwrap();
    let gied2 = range.plan().host_ip("GIED2").unwrap();
    let found: Vec<Ipv4Addr> = report.hosts.iter().map(|(ip, _)| *ip).collect();
    assert!(found.contains(&gied1), "{found:?}");
    assert!(found.contains(&gied2), "{found:?}");
    assert_eq!(report.open_ports.get(&gied1), Some(&vec![102]));
}

#[test]
fn capture_on_ied_sees_grid_protocol_mix() {
    let mut range = epic_range();
    let gied1 = range.node("GIED1").unwrap();
    range.net.enable_capture(gied1);
    range.run_for(SimDuration::from_secs(3));
    let summary = CaptureSummary::of(range.net.captured(gied1));
    // The IED terminates MMS sessions (CPLC polling) and hears GOOSE.
    assert!(summary.count(ProtocolClass::Mms) > 0, "{summary}");
    assert!(summary.count(ProtocolClass::Goose) > 0, "{summary}");
}

#[test]
fn mitm_drop_transform_denies_visibility_then_tcp_recovers() {
    let mut range = epic_range();
    range.run_for(SimDuration::from_secs(2));
    let scada = range.scada.as_ref().unwrap().clone();
    let fresh_before = scada.tag("MicroFeeder_MW").unwrap();
    assert!(fresh_before.updated_ms > 0);

    range.add_host("dropper", Ipv4Addr::new(10, 0, 5, 67), "ControlBus");
    let scada_ip = range.plan().host_ip("SCADA").unwrap();
    let tied1_ip = range.plan().host_ip("TIED1").unwrap();
    let (mitm, handle) = MitmApp::new(MitmPlan {
        victim_a: scada_ip,
        victim_b: tied1_ip,
        start_ms: 3_000,
        stop_ms: 8_000,
        transform: Transform::Drop,
    });
    range.attach_app("dropper", Box::new(mitm));

    // During the drop window the tag stops updating (denial of visibility).
    range.run_for(SimDuration::from_secs(5));
    let during = scada.tag("MicroFeeder_MW").unwrap();
    assert!(
        during.updated_ms < 4_500,
        "no fresh updates while traffic is blackholed: {}",
        during.updated_ms
    );
    let report = handle.lock().clone();
    assert!(report.dropped > 0, "{report:?}");

    // After repair, TCP retransmission + fresh polls recover the stream.
    range.run_for(SimDuration::from_secs(6));
    let after = scada.tag("MicroFeeder_MW").unwrap();
    assert!(
        after.updated_ms > 8_000,
        "updates resume after the attack window: {}",
        after.updated_ms
    );
}
