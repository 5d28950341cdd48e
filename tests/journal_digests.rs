//! Byte-identical journals, pinned: each run below journals its events and
//! the test compares the FNV-1a digest of the journal with a constant
//! recorded from an earlier build. A change that must not move the
//! simulation (a faster dispatch, a leaner store, a new counter) keeps
//! every constant; one that means to move it records the new constants and
//! says why.
//!
//! The journal is made comparable across builds and hosts in two ways: the
//! step budget is an hour, so no wall-clock `StepOverrun` enters it, and
//! the one wall-clock field, `SolveCompleted.seconds`, is stripped.

#![allow(clippy::unwrap_used, clippy::expect_used)] // test code may panic

use sg_cyber_range::attack::{MitmApp, MitmPlan, Transform};
use sg_cyber_range::core::{fnv1a_64, CompiledModel, CyberRange, RangeBuilder, SgmlBundle};
use sg_cyber_range::models::{epic_bundle, multisub_bundle, MultiSubParams};
use sg_cyber_range::net::{pcap, Dispatched, Ipv4Addr, SimDuration};
use sg_cyber_range::obs::Telemetry;
use sg_cyber_range::scenario::{run_exercise, Scenario};
use std::time::Duration;

/// Drops `SolveCompleted.seconds`, as `tests/checkpoint_determinism.rs`
/// does.
fn strip_wall_clock(journal: &str) -> String {
    journal
        .lines()
        .map(|line| match line.find(",\"seconds\":") {
            Some(start) => {
                let end = line[start..].find('}').map_or(line.len(), |j| start + j);
                format!("{}{}\n", &line[..start], &line[end..])
            }
            None => format!("{line}\n"),
        })
        .collect()
}

/// A range of `bundle` journaling into a fresh handle that keeps every
/// event, with a step budget no step can overrun.
fn journaled(bundle: &SgmlBundle) -> (CyberRange, Telemetry) {
    let telemetry = Telemetry::with_journal_capacity(1 << 20);
    let model = CompiledModel::shared(bundle).expect("the bundle compiles");
    let mut range = RangeBuilder::from_model(model)
        .telemetry(telemetry.clone())
        .build()
        .expect("the range instantiates");
    range.set_step_budget(Duration::from_secs(3600));
    (range, telemetry)
}

/// The number of events in the journal and the digest of its stripped
/// JSON Lines.
fn digest(telemetry: &Telemetry) -> (usize, u64) {
    let journal = strip_wall_clock(&telemetry.journal_jsonl());
    (journal.lines().count(), fnv1a_64(journal.as_bytes()))
}

fn step_to(range: &mut CyberRange, steps: u64) {
    while range.steps_total() < steps {
        range.step();
    }
}

#[test]
fn epic_to_step_1200() {
    let (mut range, telemetry) = journaled(&epic_bundle());
    step_to(&mut range, 1_200);
    assert_eq!(digest(&telemetry), (42_338, 0x12e57570580a9eba));
}

#[test]
fn paper_to_step_100() {
    let (mut range, telemetry) = journaled(&multisub_bundle(&MultiSubParams::paper_profile()));
    step_to(&mut range, 100);
    assert_eq!(digest(&telemetry), (1_071, 0x74b99a37046080ad));
}

/// 600 paper steps in which a load rises eightfold every 50 steps, a
/// different one each time, so its feeder's overcurrent element picks up,
/// times and trips.
#[test]
fn paper_load_ramp_with_trips() {
    let (mut range, telemetry) = journaled(&multisub_bundle(&MultiSubParams::paper_profile()));
    let loads = range.power.load.len();
    for i in 0..600 {
        if i % 50 == 10 {
            range.power.load[(i / 50 * 7) % loads].p_mw *= 8.0;
        }
        range.step();
    }
    let trips = telemetry
        .events()
        .iter()
        .filter(|r| r.event.kind() == "ProtectionTrip")
        .count();
    assert_eq!(trips, 12);
    assert_eq!(digest(&telemetry), (3_599, 0x1e95d3d1f7eb50e9));
}

/// Runs a shipped exercise at fault seed 42 and returns its digest and the
/// digest of its text report.
fn exercise(file: &str) -> ((usize, u64), u64) {
    let path = format!("{}/examples/scenarios/{file}", env!("CARGO_MANIFEST_DIR"));
    let mut scenario = Scenario::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
    scenario.fault_seed = Some(42);
    let (mut range, telemetry) = journaled(&epic_bundle());
    let report = run_exercise(&mut range, &scenario).expect("the exercise runs");
    (digest(&telemetry), fnv1a_64(report.to_text().as_bytes()))
}

#[test]
fn epic_adversary_exercise() {
    assert_eq!(
        exercise("epic_adversary.scenario.xml"),
        ((3_696, 0x276b8ef5260fa448), 0x57c42d05ef613839)
    );
}

#[test]
fn epic_faults_exercise() {
    assert_eq!(
        exercise("epic_faults.scenario.xml"),
        ((3_643, 0x1408a03123e38033), 0xcb20c4755143fdc6)
    );
}

#[test]
fn epic_fci_exercise() {
    assert_eq!(
        exercise("epic_fci.scenario.xml"),
        ((3_567, 0x5e4b00524db23cd9), 0x7985bc58f56773af)
    );
}

#[test]
fn epic_mitm_exercise() {
    assert_eq!(
        exercise("epic_mitm.scenario.xml"),
        ((4_848, 0x71c7b6647fccb383), 0xc2ee3ffb4819d800)
    );
}

/// The wire, pinned: journals record packet sizes, not packet bytes, so the
/// length and digest of the pcap that `examples/capture_traffic.rs` writes
/// (EPIC, 5 s, taps on SCADA and GIED1, telemetry off) guard every byte.
#[test]
fn epic_capture_pcap() {
    let model = CompiledModel::shared(&epic_bundle()).expect("the bundle compiles");
    let mut range = CyberRange::instantiate(model).expect("the range instantiates");
    let scada = range.node("SCADA").expect("SCADA host");
    let gied1 = range.node("GIED1").expect("GIED1 host");
    range.net.enable_capture(scada);
    range.net.enable_capture(gied1);
    range.run_for(SimDuration::from_secs(5));
    let pcap_of = |node| {
        let pcap = pcap::to_pcap(range.net.captured(node));
        (pcap.len(), fnv1a_64(&pcap))
    };
    assert_eq!(
        (pcap_of(scada), pcap_of(gied1)),
        ((15_893, 0xe499747efcab79f2), (16_058, 0x682195df6c9fce3b))
    );
}

/// The bytes a man in the middle forwards, pinned: the setup of
/// `tests/attack_case_studies.rs`'s `ScaleMmsFloats` case (an attacker on
/// the control bus between the SCADA HMI and TIED1 from 3 s, scaling every
/// MMS float tenfold), with a tap on SCADA for all 8 s. The pcap holds the
/// MMS replies the attacker rewrote and the frames it forwarded as they
/// were.
#[test]
fn epic_mitm_capture_pcap() {
    let model = CompiledModel::shared(&epic_bundle()).expect("the bundle compiles");
    let mut range = CyberRange::instantiate(model).expect("the range instantiates");
    let scada = range.node("SCADA").expect("SCADA host");
    range.net.enable_capture(scada);
    range.run_for(SimDuration::from_secs(2));
    range.add_host("mitm-box", Ipv4Addr::new(10, 0, 5, 66), "ControlBus");
    let (mitm, handle) = MitmApp::new(MitmPlan {
        victim_a: range.plan().host_ip("SCADA").expect("SCADA address"),
        victim_b: range.plan().host_ip("TIED1").expect("TIED1 address"),
        start_ms: 3000,
        stop_ms: u64::MAX,
        transform: Transform::ScaleMmsFloats(10.0),
    });
    range.attach_app("mitm-box", Box::new(mitm));
    range.run_for(SimDuration::from_secs(6));
    assert!(handle.lock().modified > 0, "the attacker rewrote replies");
    let pcap = pcap::to_pcap(range.net.captured(scada));
    assert_eq!((pcap.len(), fnv1a_64(&pcap)), (23_891, 0x7ac14f4c82509a9c));
}

/// The events the network dispatched, by kind, telemetry off.
fn dispatched_at(bundle: &SgmlBundle, steps: u64) -> Dispatched {
    let model = CompiledModel::shared(bundle).expect("the bundle compiles");
    let mut range = CyberRange::instantiate(model).expect("the range instantiates");
    step_to(&mut range, steps);
    range.net.dispatched()
}

#[test]
fn epic_dispatched_to_step_1200() {
    assert_eq!(
        dispatched_at(&epic_bundle(), 1_200),
        Dispatched {
            app_timers: 5_812,
            tcp_timers: 3_358,
            frames: 69_121,
        }
    );
}

#[test]
fn paper_dispatched_to_step_1000() {
    assert_eq!(
        dispatched_at(&multisub_bundle(&MultiSubParams::paper_profile()), 1_000),
        Dispatched {
            app_timers: 2_708,
            tcp_timers: 1_000,
            frames: 7_822,
        }
    );
}
