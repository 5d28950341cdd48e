//! Deterministic fault injection end-to-end: a seeded faulted run replays
//! byte-identically (journal and counters), a different seed produces a
//! different impairment pattern, and power-flow non-convergence degrades
//! measurement quality instead of presenting silently-fresh values.

#![allow(clippy::unwrap_used, clippy::expect_used)] // test/example code may panic

use sg_cyber_range::core::{CompiledModel, CyberRange, RangeBuilder};
use sg_cyber_range::faults::LinkFault;
use sg_cyber_range::models::epic_bundle;
use sg_cyber_range::net::SimDuration;
use sg_cyber_range::obs::{Event, Telemetry};
use sg_cyber_range::scada::Quality;

/// Runs the EPIC range for six seconds with a lossy, jittery SCADA access
/// link under the given fault seed. Returns the full event journal and the
/// metric counters. (Histograms record wall-clock solve times, so only the
/// counters are replay-comparable.)
fn faulted_run(seed: u64) -> (String, Vec<(String, u64)>) {
    let bundle = epic_bundle();
    let telemetry = Telemetry::new();
    let mut range =
        RangeBuilder::from_model(CompiledModel::shared(&bundle).expect("bundle compiles"))
            .telemetry(telemetry.clone())
            .fault_seed(seed)
            .build()
            .expect("EPIC bundle must compile");
    let fault = LinkFault {
        loss: 0.15,
        jitter_ns: 2_000_000,
        ..LinkFault::default()
    };
    assert!(range.set_link_fault("SCADA", "ControlBus", fault));
    range.run_for(SimDuration::from_secs(6));
    (telemetry.journal_jsonl(), telemetry.snapshot().counters)
}

fn counter(counters: &[(String, u64)], name: &str) -> u64 {
    counters
        .iter()
        .find(|(n, _)| n == name)
        .map_or(0, |(_, v)| *v)
}

/// Drops the one wall-clock field in the journal (`SolveCompleted.seconds`)
/// so two replays of the same simulation compare byte-identically.
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

#[test]
fn same_seed_replays_byte_identically() {
    let (journal_a, counters_a) = faulted_run(42);
    let (journal_b, counters_b) = faulted_run(42);
    assert!(
        counter(&counters_a, "net.frames_dropped") > 0,
        "a 15% lossy link must drop frames: {counters_a:?}"
    );
    assert_eq!(
        strip_wall_clock(&journal_a),
        strip_wall_clock(&journal_b),
        "same seed must replay byte-identically (modulo wall-clock solve time)"
    );
    assert_eq!(counters_a, counters_b);
}

#[test]
fn different_seed_changes_the_impairment_pattern() {
    let (journal_a, counters_a) = faulted_run(1);
    let (journal_b, counters_b) = faulted_run(2);
    assert!(counter(&counters_a, "net.frames_dropped") > 0);
    assert!(counter(&counters_b, "net.frames_dropped") > 0);
    assert_ne!(
        strip_wall_clock(&journal_a),
        strip_wall_clock(&journal_b),
        "different seeds must draw different loss/jitter patterns"
    );
}

#[test]
fn snapshot_restore_replays_byte_identically_from_shared_model() {
    let model = CompiledModel::shared(&epic_bundle()).expect("EPIC bundle must compile");
    let fault = LinkFault {
        loss: 0.15,
        jitter_ns: 2_000_000,
        ..LinkFault::default()
    };

    // Two independent tenants stamped out from the *same* Arc'd model.
    let first_telemetry = Telemetry::new();
    let mut tenant_a = RangeBuilder::from_model(model.clone())
        .telemetry(first_telemetry.clone())
        .fault_seed(7)
        .build()
        .expect("instantiates from shared model");
    let tenant_b = CyberRange::instantiate(model.clone()).expect("second tenant instantiates");
    assert!(
        std::sync::Arc::ptr_eq(tenant_a.model(), tenant_b.model()),
        "tenants share one compiled model, not copies"
    );

    // A checkpoint captured at step 0 is the restart recipe: the model
    // fingerprint plus tenant A's settings (fault seed included).
    let restart = tenant_a.checkpoint();
    assert!(tenant_a.set_link_fault("SCADA", "ControlBus", fault));
    tenant_a.run_for(SimDuration::from_secs(6));
    let first_journal = first_telemetry.journal_jsonl();
    assert!(tenant_a.steps_total() > 0);
    assert_eq!(
        tenant_b.steps_total(),
        0,
        "tenant A's run never leaks into B"
    );

    // Resuming the step-0 checkpoint rebuilds tenant A at generation zero
    // and replays nothing; running the same fault under the same seed is
    // byte-identical to the first run — as often as it is resumed.
    for replay in ["restarted", "second restarted"] {
        let replay_telemetry = Telemetry::new();
        let mut restarted = restart
            .resume(model.clone(), replay_telemetry.clone())
            .expect("restart succeeds");
        assert_eq!(
            restarted.steps_total(),
            0,
            "restart rewinds to generation zero"
        );
        assert!(restarted.set_link_fault("SCADA", "ControlBus", fault));
        restarted.run_for(SimDuration::from_secs(6));
        assert_eq!(
            strip_wall_clock(&first_journal),
            strip_wall_clock(&replay_telemetry.journal_jsonl()),
            "{replay} range must replay byte-identically (modulo wall-clock solve time)"
        );
    }
}

#[test]
fn nonconvergence_holds_measurements_and_degrades_quality() {
    let bundle = epic_bundle();
    let telemetry = Telemetry::new();
    let mut range =
        RangeBuilder::from_model(CompiledModel::shared(&bundle).expect("bundle compiles"))
            .telemetry(telemetry.clone())
            .build()
            .expect("EPIC bundle must compile");
    range.run_for(SimDuration::from_secs(2));
    let scada = range.scada.as_ref().unwrap().clone();
    assert_eq!(scada.tag("GenFeeder_kW").unwrap().quality, Quality::Good);
    assert!(!range.measurements_held());

    // Poison a load so every subsequent power-flow solve fails.
    let load = range.power.load_by_name("EPIC/Load1").unwrap();
    let original_p_mw = range.power.load[load.index()].p_mw;
    range.power.load[load.index()].p_mw = f64::NAN;
    range.run_for(SimDuration::from_secs(3));

    assert!(range.measurements_held(), "failed solves hold measurements");
    assert!(range.solve_errors_total() > 0);
    // Tags polled after the first failed solve carry `Invalid` quality, so
    // the good-only numeric accessor refuses them — nothing downstream can
    // mistake held data for fresh data.
    assert_eq!(scada.tag("GenFeeder_kW").unwrap().quality, Quality::Invalid);
    assert!(scada.tag_value("GenFeeder_kW").is_none());
    assert!(telemetry
        .events()
        .iter()
        .any(|r| matches!(&r.event, Event::MeasurementsHeld { .. })));

    // Repair the model: the solver recovers, degradation clears, and the
    // next poll round restores Good quality.
    range.power.load[load.index()].p_mw = original_p_mw;
    range.run_for(SimDuration::from_secs(3));
    assert!(!range.measurements_held(), "recovery clears the hold");
    assert_eq!(scada.tag("GenFeeder_kW").unwrap().quality, Quality::Good);
    assert!(scada.tag_value("GenFeeder_kW").is_some());
    assert!(telemetry
        .events()
        .iter()
        .any(|r| matches!(&r.event, Event::MeasurementsRecovered { .. })));
}

#[test]
fn crashed_ied_recovers_after_scheduled_restart() {
    let mut range =
        CyberRange::instantiate(CompiledModel::shared(&epic_bundle()).expect("EPIC compiles"))
            .expect("EPIC compiles");
    range.run_for(SimDuration::from_secs(2));
    let scada = range.scada.as_ref().unwrap().clone();
    let before = scada.tag("MicroVolt_pu").unwrap();

    // MIED1 crashes and is watchdog-restarted two seconds later.
    assert!(range.crash_host("MIED1", Some(2_000)));
    range.run_for(SimDuration::from_secs(2));
    let during = scada.tag("MicroVolt_pu").unwrap();
    assert!(
        during.updated_ms <= before.updated_ms + 1100,
        "no fresh polls while the source is down: {} vs {}",
        during.updated_ms,
        before.updated_ms
    );

    // After the restart the MMS server answers again and polling resumes.
    range.run_for(SimDuration::from_secs(4));
    let after = scada.tag("MicroVolt_pu").unwrap();
    assert!(
        after.updated_ms > during.updated_ms,
        "polling resumes after the scheduled restart"
    );
}
