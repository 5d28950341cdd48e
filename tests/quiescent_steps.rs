//! A quiescent step touches nothing. A step whose power network was not
//! written since the last converged solve replays that solve's result: the
//! paper profile has no load schedule, so it solves once and replays every
//! step after. Each path by which a range's inputs change — a direct write
//! to `range.power`, a breaker command through the store, a profile point,
//! a set-point's sign bit — makes that step solve again and agree with a
//! one-shot solve, and the next quiescent step replays again. A write that
//! leaves every bit as it was also solves again, with the replay's answer;
//! a command that repeats an element's state and a read are no write.
//!
//! The publish then writes only the measurements whose value changed, and
//! an IED none of whose inputs changed skips its sample. Each way an IED's
//! inputs can change — a store write, a breaker, a sensor fault, the
//! degradation signal, a timing relay, GOOSE supervision, an R-SV stream —
//! still reaches its data model at its next sample.

#![allow(clippy::unwrap_used, clippy::expect_used)] // test code may panic

use sg_cyber_range::core::{
    branch_i_key, branch_p_key, breaker_cmd_key, CompiledModel, CyberRange, IedConfig, SgmlBundle,
    SIM_STEP_KEY,
};
use sg_cyber_range::faults::SensorFault;
use sg_cyber_range::iec61850::DataValue;
use sg_cyber_range::ied::{quality_item, IedEventKind, IedHandle, RsvSpec};
use sg_cyber_range::kvstore::{ProcessStore, Value};
use sg_cyber_range::models::{epic_bundle, multisub_bundle, MultiSubParams};
use sg_cyber_range::net::{HostCtx, Ipv4Addr, SimDuration, SocketApp};
use sg_cyber_range::powerflow::{solve, PowerFlowResult, SolveOptions};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

fn range(bundle: &SgmlBundle) -> CyberRange {
    CyberRange::instantiate(CompiledModel::shared(bundle).unwrap()).unwrap()
}

fn paper_range() -> CyberRange {
    range(&multisub_bundle(&MultiSubParams::paper_profile()))
}

/// Asserts `a` and `b` agree in every bus voltage (angle in radians) and
/// branch flow (on the system MVA base) to the solver's convergence
/// tolerance in per-unit: a warm-started and a flat-started solve stop at
/// different points inside it (1.8e-9 pu apart at EPIC's profile point).
fn assert_agree(a: &PowerFlowResult, b: &PowerFlowResult, s_base: f64, what: &str) {
    let tolerance = SolveOptions::default().tolerance;
    let close = |x: f64, y: f64| (x - y).abs() <= tolerance;
    for (i, (x, y)) in a.bus.iter().zip(&b.bus).enumerate() {
        assert!(
            close(x.vm_pu, y.vm_pu) && close(x.va_degree.to_radians(), y.va_degree.to_radians()),
            "{what}: bus {i}: {x:?} vs {y:?}"
        );
        assert_eq!(x.energized, y.energized, "{what}: bus {i}");
    }
    let branches = |r: &PowerFlowResult| r.line.iter().chain(&r.trafo).copied().collect::<Vec<_>>();
    for (i, (x, y)) in branches(a).iter().zip(&branches(b)).enumerate() {
        assert!(
            close(x.p_from_mw / s_base, y.p_from_mw / s_base)
                && close(x.q_from_mvar / s_base, y.q_from_mvar / s_base),
            "{what}: branch {i}: {x:?} vs {y:?}"
        );
    }
}

/// Steps `range` once after its inputs changed: the step must solve again
/// and agree with a one-shot solve, and the next step must replay.
fn assert_solves_again(range: &mut CyberRange, what: &str) {
    let reused = range.solver_stats().reused;
    range.step();
    assert_eq!(range.solver_stats().reused, reused, "{what}: solved again");
    let fresh = solve(&range.power).expect("converges");
    assert_agree(range.last_result(), &fresh, range.power.sn_mva_base, what);
    range.step();
    assert_eq!(
        range.solver_stats().reused,
        reused + 1,
        "{what}: the next step replays"
    );
}

#[test]
fn paper_steps_replay_the_first_solve() {
    let mut range = paper_range();
    range.step();
    // What a warm re-solve of a converged network reports.
    assert_eq!(range.last_result().iterations, 1);
    let first = format!("{:?}", range.last_result());
    for step in 2..=200 {
        range.step();
        assert_eq!(format!("{:?}", range.last_result()), first, "step {step}");
    }
    let stats = range.solver_stats();
    assert_eq!((stats.solves, stats.reused), (201, 200), "{stats:?}");
    assert_eq!(stats.analyses, 1);
}

#[test]
fn every_input_path_solves_again() {
    let mut paper = paper_range();
    paper.step();

    paper.power.load[0].p_mw *= 1.05;
    assert_solves_again(&mut paper, "direct load write");

    let breaker = paper
        .power
        .switch
        .iter()
        .find(|s| s.closed)
        .map(|s| s.name.clone())
        .expect("a closed breaker");
    paper
        .store
        .set(&breaker_cmd_key(&breaker), Value::Bool(false));
    assert_solves_again(&mut paper, "breaker command");
    assert_eq!(paper.switch_is_closed(&breaker), Some(false));

    let slack = paper.power.ext_grid[0].bus.index();
    assert_eq!(
        paper.power.ext_grid[0].va_degree.to_bits(),
        0.0f64.to_bits()
    );
    paper.power.ext_grid[0].va_degree = -0.0;
    assert_solves_again(&mut paper, "slack angle -0.0");
    let va = paper.last_result().bus[slack].va_degree;
    assert_eq!(va.to_bits(), (-0.0f64).to_bits(), "slack angle {va:?}");

    // EPIC's load and solar profiles move every 60 s. The first step
    // applies their first point; the steps up to the next one replay.
    let mut epic = range(&epic_bundle());
    epic.step();
    let reused = epic.solver_stats().reused;
    assert_eq!(reused, 0, "the first profile point");
    let steps = 60_000 / epic.interval.as_millis() - 2;
    for _ in 0..steps {
        epic.step();
    }
    let reused = epic.solver_stats().reused;
    assert_eq!(reused, steps, "EPIC replays between profile points");
    epic.step();
    assert_eq!(epic.now().as_millis(), 60_000);
    assert_eq!(
        epic.solver_stats().reused,
        reused,
        "profile point: solved again"
    );
    let fresh = solve(&epic.power).expect("converges");
    assert_agree(
        epic.last_result(),
        &fresh,
        epic.power.sn_mva_base,
        "profile point",
    );
    epic.step();
    assert_eq!(
        epic.solver_stats().reused,
        reused + 1,
        "profile point: next step replays"
    );
}

#[test]
fn a_write_of_the_same_bits_solves_again() {
    let mut paper = paper_range();
    paper.step();
    let replayed = format!("{:?}", paper.last_result());
    paper.power.load[0].p_mw = f64::from_bits(paper.power.load[0].p_mw.to_bits());
    let reused = paper.solver_stats().reused;
    paper.step();
    assert_eq!(paper.solver_stats().reused, reused, "solved again");
    assert_eq!(format!("{:?}", paper.last_result()), replayed);
    paper.step();
    assert_eq!(
        paper.solver_stats().reused,
        reused + 1,
        "the next step replays"
    );
}

#[test]
fn a_command_that_repeats_a_breakers_state_replays() {
    let mut paper = paper_range();
    paper.step();
    let breaker = paper
        .power
        .switch
        .iter()
        .find(|s| s.closed)
        .map(|s| s.name.clone())
        .expect("a closed breaker");
    paper
        .store
        .set(&breaker_cmd_key(&breaker), Value::Bool(true));
    let reused = paper.solver_stats().reused;
    paper.step();
    assert_eq!(paper.solver_stats().reused, reused + 1, "replayed");
    assert_eq!(paper.switch_is_closed(&breaker), Some(true));
}

#[test]
fn reading_the_network_between_steps_replays() {
    let mut paper = paper_range();
    paper.step();
    let breaker = paper.power.switch[0].name.clone();
    let bus = paper.power.bus[0].name.clone();
    for step in 0..3 {
        let reused = paper.solver_stats().reused;
        assert!(paper.switch_is_closed(&breaker).is_some());
        assert!(paper.bus_voltage_pu(&bus).is_some_and(|vm| vm > 0.0));
        let closed = paper.power.switch.iter().filter(|s| s.closed).count();
        assert!(closed > 0, "{closed} closed switches");
        paper.step();
        assert_eq!(
            paper.solver_stats().reused,
            reused + 1,
            "read before step {step}"
        );
    }
}

/// Steps `range` past its start-up: the first sample of every IED is full,
/// and the first step's warm re-solve may move the last bits of a value.
fn settle(range: &mut CyberRange) {
    for _ in 0..3 {
        range.step();
    }
}

fn full_samples(range: &CyberRange) -> u64 {
    range.ieds.values().map(IedHandle::full_samples).sum()
}

/// Steps `range` once and returns how many full samples `ied` took in it
/// (an IED samples once per 100 ms step).
fn step_counting(range: &mut CyberRange, ied: &str) -> u64 {
    let before = range.ieds[ied].full_samples();
    range.step();
    range.ieds[ied].full_samples() - before
}

/// The value of `item` in `ied`'s logical device.
fn leaf(range: &CyberRange, ied: &str, item: &str) -> DataValue {
    range.ieds[ied]
        .model
        .read(&format!("{ied}LD0/{item}"))
        .expect("the leaf exists")
}

#[test]
fn a_quiescent_step_writes_only_the_step_counter() {
    let mut range = paper_range();
    settle(&mut range);
    let before = range.store.dump();
    let version = range.store.version();
    let samples = full_samples(&range);
    for step in 1..=200 {
        range.step();
        assert_eq!(range.store.version(), version + step, "step {step}");
    }
    let after = range.store.dump();
    assert_eq!(before.len(), after.len());
    let rewritten: Vec<&str> = before
        .iter()
        .zip(&after)
        .filter(|(b, a)| b.1.version != a.1.version)
        .map(|(b, _)| b.0.as_str())
        .collect();
    assert_eq!(rewritten, [SIM_STEP_KEY]);
    assert_eq!(full_samples(&range), samples, "no IED sampled in full");

    // The publish compares against the store, not its last result: an
    // FCI-style write to a measurement is overwritten by the next step.
    let key = branch_p_key("S3/LF7");
    let solved = range.store.get(&key).expect("published");
    range.store.set(&key, Value::Float(-1.0));
    range.step();
    assert_eq!(range.store.get(&key), Some(solved));
}

/// Writes -1.0 under `key` once, `after` its start: a cyber-side writer
/// that acts in the middle of a step.
struct MidStepWriter {
    store: ProcessStore,
    key: String,
    after: SimDuration,
    wrote: Arc<AtomicBool>,
}

impl SocketApp for MidStepWriter {
    fn on_start(&mut self, ctx: &mut HostCtx<'_>) {
        ctx.set_timer(self.after, 0);
    }

    fn on_timer(&mut self, _ctx: &mut HostCtx<'_>, _token: u64) {
        self.store.set(&self.key, Value::Float(-1.0));
        self.wrote.store(true, Ordering::Relaxed);
    }
}

/// A write to a published measurement from the cyber half of a quiet step
/// is overwritten by that same step's publish: the solve replays, but the
/// store moved since the range's last publish.
#[test]
fn a_write_during_a_quiet_step_is_overwritten_by_its_publish() {
    let mut range = paper_range();
    settle(&mut range);
    let key = branch_p_key("S3/LF7");
    let solved = range.store.get(&key).expect("published");
    let plan = range.plan();
    let switch = plan
        .switches
        .iter()
        .find(|s| !s.is_wan)
        .unwrap()
        .name
        .clone();
    range.add_host("writer", Ipv4Addr::new(10, 250, 0, 1), &switch);
    let wrote = Arc::new(AtomicBool::new(false));
    let writer = MidStepWriter {
        store: range.store.clone(),
        key: key.clone(),
        after: SimDuration::from_millis(range.interval.as_millis() / 2),
        wrote: wrote.clone(),
    };
    range.attach_app("writer", Box::new(writer));

    let reused = range.solver_stats().reused;
    range.step();
    assert!(
        wrote.load(Ordering::Relaxed),
        "the write landed in the step"
    );
    assert_eq!(
        range.solver_stats().reused,
        reused + 1,
        "the solve replayed"
    );
    assert_eq!(range.store.get(&key), Some(solved.clone()));

    // Nothing moves in the next step: it writes only the step counter.
    let version = range.store.version();
    range.step();
    assert_eq!(range.solver_stats().reused, reused + 2);
    assert_eq!(range.store.version(), version + 1);
    assert_eq!(range.store.get(&key), Some(solved));
}

#[test]
fn each_wake_path_reaches_a_quiet_paper_ied() {
    let mut range = paper_range();
    let ied = "S2IED3";
    let p_key = branch_p_key("S2/LF3");
    let (tot_w, pos) = ("MMXU1$MX$TotW$mag$f", "XCBR1$ST$Pos$stVal");
    let load = range.power.load_by_name("S2/LOAD3").unwrap().index();
    settle(&mut range);
    assert_eq!(step_counting(&mut range, ied), 0, "quiet");
    let solved = |range: &CyberRange| {
        let p = range.store.get_float(&p_key).unwrap();
        DataValue::Float(p as f32)
    };

    // A measurement written through the store; the next publish puts the
    // solved value back.
    let quiet = solved(&range);
    range.store.set(&p_key, Value::Float(7.25));
    assert_eq!(step_counting(&mut range, ied), 1, "store write");
    assert_eq!(leaf(&range, ied, tot_w), DataValue::Float(7.25));
    assert_eq!(step_counting(&mut range, ied), 1, "publish");
    assert_eq!(leaf(&range, ied, tot_w), quiet);
    assert_eq!(step_counting(&mut range, ied), 0, "quiet again");

    // A breaker position change: the step applies the command after the
    // IEDs sampled, the next sample sees the open breaker.
    let cmd = breaker_cmd_key("S2/CB3");
    range.store.set(&cmd, Value::Bool(false));
    assert_eq!(step_counting(&mut range, ied), 0, "a command is no input");
    assert_eq!(step_counting(&mut range, ied), 1, "breaker opened");
    assert_eq!(leaf(&range, ied, pos), DataValue::dbpos_off());
    range.store.set(&cmd, Value::Bool(true));
    range.step();
    assert_eq!(step_counting(&mut range, ied), 1, "breaker closed");
    assert_eq!(leaf(&range, ied, pos), DataValue::dbpos_on());
    assert_eq!(step_counting(&mut range, ied), 0, "quiet again");

    // A stuck sensor holds the value it first sampled while the feeder
    // moves; cleared, it reads the feeder again.
    assert!(range.set_sensor_fault(ied, &p_key, SensorFault::Stuck));
    assert_eq!(step_counting(&mut range, ied), 1, "stuck engaged");
    let held = leaf(&range, ied, tot_w);
    range.power.load[load].p_mw *= 2.0;
    range.step();
    assert_eq!(step_counting(&mut range, ied), 1, "stuck");
    assert_eq!(leaf(&range, ied, tot_w), held);
    assert_ne!(solved(&range), held, "the feeder moved");
    assert!(range.clear_sensor_fault(ied, &p_key));
    assert_eq!(step_counting(&mut range, ied), 1, "stuck cleared");
    assert_eq!(leaf(&range, ied, tot_w), solved(&range));
    assert_eq!(step_counting(&mut range, ied), 0, "quiet again");

    // A drifting sensor moves on its own while its input stands still.
    let truth = solved(&range);
    let drift = SensorFault::Drift { per_sec: 10.0 };
    assert!(range.set_sensor_fault(ied, &p_key, drift));
    let mut seen = vec![truth.clone()];
    for _ in 0..3 {
        assert_eq!(step_counting(&mut range, ied), 1, "drifting");
        seen.push(leaf(&range, ied, tot_w));
    }
    seen.dedup();
    assert_eq!(seen.len(), 4, "every sample drifts further: {seen:?}");
    assert!(range.clear_sensor_fault(ied, &p_key));
    assert_eq!(step_counting(&mut range, ied), 1, "drift cleared");
    assert_eq!(leaf(&range, ied, tot_w), truth);
    assert_eq!(step_counting(&mut range, ied), 0, "quiet again");

    // Degradation raised and cleared flips the quality leaf.
    let quality = quality_item(tot_w);
    let degradation = range.ieds[ied].degradation();
    degradation.set(true);
    assert_eq!(step_counting(&mut range, ied), 1, "degraded");
    assert_eq!(
        leaf(&range, ied, &quality),
        DataValue::Str("invalid".into())
    );
    assert_eq!(step_counting(&mut range, ied), 0, "quiet while degraded");
    degradation.set(false);
    assert_eq!(step_counting(&mut range, ied), 1, "recovered");
    assert_eq!(leaf(&range, ied, &quality), DataValue::Str("good".into()));
    assert_eq!(step_counting(&mut range, ied), 0, "quiet again");

    // A PTOC input raised above pickup once and then left constant still
    // trips after its 300 ms delay: a timing relay samples every period.
    let i_key = branch_i_key("S2/LF3");
    range.power.load[load].p_mw = 1.0;
    range.step();
    assert!(
        range.store.get_float(&i_key).unwrap() > 0.012,
        "above pickup"
    );
    for step in 0..4 {
        assert_eq!(step_counting(&mut range, ied), 1, "timing, step {step}");
    }
    let handle = &range.ieds[ied];
    let pickup = handle.events_of(IedEventKind::ProtectionPickup);
    let trip = handle.events_of(IedEventKind::ProtectionTrip);
    assert_eq!((pickup.len(), trip.len()), (1, 1), "{:?}", handle.events());
    assert_eq!(trip[0].time_ms, pickup[0].time_ms + 300);
    assert_eq!(
        step_counting(&mut range, ied),
        1,
        "the trip opened the breaker"
    );
    assert_eq!(leaf(&range, ied, pos), DataValue::dbpos_off());
    assert_eq!(
        step_counting(&mut range, ied),
        0,
        "an operated relay is quiet"
    );
}

#[test]
fn goose_expiry_and_resumption_reach_a_quiet_interlock() {
    let mut epic = range(&epic_bundle());
    let ena_cls = "CILO1$ST$EnaCls$stVal";
    settle(&mut epic);
    assert_eq!(leaf(&epic, "SIED1", ena_cls), DataValue::Bool(true));
    // SIED1's interlock watches TIED2's GOOSE stream. Crash TIED2: once the
    // stream's time allowed to live runs out twice over, closing is blocked.
    assert!(epic.crash_host("TIED2", None));
    let samples = epic.ieds["SIED1"].full_samples();
    let mut steps = 0;
    while leaf(&epic, "SIED1", ena_cls) == DataValue::Bool(true) {
        epic.step();
        steps += 1;
        assert!(steps < 100, "the TAL expired");
    }
    assert!(
        epic.ieds["SIED1"].full_samples() > samples,
        "expiry woke SIED1"
    );
    // No receipt arrives while the stream is expired: nothing to sample.
    assert_eq!(step_counting(&mut epic, "SIED1"), 0, "quiet while expired");
    assert!(epic.restart_host("TIED2"));
    let samples = epic.ieds["SIED1"].full_samples();
    let mut steps = 0;
    while leaf(&epic, "SIED1", ena_cls) == DataValue::Bool(false) {
        epic.step();
        steps += 1;
        assert!(steps < 30, "the stream resumed");
    }
    assert!(
        epic.ieds["SIED1"].full_samples() > samples,
        "a receipt woke SIED1"
    );
}

/// An IED that publishes R-SV sends a frame on every sample, and one whose
/// sampled leaf an MMS client may write must put the process value back
/// over the client's: both take every sample, however quiet their inputs.
#[test]
fn rsv_publishers_and_client_writable_leaves_sample_every_period() {
    let mut bundle = multisub_bundle(&MultiSubParams {
        substations: 2,
        total_ieds: 4,
        interval_ms: 100,
    });
    let mut config = IedConfig::parse(bundle.ied_config.as_ref().unwrap()).unwrap();
    let publisher = config.ieds.iter_mut().find(|s| s.name == "S2IED1").unwrap();
    publisher.rsv = Some(RsvSpec {
        sv_id: "S2IED1-SV".into(),
        current_key: branch_i_key("S2/LF1"),
        peers: vec![Ipv4Addr::new(10, 1, 0, 10)],
        subscribe_sv_id: None,
    });
    let set_point = "MMXU1$SP$TotW$mag$f";
    let writable = config.ieds.iter_mut().find(|s| s.name == "S1IED2").unwrap();
    writable.measurements[0].item = set_point.into();
    bundle.ied_config = Some(config.to_xml());
    let mut range = range(&bundle);
    settle(&mut range);
    let counts = |range: &CyberRange| {
        let mut counts: Vec<(String, u64)> = range
            .ieds
            .iter()
            .map(|(name, ied)| (name.clone(), ied.full_samples()))
            .collect();
        counts.sort();
        counts
    };
    let before = counts(&range);
    for _ in 0..20 {
        range.step();
    }
    let grew: Vec<(String, u64)> = before
        .iter()
        .zip(counts(&range))
        .map(|((name, b), (_, a))| (name.clone(), a - b))
        .collect();
    let expected = [("S1IED1", 0), ("S1IED2", 20), ("S2IED1", 20), ("S2IED2", 0)];
    let expected: Vec<(String, u64)> = expected.iter().map(|(n, c)| (n.to_string(), *c)).collect();
    assert_eq!(grew, expected);

    // What an MMS client's write to the set point does: the next sample
    // puts the process value back.
    let process = leaf(&range, "S1IED2", set_point);
    let item = format!("S1IED2LD0/{set_point}");
    assert!(range.ieds["S1IED2"]
        .model
        .write(&item, DataValue::Float(99.0)));
    range.step();
    assert_eq!(leaf(&range, "S1IED2", set_point), process);
}
