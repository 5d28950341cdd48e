//! A step whose power network did not change since the last converged solve
//! is answered from the solver's record: the paper profile has no load
//! schedule, so it solves once and replays every step after. Each path by
//! which a range's inputs change — a direct write to `range.power`, a
//! breaker command through the store, a profile point, a set-point's sign
//! bit — makes that step solve again and agree with a one-shot solve, and
//! the next quiescent step replays again.

#![allow(clippy::unwrap_used, clippy::expect_used)] // test code may panic

use sg_cyber_range::core::{breaker_cmd_key, CompiledModel, CyberRange, SgmlBundle};
use sg_cyber_range::kvstore::Value;
use sg_cyber_range::models::{epic_bundle, multisub_bundle, MultiSubParams};
use sg_cyber_range::powerflow::{solve, PowerFlowResult, SolveOptions};

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
    assert_agree(&range.last_result, &fresh, range.power.sn_mva_base, what);
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
    assert_eq!(range.last_result.iterations, 1);
    let first = format!("{:?}", range.last_result);
    for step in 2..=200 {
        range.step();
        assert_eq!(format!("{:?}", range.last_result), first, "step {step}");
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
    let va = paper.last_result.bus[slack].va_degree;
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
        &epic.last_result,
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
