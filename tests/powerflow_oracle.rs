//! Power-flow results checked against physics the solver does not share
//! code with: a closed-form two-bus solution, and Kirchhoff's current law
//! plus the global power balance on the generated models — for a one-shot
//! solve and for a range whose persistent solver has stepped through a
//! breaker opening and closing.

#![allow(clippy::unwrap_used, clippy::expect_used)] // test/example code may panic

use sg_cyber_range::core::{breaker_cmd_key, CompiledModel, CyberRange, RangeBuilder};
use sg_cyber_range::kvstore::Value;
use sg_cyber_range::models::{epic_bundle, multisub_bundle, MultiSubParams};
use sg_cyber_range::powerflow::{solve, BusId, PowerFlowResult, PowerNetwork, Topology};
use std::sync::Arc;

/// V₂ of a PQ load fed through R + jX from a slack at V₁, all per-unit: the
/// larger root of V⁴ − (V₁² − 2(RP + XQ))V² + (R² + X²)(P² + Q²) = 0.
fn two_bus_closed_form(v1: f64, r: f64, x: f64, p: f64, q: f64) -> f64 {
    let b = v1 * v1 - 2.0 * (r * p + x * q);
    let c = (r * r + x * x) * (p * p + q * q);
    ((b + (b * b - 4.0 * c).sqrt()) / 2.0).sqrt()
}

#[test]
fn two_bus_matches_the_closed_form_voltage() {
    for (v1, p_mw, q_mvar) in [(1.0, 30.0, 10.0), (1.02, 60.0, 25.0), (0.98, 45.0, -15.0)] {
        let mut net = PowerNetwork::new("two-bus");
        let b1 = net.add_bus("b1", 110.0);
        let b2 = net.add_bus("b2", 110.0);
        net.add_ext_grid("grid", b1, v1, 0.0);
        net.add_line("l1", b1, b2, 10.0, 0.06, 0.12, 0.0, 1.0);
        net.add_load("load", b2, p_mw, q_mvar);
        let z_base = 110.0 * 110.0 / net.sn_mva_base;
        let (r, x) = (0.6 / z_base, 1.2 / z_base);
        let (p, q) = (p_mw / net.sn_mva_base, q_mvar / net.sn_mva_base);

        let res = solve(&net).unwrap();
        let expected = two_bus_closed_form(v1, r, x, p, q);
        assert!(
            (res.bus[1].vm_pu - expected).abs() < 1e-9,
            "V1={v1} P={p_mw} Q={q_mvar}: solved {} vs closed form {expected}",
            res.bus[1].vm_pu
        );
    }
}

/// Asserts Kirchhoff's current law at every energized node — branch flows
/// out of the node, plus load and shunt consumption, minus sgen and source
/// injection, sum to under 1e-6 MW and 1e-6 Mvar — and that the sources
/// supply exactly the load plus what the solver reports the network takes:
/// the shunts and the losses in P, and, as no reactive loss is reported, the
/// buses' net injection into branches and shunts in Q. A node with several
/// voltage-controlling units balances Q only if they share it.
fn assert_balanced(net: &PowerNetwork, res: &PowerFlowResult, what: &str) {
    let topo = Topology::build(net);
    let node = |bus: BusId| topo.bus_to_node[bus.index()];
    let energized = |bus: BusId| res.bus[bus.index()].energized;
    // `[P, Q]` out of each node.
    let mut residual = vec![[0.0f64; 2]; net.bus.len()];
    let mut out = |bus: BusId, p: f64, q: f64| {
        residual[node(bus)][0] += p;
        residual[node(bus)][1] += q;
    };
    for (l, r) in net.line.iter().zip(&res.line) {
        out(l.from_bus, r.p_from_mw, r.q_from_mvar);
        out(l.to_bus, r.p_to_mw, r.q_to_mvar);
    }
    for (t, r) in net.trafo.iter().zip(&res.trafo) {
        out(t.hv_bus, r.p_from_mw, r.q_from_mvar);
        out(t.lv_bus, r.p_to_mw, r.q_to_mvar);
    }
    let injected_q = res.bus.iter().map(|b| b.q_mvar).sum();
    let (mut supplied, mut consumed) = ([0.0f64; 2], [res.total_losses_mw, injected_q]);
    for l in net.load.iter().filter(|l| l.in_service && energized(l.bus)) {
        let (p, q) = (l.p_mw * l.scaling, l.q_mvar * l.scaling);
        out(l.bus, p, q);
        consumed[0] += p;
        consumed[1] += q;
    }
    for s in net
        .shunt
        .iter()
        .filter(|s| s.in_service && energized(s.bus))
    {
        let v2 = res.bus[s.bus.index()].vm_pu.powi(2);
        out(s.bus, s.p_mw * v2, s.q_mvar * v2);
        consumed[0] += s.p_mw * v2;
    }
    for s in net.sgen.iter().filter(|s| s.in_service && energized(s.bus)) {
        let (p, q) = (s.p_mw * s.scaling, s.q_mvar * s.scaling);
        out(s.bus, -p, -q);
        supplied[0] += p;
        supplied[1] += q;
    }
    for (g, r) in net.gen.iter().zip(&res.gen) {
        if g.in_service && energized(g.bus) {
            out(g.bus, -r.p_mw, -r.q_mvar);
            supplied[0] += r.p_mw;
            supplied[1] += r.q_mvar;
        }
    }
    for (e, r) in net.ext_grid.iter().zip(&res.ext_grid) {
        out(e.bus, -r.p_mw, -r.q_mvar);
        supplied[0] += r.p_mw;
        supplied[1] += r.q_mvar;
    }
    let mut checked = 0;
    for (b, bus) in net.bus.iter().enumerate() {
        if res.bus[b].energized && topo.bus_to_node[b] == b {
            let name = &bus.name;
            for (r, unit) in residual[b].into_iter().zip(["MW", "Mvar"]) {
                assert!(r.abs() < 1e-6, "{what}: KCL residual {r} {unit} at {name}");
            }
            checked += 1;
        }
    }
    assert!(checked > 0, "{what}: no energized bus");
    let ([sp, sq], [cp, cq]) = (supplied, consumed);
    assert!(
        (sp - cp).abs() < 1e-6,
        "{what}: sources supply {sp} MW for load, shunts and losses {cp} MW"
    );
    assert!(
        (sq - cq).abs() < 1e-6,
        "{what}: sources supply {sq} Mvar for load and bus injections {cq} Mvar"
    );
}

/// The models under test: the EPIC bundle, the paper's 5-substation /
/// 104-IED profile, and the 8-substation scalability row.
fn models() -> Vec<(&'static str, CompiledModel)> {
    let multisub = |substations, total_ieds| MultiSubParams {
        substations,
        total_ieds,
        interval_ms: 100,
    };
    [
        ("epic", epic_bundle()),
        (
            "paper 5x104",
            multisub_bundle(&MultiSubParams::paper_profile()),
        ),
        ("8x21", multisub_bundle(&multisub(8, 168))),
    ]
    .into_iter()
    .map(|(what, bundle)| (what, CompiledModel::compile(&bundle).expect("compiles")))
    .collect()
}

#[test]
fn one_shot_solves_satisfy_kirchhoff() {
    for (what, model) in models() {
        let res = solve(&model.power).expect("converges");
        assert_balanced(&model.power, &res, what);
    }
}

#[test]
fn stepped_ranges_satisfy_kirchhoff_through_a_breaker_cycle() {
    for (what, model) in models() {
        let breaker = model
            .power
            .switch
            .iter()
            .find(|s| s.closed)
            .map(|s| s.name.clone())
            .expect("a closed breaker");
        let mut range: CyberRange = RangeBuilder::from_model(Arc::new(model)).build().unwrap();
        range.step();
        range.step();
        assert_balanced(&range.power, range.last_result(), what);
        for closed in [false, true] {
            range
                .store
                .set(&breaker_cmd_key(&breaker), Value::Bool(closed));
            range.step();
            assert_eq!(range.switch_is_closed(&breaker), Some(closed), "{what}");
            let label = format!("{what}, {breaker} closed={closed}");
            assert_balanced(&range.power, range.last_result(), &label);
            range.step();
            assert_balanced(&range.power, range.last_result(), &label);
        }
        let stats = range.solver_stats();
        assert!(stats.warm_starts > 0, "{what}: {stats:?}");
    }
}
