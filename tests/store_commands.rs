//! Commands written to the process store reach the power model. Each
//! controllable element has one command key, spelled by the keymap: a
//! breaker's close command, and the set-points of loads, gens and sgens.
//! A command written through `range.store.set` is applied at the next step
//! and shows in the tenant's power model and in the measurement it
//! publishes.

#![allow(clippy::unwrap_used, clippy::expect_used)] // test code may panic

use sg_cyber_range::core::{
    breaker_cmd_key, breaker_state_key, gen_cmd_key, load_cmd_key, load_p_key, source_p_key,
    CompiledModel, CyberRange,
};
use sg_cyber_range::kvstore::Value;
use sg_cyber_range::models::epic_bundle;

#[test]
fn commands_written_through_the_store_reach_the_power_model() {
    let mut range =
        CyberRange::instantiate(CompiledModel::shared(&epic_bundle()).unwrap()).unwrap();
    assert!(!range.telemetry().is_enabled());
    // A load added to the tenant under an unscoped name is keyed under the
    // `sys` substation, for its measurement and its command alike.
    let home = range.power.load[range.power.load_by_name("EPIC/Load1").unwrap().index()].bus;
    range.power.add_load("LX", home, 0.001, 0.0);

    let store = &range.store;
    store.set(&breaker_cmd_key("EPIC/CB_HOME"), Value::Bool(false));
    store.set(&load_cmd_key("EPIC/Load1"), Value::Float(0.012));
    store.set(&gen_cmd_key("EPIC/Gen1"), Value::Float(0.018));
    store.set(&gen_cmd_key("EPIC/PV1"), Value::Float(0.005));
    store.set(&load_cmd_key("LX"), Value::Float(0.003));
    range.step();

    let power = &range.power;
    let published = |key: String| range.store.get(&key).unwrap();

    let cb = &power.switch[power.switch_by_name("EPIC/CB_HOME").unwrap().index()];
    assert!(!cb.closed, "CB_HOME opened");
    assert_eq!(
        published(breaker_state_key("EPIC/CB_HOME")),
        Value::Bool(false)
    );

    for (name, p_mw) in [("EPIC/Load1", 0.012), ("LX", 0.003)] {
        let load = &power.load[power.load_by_name(name).unwrap().index()];
        assert_eq!(load.p_mw, p_mw, "{name} set-point");
        assert_eq!(
            published(load_p_key(name)),
            Value::Float(load.p_mw * load.scaling),
            "{name} demand"
        );
    }

    // Gen1 is promoted to slack (the island has no external grid), so it
    // supplies what the solve leaves over.
    let gen = power.gen_by_name("EPIC/Gen1").unwrap().index();
    assert_eq!(power.gen[gen].p_mw, 0.018, "Gen1 set-point");
    assert_eq!(
        published(source_p_key("EPIC/Gen1")),
        Value::Float(range.last_result().gen[gen].p_mw)
    );

    let pv = &power.sgen[power.sgen_by_name("EPIC/PV1").unwrap().index()];
    assert_eq!(pv.p_mw, 0.005, "PV1 set-point");
    assert_eq!(
        published(source_p_key("EPIC/PV1")),
        Value::Float(pv.p_mw * pv.scaling)
    );
}
