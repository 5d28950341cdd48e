//! The IED runtime writes its data model through leaf handles and reads the
//! process store through slots, both resolved once when the IED is built.
//! Read back by item id after a run, every leaf the sample path rewrites
//! must hold the value derived from the process store and the relay state:
//! a handle bound to the wrong leaf, or a slot bound to the wrong key, shows
//! up here.

#![allow(clippy::unwrap_used, clippy::expect_used)] // test code may panic

use sg_cyber_range::core::{CompiledModel, CyberRange};
use sg_cyber_range::iec61850::DataValue;
use sg_cyber_range::ied::{quality_item, GooseEntry, IedEventKind, IedSpec, ProtectionSpec};
use sg_cyber_range::kvstore::Value;
use sg_cyber_range::models::{epic_bundle, multisub_bundle, MultiSubParams};
use std::collections::HashMap;

const STEPS: usize = 30;

/// Steps `range` to `STEPS`, running `before_step` ahead of each step, and
/// returns the store as the IEDs sampled it in the last step: a sample at
/// `t` reads what the step before `t` published.
fn run(range: &mut CyberRange, mut before_step: impl FnMut(&mut CyberRange, usize)) -> Store {
    let mut sampled = HashMap::new();
    for step in 0..STEPS {
        before_step(range, step);
        sampled = range.store.snapshot().into_iter().collect();
        range.step();
    }
    sampled
}

type Store = HashMap<String, Value>;

fn closed(store: &Store, key: &str) -> bool {
    store.get(key).and_then(Value::as_bool).unwrap_or(false)
}

/// The state a CILO's monitored breaker was published with: looked up
/// through the publishing IED's GOOSE dataset.
fn monitored_closed(ieds: &[IedSpec], store: &Store, gocb_ref: &str, index: usize) -> bool {
    let publisher = ieds
        .iter()
        .find(|s| s.goose.as_ref().is_some_and(|g| g.gocb_ref == gocb_ref))
        .expect("monitored stream has a publisher");
    match &publisher.goose.as_ref().unwrap().entries[index] {
        GooseEntry::BreakerState(name) => {
            closed(store, &publisher.breaker(name).expect("mapped").state_key)
        }
        GooseEntry::ProtectionOp(_) => panic!("interlocks monitor breaker states"),
    }
}

/// Checks every IED's measurement, quality, position, `Op` and `EnaCls`
/// leaves; returns how many leaves were compared.
fn check_leaves(range: &CyberRange, sampled: &Store) -> usize {
    let model = range.model().clone();
    let mut compared = 0;
    let mut expect = |ied: &str, item: String, want: DataValue| {
        let got = range.ieds[ied].model.read(&item);
        assert_eq!(got, Some(want), "{item}");
        compared += 1;
    };
    for spec in &model.ieds {
        let name = spec.name.as_str();
        for m in &spec.measurements {
            let value = sampled[&m.kv_key].as_float().expect("float measurement");
            expect(name, spec.item(&m.item), DataValue::Float(value as f32));
            let good = DataValue::Str("good".to_string());
            expect(name, spec.item(&quality_item(&m.item)), good);
        }
        for b in &spec.breakers {
            let pos = if closed(sampled, &b.state_key) {
                DataValue::dbpos_on()
            } else {
                DataValue::dbpos_off()
            };
            for ln in [&b.xcbr, &b.cswi] {
                expect(name, spec.item(&format!("{ln}$ST$Pos$stVal")), pos.clone());
            }
        }
        let events = range.ieds[name].events_of(IedEventKind::ProtectionTrip);
        for p in &spec.protections {
            let ln = p.ln();
            match p {
                ProtectionSpec::Cilo { monitored, .. } => {
                    let permitted = monitored.iter().all(|m| {
                        monitored_closed(&model.ieds, sampled, &m.gocb_ref, m.dataset_index)
                    });
                    let item = spec.item(&format!("{ln}$ST$EnaCls$stVal"));
                    expect(name, item, DataValue::Bool(permitted));
                }
                _ => {
                    let tripped = events
                        .iter()
                        .any(|e| e.detail.starts_with(&format!("{ln} tripped")));
                    let item = spec.item(&format!("{ln}$ST$Op$general"));
                    expect(name, item, DataValue::Bool(tripped));
                }
            }
        }
    }
    compared
}

#[test]
fn epic_leaves_match_store_and_relays() {
    let mut range =
        CyberRange::instantiate(CompiledModel::shared(&epic_bundle()).expect("EPIC compiles"))
            .expect("EPIC instantiates");
    // Overload the micro-grid feeder a little, early on: TIED1's PTOC trips
    // CB_MICRO, so one IED's `Op` leaf and two IEDs' position leaves differ
    // from the rest by the end of the run.
    let sampled = run(&mut range, |range, step| {
        if step == 5 {
            let load = range.power.load_by_name("EPIC/MicroLoad").unwrap();
            range.power.load[load.index()].p_mw = 0.075;
        }
    });
    assert!(range.ieds["TIED1"].trip_count() >= 1, "TIED1 PTOC tripped");
    assert!(!closed(&sampled, "meas/EPIC/cb/CB_MICRO/closed"));
    // CB_HOME stays closed, so SIED1's interlock permits closing and its
    // `EnaCls` leaf reads true, unlike its initial value.
    assert!(closed(&sampled, "meas/EPIC/cb/CB_HOME/closed"));
    assert_eq!(
        range.ieds["GIED1"].trip_count(),
        0,
        "only the micro feeder trips"
    );
    let compared = check_leaves(&range, &sampled);
    assert!(compared >= 40, "compared {compared} leaves");
}

#[test]
fn paper_profile_leaves_match_store_and_relays() {
    let bundle = multisub_bundle(&MultiSubParams::paper_profile());
    let mut range =
        CyberRange::instantiate(CompiledModel::shared(&bundle).expect("paper profile compiles"))
            .expect("paper profile instantiates");
    let sampled = run(&mut range, |_, _| {});
    let compared = check_leaves(&range, &sampled);
    assert!(compared >= 4 * 104, "compared {compared} leaves");
}
