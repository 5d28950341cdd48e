//! Protection exercise: drives each of the paper's Table-II protection
//! functions across its threshold inside the running EPIC range — the kind
//! of hands-on training scenario the cyber range is built for.
//!
//! ```text
//! cargo run --example protection_exercise
//! ```

#![allow(clippy::unwrap_used, clippy::expect_used)] // test/example code may panic

use sg_cyber_range::core::{CompiledModel, CyberRange};
use sg_cyber_range::ied::IedEventKind;
use sg_cyber_range::models::epic_bundle;
use sg_cyber_range::net::SimDuration;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("== Protection exercise on the EPIC range ==\n");

    // --- Scenario 1: over-current on the smart-home feeder (PTOC) --------
    {
        let mut range = CyberRange::instantiate(CompiledModel::shared(&epic_bundle())?)?;
        range.run_for(SimDuration::from_secs(1));
        println!("scenario 1: smart-home feeder overload → TIED2 PTOC");
        let i_before = range
            .store
            .get_float("meas/EPIC/branch/LHome/i_ka")
            .unwrap_or(0.0);
        println!(
            "  nominal feeder current: {:.4} kA (pickup 0.120 kA)",
            i_before
        );
        let load = range.power.load_by_name("EPIC/Load1").unwrap();
        range.power.load[load.index()].p_mw = 0.2;
        println!("  t=1s: load jumps to 0.2 MW…");
        range.run_for(SimDuration::from_secs(3));
        for event in range.ieds["TIED2"].events() {
            println!(
                "  TIED2 [{:>6} ms] {:?} {}",
                event.time_ms, event.kind, event.detail
            );
        }
        let home = range.power.bus_by_name("EPIC/LV/HomeBay/CN_HOME").unwrap();
        println!(
            "  smart-home bus energized: {}\n",
            range.last_result().bus[home.index()].energized
        );
    }

    // --- Scenario 2: over-voltage at generation (PTOV) --------------------
    {
        let mut range = CyberRange::instantiate(CompiledModel::shared(&epic_bundle())?)?;
        range.run_for(SimDuration::from_secs(1));
        println!("scenario 2: generator voltage excursion → GIED2 PTOV");
        for gen in range.power.gen.iter_mut() {
            gen.vm_pu = 1.15; // AVR runaway
        }
        println!("  t=1s: generator set-points forced to 1.15 pu (limit 1.10)…");
        range.run_for(SimDuration::from_secs(2));
        for event in range.ieds["GIED2"].events() {
            println!(
                "  GIED2 [{:>6} ms] {:?} {}",
                event.time_ms, event.kind, event.detail
            );
        }
        println!();
    }

    // --- Scenario 3: micro-grid undervoltage (PTUV) -----------------------
    {
        let mut range = CyberRange::instantiate(CompiledModel::shared(&epic_bundle())?)?;
        range.run_for(SimDuration::from_secs(1));
        println!("scenario 3: depressed micro-grid voltage → MIED1 PTUV");
        for gen in range.power.gen.iter_mut() {
            gen.vm_pu = 0.86; // severe source undervoltage, below the 0.88 limit
        }
        println!("  t=1s: source voltage forced to 0.86 pu (limit 0.88)…");
        range.run_for(SimDuration::from_secs(2));
        for event in range.ieds["MIED1"].events() {
            println!(
                "  MIED1 [{:>6} ms] {:?} {}",
                event.time_ms, event.kind, event.detail
            );
        }
        println!();
    }

    // --- Scenario 4: interlock (CILO) --------------------------------------
    {
        let mut range = CyberRange::instantiate(CompiledModel::shared(&epic_bundle())?)?;
        println!("scenario 4: SIED1 close command blocked by CILO until CB_HOME closes");
        // Open CB_HOME first.
        range.store.set(
            "cmd/EPIC/cb/CB_HOME/close",
            sg_cyber_range::kvstore::Value::Bool(false),
        );
        range.run_for(SimDuration::from_secs(2));
        let ena = range.ieds["SIED1"]
            .model
            .read("SIED1LD0/CILO1$ST$EnaCls$stVal");
        println!("  with CB_HOME open: EnaCls = {ena:?}");
        range.store.set(
            "cmd/EPIC/cb/CB_HOME/close",
            sg_cyber_range::kvstore::Value::Bool(true),
        );
        range.run_for(SimDuration::from_secs(3));
        let ena = range.ieds["SIED1"]
            .model
            .read("SIED1LD0/CILO1$ST$EnaCls$stVal");
        println!("  after CB_HOME closes (state via GOOSE): EnaCls = {ena:?}");
        let rejected = range.ieds["SIED1"].events_of(IedEventKind::ControlRejected);
        println!("  control rejections recorded: {}", rejected.len());
    }

    Ok(())
}
