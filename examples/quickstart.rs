//! Quickstart: generate the EPIC cyber range from SG-ML model files and
//! watch it run — the paper's Figure 1 architecture, live.
//!
//! ```text
//! cargo run --example quickstart
//! ```

#![allow(clippy::unwrap_used, clippy::expect_used)] // test/example code may panic

use sg_cyber_range::core::{CompiledModel, CyberRange};
use sg_cyber_range::models::epic_bundle;
use sg_cyber_range::net::SimDuration;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("== SG-ML quickstart: compiling the EPIC model set ==\n");
    let bundle = epic_bundle();
    println!(
        "input models: {} SSD, {} SCD, {} ICD, {} SED + IED/PLC/SCADA/power configs",
        bundle.ssds.len(),
        bundle.scds.len(),
        bundle.icds.len(),
        bundle.seds.len()
    );

    let mut range = CyberRange::instantiate(CompiledModel::shared(&bundle)?)?;
    println!("\n{}\n", range.summary());

    println!("cyber topology (hosts):");
    for host in &range.plan().hosts {
        println!(
            "  {:10} {:12} on {}",
            host.name,
            host.ip.to_string(),
            host.switch
        );
    }
    println!("\npower model:");
    for bus in &range.power.bus {
        println!("  bus  {:28} {} kV", bus.name, bus.vn_kv);
    }
    for line in &range.power.line {
        println!("  line {:28} {} km", line.name, line.length_km);
    }

    println!("\nrunning 3 s of co-simulated time (100 ms power-flow steps)…");
    range.run_for(SimDuration::from_secs(3));

    let scada = range.scada.as_ref().expect("EPIC has an HMI");
    println!("\nSCADA tag database after 3 s:");
    for tag in scada.tag_names() {
        println!(
            "  {:16} = {:?}",
            tag,
            scada.tag_value(&tag).map(|v| (v * 1000.0).round() / 1000.0)
        );
    }
    println!("\nHMI event log:");
    for event in scada.events() {
        println!("  [{:>6} ms] {}", event.time_ms, event.message);
    }
    // One guard: a second `lock()` in the same statement would deadlock.
    let plc = range.plcs["CPLC"].lock();
    println!("\nPLC CPLC: {} scans, fault: {:?}", plc.scans, plc.fault);
    println!("done.");
    Ok(())
}
