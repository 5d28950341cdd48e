//! Multi-substation cyber range: generates the paper's 5-substation /
//! 104-IED scalability model from SSD+SED files, runs it, and reports
//! per-step timing against the 100 ms real-time budget.
//!
//! ```text
//! cargo run --release --example multi_substation
//! ```

#![allow(clippy::unwrap_used, clippy::expect_used)] // test/example code may panic

use sg_cyber_range::core::{CompiledModel, CyberRange};
use sg_cyber_range::models::{multisub_bundle, MultiSubParams};
use sg_cyber_range::net::SimDuration;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let params = MultiSubParams::paper_profile();
    println!(
        "== multi-substation range: {} substations, {} IEDs, {} ms interval ==\n",
        params.substations, params.total_ieds, params.interval_ms
    );

    let generate_start = std::time::Instant::now();
    let mut range = CyberRange::instantiate(CompiledModel::shared(&multisub_bundle(&params))?)?;
    println!(
        "generated in {:.2} s: {}",
        generate_start.elapsed().as_secs_f64(),
        range.summary()
    );

    println!("\nrunning 5 s of co-simulated time…");
    let wall = std::time::Instant::now();
    range.run_for(SimDuration::from_secs(5));
    let wall = wall.elapsed().as_secs_f64();

    let steps = range.steps_total();
    let budget = params.interval_ms as f64 / 1000.0;
    println!("\n{steps} steps in {wall:.2} s wall clock");
    println!(
        "  mean step: {:.2} ms (budget {} ms, {} over it)",
        wall / steps.max(1) as f64 * 1e3,
        params.interval_ms,
        range.overruns()
    );
    println!("  max step:  {:.2} ms", range.max_step_seconds() * 1e3);
    println!(
        "  real-time factor: {:.1}x (>1 means faster than real time)",
        budget * steps as f64 / wall
    );

    // The operator's view spans all substations over the WAN.
    let scada = range.scada.as_ref().unwrap();
    println!("\nSCADA tags (first IED of each substation):");
    for tag in scada.tag_names() {
        println!("  {:12} = {:?} MW", tag, scada.tag_value(&tag));
    }
    Ok(())
}
