//! Regenerates the **§IV-A scalability claim**: *"a commodity desktop PC …
//! can host a 5-substation model including 104 virtual IEDs with 100 ms
//! power flow simulation interval"*.
//!
//! Sweeps the substation count (the paper's row is the 5-substation /
//! 104-IED configuration) and reports generation time, per-step wall time,
//! and the real-time factor against the 100 ms budget. Run with
//! `--release`; debug-build numbers are not meaningful.

use sgcr_bench::{ms, render_table};
use sgcr_core::{CompiledModel, CyberRange};
use sgcr_models::{multisub_bundle, MultiSubParams};
use sgcr_net::SimDuration;

fn main() {
    println!(
        "== S1: scalability sweep (paper SIV-A claim: 5 substations / 104 IEDs @ 100 ms) ==\n"
    );
    let sim_seconds = 3u64;
    let mut rows = Vec::new();

    // IED counts scale ~21 per substation so the 5-substation row lands on
    // the paper's 104.
    for substations in [1usize, 2, 3, 5, 8] {
        let total_ieds = if substations == 5 {
            104
        } else {
            substations * 21
        };
        let params = MultiSubParams {
            substations,
            total_ieds,
            interval_ms: 100,
        };
        eprintln!("generating {substations} substations / {total_ieds} IEDs…");
        let gen_start = std::time::Instant::now();
        let bundle = multisub_bundle(&params);
        let mut range = match CompiledModel::shared(&bundle).and_then(CyberRange::instantiate) {
            Ok(r) => r,
            Err(e) => {
                rows.push(vec![
                    substations.to_string(),
                    total_ieds.to_string(),
                    format!("generation failed: {e}"),
                    String::new(),
                    String::new(),
                    String::new(),
                ]);
                continue;
            }
        };
        let gen_seconds = gen_start.elapsed().as_secs_f64();

        let wall_start = std::time::Instant::now();
        range.run_for(SimDuration::from_secs(sim_seconds));
        let wall = wall_start.elapsed().as_secs_f64();
        let mean_step = wall / range.steps_total().max(1) as f64;
        let max_step = range.max_step_seconds();
        let real_time_factor = sim_seconds as f64 / wall;
        rows.push(vec![
            substations.to_string(),
            total_ieds.to_string(),
            format!("{:.2} s", gen_seconds),
            format!("{} / {}", ms(mean_step), ms(max_step)),
            format!("{real_time_factor:.1}x"),
            if real_time_factor >= 1.0 { "YES" } else { "no" }.to_string(),
        ]);
    }

    println!(
        "{}",
        render_table(
            &[
                "substations",
                "virtual IEDs",
                "generation",
                "step mean/max [ms]",
                "real-time factor",
                "meets 100 ms budget",
            ],
            &rows
        )
    );
    println!("\npaper's row: 5 substations / 104 IEDs must meet the 100 ms budget (factor >= 1).");
}
