//! Ablation of the paper's key design parameter: the **power-flow step
//! interval** (§III-C: Pandapower is re-run "periodically (e.g., every
//! 100ms)", and "the time granularity and real-timeness of this degree are
//! still acceptable in practice").
//!
//! Sweeps the interval and measures (a) protection-trip latency after a
//! fault — physical fidelity — and (b) per-step and per-simulated-second
//! compute cost — the scalability budget. The trade-off curve justifies the
//! paper's 100 ms choice.

use sgcr_bench::render_table;
use sgcr_core::{CompiledModel, CyberRange, PowerExtraConfig};
use sgcr_models::epic_bundle;
use sgcr_net::SimDuration;

fn main() {
    println!("== Ablation: power-flow step interval vs fidelity and cost ==\n");
    let mut rows = Vec::new();
    for interval_ms in [20u64, 50, 100, 200, 500, 1000] {
        let mut bundle = epic_bundle();
        let mut extra = PowerExtraConfig::parse(bundle.power_extra.as_ref().unwrap()).unwrap();
        extra.interval_ms = interval_ms;
        bundle.power_extra = Some(extra.to_xml());
        let mut range = CyberRange::instantiate(CompiledModel::shared(&bundle).expect("compiles"))
            .expect("compiles");
        range.run_for(SimDuration::from_secs(1));

        // Fault: overload the smart-home feeder; TIED2's PTOC (200 ms
        // definite time) must clear it.
        let fault_at = range.now().as_millis();
        let load = range.power.load_by_name("EPIC/Load1").unwrap();
        range.power.load[load.index()].p_mw = 0.2;

        let steps = (5000 / interval_ms.max(1)).max(10);
        let wall = std::time::Instant::now();
        let mut trip_latency_ms: Option<u64> = None;
        for _ in 0..steps {
            range.step();
            if trip_latency_ms.is_none() && range.ieds["TIED2"].trip_count() > 0 {
                let trip_time = range.ieds["TIED2"]
                    .events_of(sgcr_ied::IedEventKind::ProtectionTrip)[0]
                    .time_ms;
                trip_latency_ms = Some(trip_time - fault_at);
            }
        }
        let wall = wall.elapsed().as_secs_f64();
        let sim_seconds = range.now().as_secs_f64() - 1.0;
        rows.push(vec![
            interval_ms.to_string(),
            trip_latency_ms
                .map(|l| l.to_string())
                .unwrap_or_else(|| "no trip".into()),
            format!("{:.2}", wall / steps as f64 * 1e3),
            format!("{:.1}", wall / sim_seconds * 1e3),
        ]);
    }
    println!(
        "{}",
        render_table(
            &[
                "interval [ms]",
                "fault->trip latency [ms]",
                "wall per step [ms]",
                "wall per simulated second [ms]",
            ],
            &rows
        )
    );
    println!("\nexpected shape: trip latency ~= relay delay (200 ms) + O(interval) sampling");
    println!("quantization, so fidelity degrades with coarse intervals while compute cost");
    println!("per simulated second falls; 100 ms sits at the knee - the paper's choice.");
}
