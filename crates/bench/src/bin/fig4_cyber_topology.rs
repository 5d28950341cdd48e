//! Regenerates **Figure 4**: the cyber network topology generated from the
//! EPIC SCD — host/switch table plus a Graphviz dot rendering (the paper
//! rendered the same structure with ONOS).

use sgcr_bench::render_table;
use sgcr_core::compile_network;
use sgcr_models::epic;
use sgcr_scl::parse_scl;

fn main() {
    println!("== Figure 4: generated cyber network topology (EPIC model) ==\n");
    let scd = parse_scl(&epic::epic_scd()).expect("EPIC SCD parses");
    let plan = compile_network(&scd);

    let mut rows = Vec::new();
    for sw in &plan.switches {
        rows.push(vec![
            sw.name.clone(),
            "switch".into(),
            if sw.is_wan {
                "WAN backbone (paper: single-switch abstraction)"
            } else {
                "station bus segment"
            }
            .into(),
            String::new(),
        ]);
    }
    for host in &plan.hosts {
        rows.push(vec![
            host.name.clone(),
            "host".into(),
            format!("on {}", host.switch),
            format!(
                "{} / {}",
                host.ip,
                host.mac
                    .map(|m| m.to_string())
                    .unwrap_or_else(|| "auto".into())
            ),
        ]);
    }
    println!(
        "{}",
        render_table(&["node", "kind", "placement", "IP / MAC (from SCD)"], &rows)
    );

    println!("\nGraphviz rendering (pipe into `dot -Tpng`):\n");
    println!("{}", plan.to_dot());
}
