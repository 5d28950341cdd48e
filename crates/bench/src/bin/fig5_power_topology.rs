//! Regenerates **Figure 5**: the power system topology generated from the
//! EPIC SSD, plus a solved base-case power flow (the paper shows the same
//! model loaded into Pandapower).

use sgcr_bench::render_table;
use sgcr_core::compile_power;
use sgcr_models::epic;
use sgcr_powerflow::solve;
use sgcr_scl::parse_scl;

fn main() {
    println!("== Figure 5: generated power system topology (EPIC model) ==\n");
    let ssd = parse_scl(&epic::epic_ssd()).expect("EPIC SSD parses");
    let net = &compile_power(&ssd);

    let mut rows = Vec::new();
    for bus in &net.bus {
        rows.push(vec![
            "bus".into(),
            bus.name.clone(),
            format!("{} kV", bus.vn_kv),
        ]);
    }
    for line in &net.line {
        rows.push(vec![
            "line".into(),
            line.name.clone(),
            format!(
                "{} km, {}+j{} ohm/km, limit {} kA",
                line.length_km, line.r_ohm_per_km, line.x_ohm_per_km, line.max_i_ka
            ),
        ]);
    }
    for switch in &net.switch {
        rows.push(vec![
            "breaker".into(),
            switch.name.clone(),
            format!("normally {}", if switch.closed { "closed" } else { "open" }),
        ]);
    }
    for gen in &net.gen {
        rows.push(vec![
            "gen".into(),
            gen.name.clone(),
            format!("{} MW @ {} pu", gen.p_mw, gen.vm_pu),
        ]);
    }
    for sgen in &net.sgen {
        rows.push(vec![
            "sgen".into(),
            sgen.name.clone(),
            format!("{} MW (PV/battery)", sgen.p_mw),
        ]);
    }
    for load in &net.load {
        rows.push(vec![
            "load".into(),
            load.name.clone(),
            format!("{} MW / {} Mvar", load.p_mw, load.q_mvar),
        ]);
    }
    println!(
        "{}",
        render_table(&["element", "name", "parameters"], &rows)
    );

    println!("\nbase-case power flow:");
    let result = solve(net).expect("base case solves");
    let mut rows = Vec::new();
    for (i, bus) in net.bus.iter().enumerate() {
        rows.push(vec![
            bus.name.clone(),
            format!("{:.4}", result.bus[i].vm_pu),
            format!("{:+.3}", result.bus[i].va_degree),
        ]);
    }
    println!("{}", render_table(&["bus", "V [pu]", "angle [deg]"], &rows));
    let mut rows = Vec::new();
    for (i, line) in net.line.iter().enumerate() {
        let r = &result.line[i];
        rows.push(vec![
            line.name.clone(),
            format!("{:+.4}", r.p_from_mw),
            format!("{:+.4}", r.q_from_mvar),
            format!("{:.4}", r.i_from_ka),
            format!("{:.1}%", r.loading_percent),
        ]);
    }
    println!(
        "{}",
        render_table(&["line", "P [MW]", "Q [Mvar]", "I [kA]", "loading"], &rows)
    );
    println!(
        "\nconverged in {} NR iterations, total losses {:.5} MW",
        result.iterations, result.total_losses_mw
    );
}
