//! Regenerates **case study 1 (§IV-B)**: false command injection — a
//! standard-compliant MMS client on a compromised node opens a breaker; the
//! power flow reacts within one simulation interval.

use sgcr_attack::{FciAttackApp, FciPlan};
use sgcr_bench::render_table;
use sgcr_core::{CompiledModel, CyberRange};
use sgcr_models::epic_bundle;
use sgcr_net::{Ipv4Addr, SimDuration};

fn main() {
    println!("== Case study 1: false command injection (paper SIV-B) ==\n");
    let mut range =
        CyberRange::instantiate(CompiledModel::shared(&epic_bundle()).expect("EPIC compiles"))
            .expect("EPIC compiles");
    range.add_host("malware-host", Ipv4Addr::new(10, 0, 1, 66), "GenBus");
    let victim = range.plan().host_ip("GIED1").unwrap();
    let (attack, report) = FciAttackApp::new(FciPlan {
        victim,
        item: "GIED1LD0/CSWI1$CO$Pos$Oper$ctlVal".into(),
        value: false,
        at_ms: 2_000,
        interrogate: true,
    });
    range.attach_app("malware-host", Box::new(attack));

    let mut rows = Vec::new();
    for second in 1..=5u64 {
        range.run_for(SimDuration::from_secs(1));
        let cb = range.power.switch_by_name("EPIC/CB_GEN").unwrap();
        rows.push(vec![
            format!("{second}"),
            format!("{:+.5}", range.last_result().line[0].p_from_mw),
            format!("{}", range.power.switch[cb.index()].closed),
            format!("{:?}", range.scada.as_ref().unwrap().tag_value("CB_GEN_fb")),
        ]);
    }
    println!(
        "{}",
        render_table(
            &[
                "t [s]",
                "LGen P [MW]",
                "CB_GEN closed (truth)",
                "CB_GEN feedback at HMI"
            ],
            &rows
        )
    );

    let report = report.lock().clone();
    println!(
        "\nattacker: interrogation items={}, command accepted={:?} at t={:?} ms",
        report.discovered_items.len(),
        report.command_accepted,
        report.completed_at_ms
    );
    println!("victim's sequence of events:");
    for event in range.ieds["GIED1"].events() {
        println!(
            "  [{:>6} ms] {:?} {}",
            event.time_ms, event.kind, event.detail
        );
    }
    println!("\nexpected shape: command fires at t=2 s; feeder power collapses to 0 and the");
    println!("breaker opens within one 100 ms power-flow interval of the injection.");
}
