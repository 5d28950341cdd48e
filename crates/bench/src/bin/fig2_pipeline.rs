//! Regenerates **Figures 2 and 3**: the SG-ML Processor pipeline, executed
//! stage by stage over the EPIC model set with per-stage summaries —
//! mirroring the flowchart modules of Figure 3.

use sgcr_core::{
    check_bundle, compile_network, compile_power, CompiledModel, CyberRange, ParsedBundle, SclFile,
};
use sgcr_models::epic_bundle;
use sgcr_net::SimDuration;
use sgcr_scl::{consolidate_scd, consolidate_ssd};

fn main() {
    println!("== Figures 2-3: the SG-ML Processor pipeline over the EPIC model set ==\n");
    let bundle = epic_bundle();

    println!("[inputs]   (Figure 2, left)");
    println!(
        "  {} SSD, {} SCD, {} ICD, {} SED",
        bundle.ssds.len(),
        bundle.scds.len(),
        bundle.icds.len(),
        bundle.seds.len()
    );
    println!(
        "  + IED Config XML, SCADA Config XML, PLC Config XML, Power System Extra Config XML\n"
    );

    println!("[stage 1]  parse every model file and check the bundle rules");
    let parsed = ParsedBundle::from_bundle(&bundle);
    let findings = check_bundle(&parsed);
    println!(
        "  parsed {} SSD, {} SCD, {} ICD documents; {} parse and {} rule findings\n",
        parsed.ssds.len(),
        parsed.scds.len(),
        parsed.icds.len(),
        parsed.diagnostics.len(),
        findings.len()
    );

    println!("[stage 2]  combine SSD/SCD files using SED connectivity (Fig. 3: 'combine')");
    let docs = |files: &[SclFile]| files.iter().map(|f| f.doc.clone()).collect::<Vec<_>>();
    let consolidated_ssd = consolidate_ssd(&docs(&parsed.ssds), &docs(&parsed.seds));
    let consolidated_scd = consolidate_scd(&docs(&parsed.scds));
    println!(
        "  consolidated SSD: {} substation(s); consolidated SCD: {} subnetworks\n",
        consolidated_ssd.substations.len(),
        consolidated_scd
            .communication
            .as_ref()
            .unwrap()
            .subnetworks
            .len()
    );

    println!("[stage 3]  generate the power system simulation model (Fig. 3: 'SSD -> Pandapower')");
    let power = compile_power(&consolidated_ssd);
    println!("  {}\n", power.summary());

    println!("[stage 4]  generate the cyber network emulation model (Fig. 3: 'SCD -> Mininet')");
    let plan = compile_network(&consolidated_scd);
    println!(
        "  {} switches ({} WAN), {} hosts\n",
        plan.switches.len(),
        plan.switches.iter().filter(|s| s.is_wan).count(),
        plan.hosts.len()
    );

    println!("[stage 5]  instantiate virtual IEDs from ICD + IED Config XML");
    let ied_config = &parsed.ied_config.as_ref().expect("ied config").config;
    for spec in &ied_config.ieds {
        let protections: Vec<&str> = spec.protections.iter().map(|p| p.ln_class()).collect();
        println!(
            "  {:6} breakers={} measurements={} protections={:?} goose={}",
            spec.name,
            spec.breakers.len(),
            spec.measurements.len(),
            protections,
            spec.goose.is_some()
        );
    }

    println!("\n[stage 6]  virtual PLC (OpenPLC61850 role) + SCADA (ScadaBR role) configuration");
    let extra = &parsed.power_config.as_ref().expect("extra").config;
    println!(
        "  CPLC program from PLC Config XML; SCADA translated to ScadaBR JSON; interval {} ms, {} profiles\n",
        extra.interval_ms,
        extra.schedule.profiles.len()
    );

    println!("[output]   operational cyber range (Figure 2, right)");
    let start = std::time::Instant::now();
    let mut range = CyberRange::instantiate(CompiledModel::shared(&bundle).expect("generate"))
        .expect("generate");
    println!(
        "  generated in {:.1} ms: {}",
        start.elapsed().as_secs_f64() * 1e3,
        range.summary()
    );

    range.run_for(SimDuration::from_secs(2));
    println!(
        "  after 2 s of co-simulation: SCADA polled {} rounds, {} power-flow steps, {} solve errors",
        range.scada.as_ref().unwrap().polls_completed(),
        range.steps_total(),
        range.solve_errors_total()
    );
}
