//! Regenerates **Table I**: the four SCL file types and their roles —
//! demonstrated by parsing one file of each kind from the generated models
//! and printing what the toolchain extracts from it.

use sgcr_bench::render_table;
use sgcr_models::{epic, multisub, MultiSubParams};
use sgcr_scl::parse_scl;

fn main() {
    println!("== Table I: SCL file types consumed by the SG-ML Processor ==\n");

    // SSD: substation structure / single-line diagram.
    let ssd = parse_scl(&epic::epic_ssd()).expect("EPIC SSD parses");
    let substation = &ssd.substations[0];
    let equipment: usize = substation
        .voltage_levels
        .iter()
        .flat_map(|vl| vl.bays.iter())
        .map(|b| b.equipment.len())
        .sum();
    let ssd_extract = format!(
        "{} voltage levels, {} bays, {} equipment, {} connectivity nodes",
        substation.voltage_levels.len(),
        substation
            .voltage_levels
            .iter()
            .map(|v| v.bays.len())
            .sum::<usize>(),
        equipment,
        ssd.connectivity_node_paths().len()
    );

    // SCD: complete configuration incl. communication.
    let scd = parse_scl(&epic::epic_scd()).expect("EPIC SCD parses");
    let comm = scd.communication.as_ref().expect("has communication");
    let scd_extract = format!(
        "{} subnetworks, {} connected APs (IP/MAC), {} IED descriptions",
        comm.subnetworks.len(),
        comm.subnetworks
            .iter()
            .map(|s| s.connected_aps.len())
            .sum::<usize>(),
        scd.ieds.len()
    );

    // ICD: one IED's capabilities.
    let icds = epic::epic_icds();
    let icd = parse_scl(&icds[0]).expect("GIED1 ICD parses");
    let ied = icd.ieds.first().expect("one IED");
    let icd_extract = format!("IED {:?}: LN classes {:?}", ied.name, ied.ln_classes());

    // SED: inter-substation connectivity (from the multi-substation model).
    let bundle = multisub::multisub_bundle(&MultiSubParams {
        substations: 2,
        total_ieds: 2,
        interval_ms: 100,
    });
    let sed = parse_scl(&bundle.seds[0]).expect("SED parses");
    let tie = &sed.inter_substation_lines[0];
    let sed_extract = format!(
        "tie {:?}: {} <-> {} ({} km), protection IEDs {:?}",
        tie.name,
        tie.from_substation,
        tie.to_substation,
        tie.params.length_km.unwrap_or(0.0),
        tie.protection_ieds
    );

    let rows = vec![
        vec![
            "SSD".into(),
            "substation structure: single-line diagram, voltage/bay levels".into(),
            "power system simulation model".into(),
            ssd_extract,
        ],
        vec![
            "SCD".into(),
            "complete substation configuration incl. communication section".into(),
            "cyber network emulation model".into(),
            scd_extract,
        ],
        vec![
            "ICD".into(),
            "IED capabilities: logical nodes and data types".into(),
            "virtual IED feature enablement".into(),
            icd_extract,
        ],
        vec![
            "SED".into(),
            "electrical + communication ties between substations".into(),
            "multi-substation consolidation".into(),
            sed_extract,
        ],
    ];
    println!(
        "{}",
        render_table(
            &[
                "file",
                "contents (paper Table I)",
                "used to generate",
                "extracted from the EPIC / multisub models"
            ],
            &rows
        )
    );
}
