//! Generation of the power system simulation model from an (optionally
//! consolidated) SSD — the paper's *"SG-ML parses the SSD file and then
//! generates a power system simulation model"* stage.
//!
//! Mapping rules (SCL equipment type → power-flow element):
//!
//! | SCL | element |
//! |-----|---------|
//! | `ConnectivityNode` | bus (named by its `pathName`, voltage from the level) |
//! | `CBR` / `DIS` (2 terminals) | bus-bus switch (closed unless `sgcr:normallyOpen`) |
//! | `LIN` (2 terminals) | line (parameters from the `Private` extension, defaults otherwise) |
//! | `IFL` | external grid (slack) |
//! | `GEN` | PV generator when `vm_pu` given, else static generator |
//! | `BAT` | static generator (storage) |
//! | `LOD` | PQ load |
//! | `PowerTransformer` | two-winding transformer |
//! | SED tie line | line between substations |
//!
//! Element names are scoped `"{substation}/{equipment}"` so multi-substation
//! models stay unambiguous; the process-store key scheme relies on this.

use sgcr_powerflow::{BusId, PowerNetwork, SwitchTarget};
use sgcr_scl::{EquipmentType, SclDocument};
use std::collections::HashMap;

/// Default line parameters when an SSD carries no electrical `Private`
/// extension (medium-voltage cable-ish values).
const DEFAULT_R_OHM_PER_KM: f64 = 0.1;
const DEFAULT_X_OHM_PER_KM: f64 = 0.12;
const DEFAULT_MAX_I_KA: f64 = 0.5;

/// Compiles the SSD (plus SED tie lines) into a [`PowerNetwork`].
///
/// The bundle rules have already reported what this leaves out: a second
/// node with a taken path, an element whose terminals do not resolve, a
/// transformer without two windings, and equipment with no power-flow
/// mapping.
pub fn compile_power(doc: &SclDocument) -> PowerNetwork {
    let mut network = PowerNetwork::new(&doc.header.id);
    let mut bus_by_path: HashMap<String, BusId> = HashMap::new();

    // Pass 1: buses from connectivity nodes.
    for substation in &doc.substations {
        for vl in &substation.voltage_levels {
            for bay in &vl.bays {
                for cn in &bay.connectivity_nodes {
                    if bus_by_path.contains_key(&cn.path_name) {
                        continue;
                    }
                    let id = network.add_bus(&cn.path_name, vl.voltage_kv);
                    bus_by_path.insert(cn.path_name.clone(), id);
                }
            }
        }
    }

    let resolve = |path: &str| bus_by_path.get(path).copied();

    // Pass 2: equipment.
    for substation in &doc.substations {
        for vl in &substation.voltage_levels {
            for bay in &vl.bays {
                for eq in &bay.equipment {
                    let scoped = format!("{}/{}", substation.name, eq.name);
                    let terminal_buses: Vec<Option<BusId>> = eq
                        .terminals
                        .iter()
                        .map(|t| resolve(&t.connectivity_node))
                        .collect();
                    match eq.eq_type {
                        EquipmentType::CircuitBreaker | EquipmentType::Disconnector => {
                            let (Some(Some(a)), Some(Some(b))) =
                                (terminal_buses.first(), terminal_buses.get(1))
                            else {
                                continue;
                            };
                            network.add_switch(
                                &scoped,
                                *a,
                                SwitchTarget::Bus(*b),
                                !eq.normally_open,
                            );
                        }
                        EquipmentType::Line => {
                            let (Some(Some(a)), Some(Some(b))) =
                                (terminal_buses.first(), terminal_buses.get(1))
                            else {
                                continue;
                            };
                            network.add_line(
                                &scoped,
                                *a,
                                *b,
                                eq.params.length_km.unwrap_or(1.0),
                                eq.params.r_ohm_per_km.unwrap_or(DEFAULT_R_OHM_PER_KM),
                                eq.params.x_ohm_per_km.unwrap_or(DEFAULT_X_OHM_PER_KM),
                                eq.params.c_nf_per_km.unwrap_or(0.0),
                                eq.params.max_i_ka.unwrap_or(DEFAULT_MAX_I_KA),
                            );
                        }
                        EquipmentType::IncomingFeeder => {
                            let Some(Some(bus)) = terminal_buses.first() else {
                                continue;
                            };
                            network.add_ext_grid(
                                &scoped,
                                *bus,
                                eq.params.vm_pu.unwrap_or(1.0),
                                0.0,
                            );
                        }
                        EquipmentType::Generator => {
                            let Some(Some(bus)) = terminal_buses.first() else {
                                continue;
                            };
                            let p_mw = eq.params.p_mw.unwrap_or(0.0);
                            match eq.params.vm_pu {
                                Some(vm_pu) => {
                                    network.add_gen(&scoped, *bus, p_mw, vm_pu);
                                }
                                None => {
                                    network.add_sgen(
                                        &scoped,
                                        *bus,
                                        p_mw,
                                        eq.params.q_mvar.unwrap_or(0.0),
                                    );
                                }
                            }
                        }
                        EquipmentType::Battery => {
                            let Some(Some(bus)) = terminal_buses.first() else {
                                continue;
                            };
                            network.add_sgen(
                                &scoped,
                                *bus,
                                eq.params.p_mw.unwrap_or(0.0),
                                eq.params.q_mvar.unwrap_or(0.0),
                            );
                        }
                        EquipmentType::Load => {
                            let Some(Some(bus)) = terminal_buses.first() else {
                                continue;
                            };
                            network.add_load(
                                &scoped,
                                *bus,
                                eq.params.p_mw.unwrap_or(0.0),
                                eq.params.q_mvar.unwrap_or(0.0),
                            );
                        }
                        EquipmentType::CurrentTransformer | EquipmentType::VoltageTransformer => {
                            // Instrumentation only: no power-flow element.
                        }
                        EquipmentType::Other => {}
                    }
                }
            }
        }
        for transformer in &substation.transformers {
            let scoped = format!("{}/{}", substation.name, transformer.name);
            let [hv_winding, lv_winding] = &transformer.windings[..] else {
                continue;
            };
            let hv = resolve(&hv_winding.terminal.connectivity_node);
            let lv = resolve(&lv_winding.terminal.connectivity_node);
            let (Some(hv), Some(lv)) = (hv, lv) else {
                continue;
            };
            let vn_hv = if hv_winding.rated_kv > 0.0 {
                hv_winding.rated_kv
            } else {
                network.bus[hv.index()].vn_kv
            };
            let vn_lv = if lv_winding.rated_kv > 0.0 {
                lv_winding.rated_kv
            } else {
                network.bus[lv.index()].vn_kv
            };
            network.add_trafo(
                &scoped,
                hv,
                lv,
                transformer.params.sn_mva.unwrap_or(25.0),
                vn_hv,
                vn_lv,
                transformer.params.vk_percent.unwrap_or(12.0),
                transformer.params.vkr_percent.unwrap_or(0.5),
            );
        }
    }

    // Pass 3: SED inter-substation tie lines.
    for tie in &doc.inter_substation_lines {
        let (Some(a), Some(b)) = (resolve(&tie.from_node), resolve(&tie.to_node)) else {
            continue;
        };
        network.add_line(
            &format!("{}/{}", tie.from_substation, tie.name),
            a,
            b,
            tie.params.length_km.unwrap_or(10.0),
            tie.params.r_ohm_per_km.unwrap_or(DEFAULT_R_OHM_PER_KM),
            tie.params.x_ohm_per_km.unwrap_or(DEFAULT_X_OHM_PER_KM),
            tie.params.c_nf_per_km.unwrap_or(0.0),
            tie.params.max_i_ka.unwrap_or(DEFAULT_MAX_I_KA),
        );
    }

    network
}
