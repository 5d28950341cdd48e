//! SED-driven consolidation of multi-substation models.
//!
//! Per the paper (§III-B): *"Our toolchain first combines multiple SSD files
//! into a consolidated SSD file based on the connectivity derived from SED
//! files. Then the consolidated SSD file is processed using the same tool to
//! generate a multi-substation power grid physical model."* Likewise,
//! *"to produce multi-substation cyber network model, we need to combine
//! multiple SCD files … WAN … is abstracted as a single switch connected to
//! all substations."*

use crate::types::{Communication, Header, SclDocument, SubNetwork};

/// Combines per-substation SSDs with SEDs into one consolidated SSD-style
/// document: all substations plus the inter-substation tie lines.
///
/// Consolidation does not judge the files: a substation name already taken
/// keeps its first declaration, and every tie is carried over as written.
/// Whether the names collide or a tie resolves is a bundle rule, checked
/// with the others before anything is compiled.
pub fn consolidate_ssd<'a>(
    ssds: impl IntoIterator<Item = &'a SclDocument>,
    seds: impl IntoIterator<Item = &'a SclDocument>,
) -> SclDocument {
    let mut combined = SclDocument {
        header: header("consolidated-ssd"),
        ..SclDocument::default()
    };
    for ssd in ssds {
        for substation in &ssd.substations {
            if combined.substation(&substation.name).is_none() {
                combined.substations.push(substation.clone());
            }
        }
    }
    for sed in seds {
        combined
            .inter_substation_lines
            .extend(sed.inter_substation_lines.iter().cloned());
    }
    combined
}

/// Combines per-substation SCDs into one consolidated SCD-style document.
/// Each substation's subnetworks are kept (renamed with the substation
/// prefix when names collide); the IED lists are concatenated, an IED name
/// already taken keeping its first declaration.
///
/// The WAN joining the substations is *not* represented here — exactly as in
/// the paper, the network compiler abstracts it as one switch connecting
/// every substation's station bus.
pub fn consolidate_scd<'a>(scds: impl IntoIterator<Item = &'a SclDocument>) -> SclDocument {
    let mut combined = SclDocument {
        header: header("consolidated-scd"),
        communication: Some(Communication::default()),
        ..SclDocument::default()
    };
    for scd in scds {
        combined.substations.extend(scd.substations.iter().cloned());
        for ied in &scd.ieds {
            if combined.ied(&ied.name).is_none() {
                combined.ieds.push(ied.clone());
            }
        }
        combined
            .templates
            .lnode_types
            .extend(scd.templates.lnode_types.iter().cloned());
        if let Some(comm) = &scd.communication {
            let target = combined
                .communication
                .get_or_insert_with(Communication::default);
            for sn in &comm.subnetworks {
                let mut sn = sn.clone();
                if target
                    .subnetworks
                    .iter()
                    .any(|existing| existing.name == sn.name)
                {
                    let prefix = scd
                        .substations
                        .first()
                        .map(|s| s.name.clone())
                        .unwrap_or_else(|| format!("scd{}", target.subnetworks.len()));
                    sn.name = format!("{prefix}_{}", sn.name);
                }
                target.subnetworks.push(sn);
            }
        }
    }
    combined
        .templates
        .lnode_types
        .sort_by(|a, b| a.id.cmp(&b.id));
    combined.templates.lnode_types.dedup();
    combined
}

fn header(id: &str) -> Header {
    Header {
        id: id.to_string(),
        version: "1".to_string(),
        revision: String::new(),
    }
}

/// The subnetworks of a consolidated SCD grouped for WAN attachment:
/// `(subnetwork name, ied names)` — one station bus per substation, all to
/// be hung off the single WAN switch by the network compiler.
pub fn station_buses(doc: &SclDocument) -> Vec<(String, Vec<String>)> {
    doc.communication
        .as_ref()
        .map(|c| {
            c.subnetworks
                .iter()
                .map(|sn: &SubNetwork| {
                    (
                        sn.name.clone(),
                        sn.connected_aps
                            .iter()
                            .map(|ap| ap.ied_name.clone())
                            .collect(),
                    )
                })
                .collect()
        })
        .unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::*;

    fn ssd_with(name: &str) -> SclDocument {
        SclDocument {
            substations: vec![Substation {
                name: name.to_string(),
                voltage_levels: vec![VoltageLevel {
                    name: "VL1".into(),
                    voltage_kv: 110.0,
                    bays: vec![Bay {
                        name: "B1".into(),
                        connectivity_nodes: vec![ConnectivityNode {
                            name: "CN1".into(),
                            path_name: format!("{name}/VL1/B1/CN1"),
                            ..ConnectivityNode::default()
                        }],
                        ..Bay::default()
                    }],
                }],
                transformers: vec![],
                ..Substation::default()
            }],
            ..SclDocument::default()
        }
    }

    fn sed_between(a: &str, b: &str) -> SclDocument {
        SclDocument {
            inter_substation_lines: vec![InterSubstationLine {
                name: format!("tie-{a}-{b}"),
                from_substation: a.to_string(),
                from_node: format!("{a}/VL1/B1/CN1"),
                to_substation: b.to_string(),
                to_node: format!("{b}/VL1/B1/CN1"),
                ..InterSubstationLine::default()
            }],
            ..SclDocument::default()
        }
    }

    fn scd_with(substation: &str, ied: &str, ip: &str) -> SclDocument {
        SclDocument {
            substations: vec![Substation {
                name: substation.to_string(),
                ..Substation::default()
            }],
            communication: Some(Communication {
                subnetworks: vec![SubNetwork {
                    name: "StationBus".into(),
                    net_type: "8-MMS".into(),
                    connected_aps: vec![ConnectedAp {
                        ied_name: ied.to_string(),
                        ap_name: "AP1".into(),
                        ip: ip.to_string(),
                        ip_subnet: "255.255.0.0".into(),
                        ..ConnectedAp::default()
                    }],
                    ..SubNetwork::default()
                }],
            }),
            ieds: vec![Ied {
                name: ied.to_string(),
                ..Ied::default()
            }],
            ..SclDocument::default()
        }
    }

    #[test]
    fn ssd_consolidation_combines_substations_and_ties() {
        let combined = consolidate_ssd(
            &[ssd_with("S1"), ssd_with("S2")],
            &[sed_between("S1", "S2")],
        );
        assert_eq!(combined.substations.len(), 2);
        assert_eq!(combined.inter_substation_lines.len(), 1);
    }

    #[test]
    fn first_declaration_of_a_name_wins() {
        let mut second = ssd_with("S1");
        second.substations[0].voltage_levels.clear();
        let combined = consolidate_ssd(&[ssd_with("S1"), second], &[]);
        assert_eq!(combined.substations.len(), 1);
        assert_eq!(combined.substations[0].voltage_levels.len(), 1);
        let combined = consolidate_scd(&[
            scd_with("S1", "IED1", "10.0.1.1"),
            scd_with("S2", "IED1", "10.0.2.1"),
        ]);
        assert_eq!(combined.ieds.len(), 1);
    }

    #[test]
    fn scd_consolidation_merges_and_renames_subnetworks() {
        let combined = consolidate_scd(&[
            scd_with("S1", "S1IED1", "10.0.1.1"),
            scd_with("S2", "S2IED1", "10.0.2.1"),
        ]);
        assert_eq!(combined.ieds.len(), 2);
        let comm = combined.communication.unwrap();
        assert_eq!(comm.subnetworks.len(), 2);
        assert_eq!(comm.subnetworks[0].name, "StationBus");
        assert_eq!(comm.subnetworks[1].name, "S2_StationBus");
    }

    #[test]
    fn station_bus_listing() {
        let combined = consolidate_scd(&[
            scd_with("S1", "S1IED1", "10.0.1.1"),
            scd_with("S2", "S2IED1", "10.0.2.1"),
        ]);
        let buses = station_buses(&combined);
        assert_eq!(buses.len(), 2);
        assert_eq!(buses[0].1, vec!["S1IED1".to_string()]);
    }
}
