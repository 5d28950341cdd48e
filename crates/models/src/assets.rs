//! Builders producing SCL documents programmatically — the shared plumbing
//! of the EPIC and synthetic model generators.

use sgcr_scl::{
    AccessPoint, Bay, Communication, ConductingEquipment, ConnectedAp, ConnectivityNode,
    DataTypeTemplates, ElectricalParams, EquipmentType, Header, Ied, LDevice, LNodeType, Ln,
    SclDocument, SourcePos, SubNetwork, Substation, Terminal, VoltageLevel,
};

/// Fluent builder for an SSD-style [`SclDocument`].
pub struct SsdBuilder {
    doc: SclDocument,
}

/// Starts an SSD for one substation.
pub fn ssd_builder(substation: &str) -> SsdBuilder {
    SsdBuilder {
        doc: SclDocument {
            header: Header {
                id: format!("{substation}-ssd"),
                version: "1".into(),
                revision: "A".into(),
            },
            substations: vec![Substation {
                name: substation.to_string(),
                ..Substation::default()
            }],
            ..SclDocument::default()
        },
    }
}

impl SsdBuilder {
    fn substation(&mut self) -> &mut Substation {
        &mut self.doc.substations[0]
    }

    fn vl(&mut self, name: &str) -> &mut VoltageLevel {
        let substation = self.substation();
        let index = substation
            .voltage_levels
            .iter()
            .position(|v| v.name == name)
            .expect("voltage level declared before use");
        &mut substation.voltage_levels[index]
    }

    fn bay(&mut self, vl: &str, bay: &str) -> &mut Bay {
        let vl = self.vl(vl);
        if let Some(index) = vl.bays.iter().position(|b| b.name == bay) {
            return &mut vl.bays[index];
        }
        vl.bays.push(Bay {
            name: bay.to_string(),
            ..Bay::default()
        });
        vl.bays.last_mut().expect("just pushed")
    }

    /// Declares a voltage level.
    pub fn voltage_level(mut self, name: &str, kv: f64) -> Self {
        self.substation().voltage_levels.push(VoltageLevel {
            name: name.to_string(),
            voltage_kv: kv,
            bays: vec![],
        });
        self
    }

    /// Adds a connectivity node (bus) to a bay.
    pub fn bus(mut self, vl: &str, bay: &str, cn: &str) -> Self {
        let substation_name = self.substation().name.clone();
        let path = format!("{substation_name}/{vl}/{bay}/{cn}");
        let bay = self.bay(vl, bay);
        bay.connectivity_nodes.push(ConnectivityNode {
            name: cn.to_string(),
            path_name: path,
            ..ConnectivityNode::default()
        });
        self
    }

    #[allow(clippy::too_many_arguments)]
    fn push_equipment(
        mut self,
        vl: &str,
        bay: &str,
        name: &str,
        eq_type: EquipmentType,
        nodes: &[&str],
        params: ElectricalParams,
        normally_open: bool,
    ) -> Self {
        // Terminals may reference connectivity nodes declared in other bays
        // (e.g. a feeder breaker tied to the main bus), so resolve each name
        // across the whole voltage level.
        let terminals: Vec<Terminal> = nodes
            .iter()
            .enumerate()
            .map(|(i, cn)| Terminal {
                name: format!("T{}", i + 1),
                connectivity_node: self.find_cn_path(vl, cn),
            })
            .collect();
        let bay = self.bay(vl, bay);
        bay.equipment.push(ConductingEquipment {
            pos: SourcePos::default(),
            name: name.to_string(),
            eq_type,
            type_code: eq_type.code().to_string(),
            terminals,
            params,
            normally_open,
        });
        self
    }

    /// Adds a circuit breaker between two buses of the same bay.
    pub fn breaker(
        self,
        vl: &str,
        bay: &str,
        name: &str,
        from: &str,
        to: &str,
        normally_open: bool,
    ) -> Self {
        self.push_equipment(
            vl,
            bay,
            name,
            EquipmentType::CircuitBreaker,
            &[from, to],
            ElectricalParams::default(),
            normally_open,
        )
    }

    /// Adds a line segment between two buses (any bays, same VL paths).
    #[allow(clippy::too_many_arguments)]
    pub fn line(
        mut self,
        vl: &str,
        bay: &str,
        name: &str,
        from: &str,
        to: &str,
        length_km: f64,
        r: f64,
        x: f64,
        max_i_ka: f64,
    ) -> Self {
        // Terminals may reference buses in other bays: resolve each CN in
        // whichever bay of this VL declares it.
        let from_path = self.find_cn_path(vl, from);
        let to_path = self.find_cn_path(vl, to);
        let bay = self.bay(vl, bay);
        bay.equipment.push(ConductingEquipment {
            pos: SourcePos::default(),
            name: name.to_string(),
            eq_type: EquipmentType::Line,
            type_code: "LIN".into(),
            terminals: vec![
                Terminal {
                    name: "T1".into(),
                    connectivity_node: from_path,
                },
                Terminal {
                    name: "T2".into(),
                    connectivity_node: to_path,
                },
            ],
            params: ElectricalParams {
                length_km: Some(length_km),
                r_ohm_per_km: Some(r),
                x_ohm_per_km: Some(x),
                max_i_ka: Some(max_i_ka),
                ..ElectricalParams::default()
            },
            normally_open: false,
        });
        self
    }

    fn find_cn_path(&self, vl: &str, cn: &str) -> String {
        let substation = &self.doc.substations[0];
        for voltage_level in &substation.voltage_levels {
            if voltage_level.name != vl {
                continue;
            }
            for bay in &voltage_level.bays {
                for node in &bay.connectivity_nodes {
                    if node.name == cn {
                        return node.path_name.clone();
                    }
                }
            }
        }
        format!("{}/{vl}/?/{cn}", substation.name)
    }

    /// Adds a generator (PV bus when `vm_pu` is set, PQ injection else).
    pub fn gen(
        self,
        vl: &str,
        bay: &str,
        name: &str,
        cn: &str,
        p_mw: f64,
        vm_pu: Option<f64>,
    ) -> Self {
        self.push_equipment(
            vl,
            bay,
            name,
            EquipmentType::Generator,
            &[cn],
            ElectricalParams {
                p_mw: Some(p_mw),
                vm_pu,
                ..ElectricalParams::default()
            },
            false,
        )
    }

    /// Adds a static generator (PV panel / battery).
    pub fn sgen(self, vl: &str, bay: &str, name: &str, cn: &str, p_mw: f64) -> Self {
        self.push_equipment(
            vl,
            bay,
            name,
            EquipmentType::Battery,
            &[cn],
            ElectricalParams {
                p_mw: Some(p_mw),
                ..ElectricalParams::default()
            },
            false,
        )
    }

    /// Adds an external-grid infeed.
    pub fn infeed(self, vl: &str, bay: &str, name: &str, cn: &str, vm_pu: f64) -> Self {
        self.push_equipment(
            vl,
            bay,
            name,
            EquipmentType::IncomingFeeder,
            &[cn],
            ElectricalParams {
                vm_pu: Some(vm_pu),
                ..ElectricalParams::default()
            },
            false,
        )
    }

    /// Adds a load.
    pub fn load(self, vl: &str, bay: &str, name: &str, cn: &str, p_mw: f64, q_mvar: f64) -> Self {
        self.push_equipment(
            vl,
            bay,
            name,
            EquipmentType::Load,
            &[cn],
            ElectricalParams {
                p_mw: Some(p_mw),
                q_mvar: Some(q_mvar),
                ..ElectricalParams::default()
            },
            false,
        )
    }

    /// Returns the finished document.
    pub fn finish(self) -> SclDocument {
        self.doc
    }
}

/// Fluent builder for an SCD-style [`SclDocument`].
pub struct ScdBuilder {
    doc: SclDocument,
}

/// Starts an SCD for one substation.
pub fn scd_builder(substation: &str, id: &str) -> ScdBuilder {
    ScdBuilder {
        doc: SclDocument {
            header: Header {
                id: id.to_string(),
                version: "1".into(),
                revision: "A".into(),
            },
            substations: vec![Substation {
                name: substation.to_string(),
                ..Substation::default()
            }],
            communication: Some(Communication::default()),
            ..SclDocument::default()
        },
    }
}

impl ScdBuilder {
    /// Declares a subnetwork (→ one emulated switch).
    pub fn subnetwork(mut self, name: &str) -> Self {
        self.doc
            .communication
            .as_mut()
            .expect("communication present")
            .subnetworks
            .push(SubNetwork {
                name: name.to_string(),
                net_type: "8-MMS".into(),
                ..SubNetwork::default()
            });
        self
    }

    /// Adds a host (connected access point) to a subnetwork.
    pub fn host(mut self, subnetwork: &str, name: &str, ip: &str, mac: Option<&str>) -> Self {
        let comm = self.doc.communication.as_mut().expect("communication");
        let sn = comm
            .subnetworks
            .iter_mut()
            .find(|s| s.name == subnetwork)
            .expect("subnetwork declared before hosts");
        sn.connected_aps.push(ConnectedAp {
            pos: SourcePos::default(),
            ied_name: name.to_string(),
            ap_name: "AP1".into(),
            ip: ip.to_string(),
            ip_subnet: "255.255.0.0".into(),
            mac: mac.map(str::to_string),
            gse: vec![],
        });
        self
    }

    /// Declares an IED with its LN class inventory.
    pub fn ied(mut self, name: &str, ln_classes: &[&str]) -> Self {
        self.doc.ieds.push(build_ied(name, ln_classes));
        for class in ln_classes {
            let id = format!("{class}_T");
            if !self.doc.templates.lnode_types.iter().any(|t| t.id == id) {
                self.doc.templates.lnode_types.push(LNodeType {
                    id,
                    ln_class: class.to_string(),
                    dos: vec![],
                });
            }
        }
        self
    }

    /// Returns the finished document as XML.
    pub fn finish_xml(self) -> String {
        sgcr_scl::write_scl(&self.doc)
    }

    /// Returns the finished document.
    pub fn finish(self) -> SclDocument {
        self.doc
    }
}

fn build_ied(name: &str, ln_classes: &[&str]) -> Ied {
    let mut lns = Vec::new();
    for class in ln_classes {
        lns.push(Ln {
            prefix: String::new(),
            ln_class: class.to_string(),
            inst: if *class == "LLN0" {
                String::new()
            } else {
                "1".into()
            },
            ln_type: format!("{class}_T"),
        });
    }
    Ied {
        pos: SourcePos::default(),
        name: name.to_string(),
        manufacturer: "sgcr".into(),
        ied_type: "virtual-ied".into(),
        access_points: vec![AccessPoint {
            name: "AP1".into(),
            ldevices: vec![LDevice {
                inst: "LD0".into(),
                lns,
            }],
        }],
    }
}

/// Generates a standalone ICD file for one IED.
pub fn icd_for(name: &str, ln_classes: &[&str]) -> String {
    let doc = SclDocument {
        header: Header {
            id: format!("{name}-icd"),
            version: "1".into(),
            revision: "A".into(),
        },
        ieds: vec![build_ied(name, ln_classes)],
        templates: DataTypeTemplates {
            lnode_types: ln_classes
                .iter()
                .map(|class| LNodeType {
                    id: format!("{class}_T"),
                    ln_class: class.to_string(),
                    dos: vec![],
                })
                .collect(),
        },
        ..SclDocument::default()
    };
    sgcr_scl::write_scl(&doc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgcr_scl::parse_scl;

    #[test]
    fn ssd_builder_roundtrip() {
        let doc = ssd_builder("S1")
            .voltage_level("MV", 22.0)
            .bus("MV", "Main", "CN1")
            .bus("MV", "Main", "CN2")
            .infeed("MV", "Main", "GRID", "CN1", 1.0)
            .breaker("MV", "Main", "CB1", "CN1", "CN2", false)
            .load("MV", "Main", "L1", "CN2", 5.0, 1.0)
            .finish();
        let text = sgcr_scl::write_scl(&doc);
        let reparsed = parse_scl(&text).unwrap();
        assert_eq!(
            reparsed.substations[0].voltage_levels[0].bays[0]
                .equipment
                .len(),
            3
        );
        assert_eq!(reparsed.connectivity_node_paths().len(), 2);
    }

    #[test]
    fn icd_roundtrip() {
        let text = icd_for("IEDX", &["LLN0", "XCBR", "PTOC"]);
        let doc = parse_scl(&text).unwrap();
        assert!(doc.ied("IEDX").unwrap().has_ln_class("PTOC"));
        assert_eq!(doc.templates.lnode_types.len(), 3);
    }
}
