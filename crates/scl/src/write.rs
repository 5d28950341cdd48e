//! Serializes a typed [`SclDocument`] back to SCL XML. Used by the model
//! generators (EPIC, synthetic multi-substation) so the whole SG-ML pipeline
//! runs from real files on disk.

use crate::types::*;
use sgcr_xml::{Document, NodeId};

/// Writes the document as SCL XML text.
pub fn write_scl(doc: &SclDocument) -> String {
    let mut xml = Document::new("SCL");
    let root = xml.root_id();
    xml.set_attr(root, "xmlns", "http://www.iec.ch/61850/2003/SCL");
    xml.set_attr(root, "version", "2007");

    let header = xml.add_element(root, "Header");
    xml.set_attr(header, "id", &doc.header.id);
    if !doc.header.version.is_empty() {
        xml.set_attr(header, "version", &doc.header.version);
    }
    if !doc.header.revision.is_empty() {
        xml.set_attr(header, "revision", &doc.header.revision);
    }

    for tie in &doc.inter_substation_lines {
        write_tie_line(&mut xml, root, tie);
    }

    for substation in &doc.substations {
        write_substation(&mut xml, root, substation);
    }

    if let Some(comm) = &doc.communication {
        write_communication(&mut xml, root, comm);
    }

    for ied in &doc.ieds {
        write_ied(&mut xml, root, ied);
    }

    if !doc.templates.lnode_types.is_empty() {
        let templates = xml.add_element(root, "DataTypeTemplates");
        for lt in &doc.templates.lnode_types {
            let el = xml.add_element(templates, "LNodeType");
            xml.set_attr(el, "id", &lt.id);
            xml.set_attr(el, "lnClass", &lt.ln_class);
            for do_name in &lt.dos {
                let d = xml.add_element(el, "DO");
                xml.set_attr(d, "name", do_name);
                xml.set_attr(d, "type", do_name);
            }
        }
    }

    xml.to_xml()
}

fn write_params(xml: &mut Document, parent: NodeId, params: &ElectricalParams) {
    let fields: [(&str, Option<f64>); 11] = [
        ("p_mw", params.p_mw),
        ("q_mvar", params.q_mvar),
        ("vm_pu", params.vm_pu),
        ("length_km", params.length_km),
        ("r_ohm_per_km", params.r_ohm_per_km),
        ("x_ohm_per_km", params.x_ohm_per_km),
        ("c_nf_per_km", params.c_nf_per_km),
        ("max_i_ka", params.max_i_ka),
        ("sn_mva", params.sn_mva),
        ("vk_percent", params.vk_percent),
        ("vkr_percent", params.vkr_percent),
    ];
    if fields.iter().all(|(_, v)| v.is_none()) {
        return;
    }
    let private = xml.add_element(parent, "Private");
    xml.set_attr(private, "type", "sgcr:ElectricalParams");
    for (name, value) in fields {
        if let Some(v) = value {
            xml.set_attr(private, name, &format!("{v}"));
        }
    }
}

fn write_terminal(xml: &mut Document, parent: NodeId, terminal: &Terminal) {
    let t = xml.add_element(parent, "Terminal");
    xml.set_attr(t, "name", &terminal.name);
    xml.set_attr(t, "connectivityNode", &terminal.connectivity_node);
}

fn write_substation(xml: &mut Document, root: NodeId, substation: &Substation) {
    let s = xml.add_element(root, "Substation");
    xml.set_attr(s, "name", &substation.name);
    for transformer in &substation.transformers {
        let t = xml.add_element(s, "PowerTransformer");
        xml.set_attr(t, "name", &transformer.name);
        xml.set_attr(t, "type", "PTR");
        for winding in &transformer.windings {
            let w = xml.add_element(t, "TransformerWinding");
            xml.set_attr(w, "name", &winding.name);
            xml.set_attr(w, "sgcr:ratedKV", &format!("{}", winding.rated_kv));
            write_terminal(xml, w, &winding.terminal);
        }
        write_params(xml, t, &transformer.params);
    }
    for vl in &substation.voltage_levels {
        let v = xml.add_element(s, "VoltageLevel");
        xml.set_attr(v, "name", &vl.name);
        let voltage = xml.add_element(v, "Voltage");
        xml.set_attr(voltage, "multiplier", "k");
        xml.set_attr(voltage, "unit", "V");
        xml.add_text(voltage, &format!("{}", vl.voltage_kv));
        for bay in &vl.bays {
            let b = xml.add_element(v, "Bay");
            xml.set_attr(b, "name", &bay.name);
            for cn in &bay.connectivity_nodes {
                let c = xml.add_element(b, "ConnectivityNode");
                xml.set_attr(c, "name", &cn.name);
                xml.set_attr(c, "pathName", &cn.path_name);
            }
            for eq in &bay.equipment {
                let e = xml.add_element(b, "ConductingEquipment");
                xml.set_attr(e, "name", &eq.name);
                xml.set_attr(e, "type", &eq.type_code);
                if eq.normally_open {
                    xml.set_attr(e, "sgcr:normallyOpen", "true");
                }
                for terminal in &eq.terminals {
                    write_terminal(xml, e, terminal);
                }
                write_params(xml, e, &eq.params);
            }
            for lnode in &bay.lnodes {
                let l = xml.add_element(b, "LNode");
                xml.set_attr(l, "iedName", &lnode.ied_name);
                xml.set_attr(l, "lnClass", &lnode.ln_class);
                xml.set_attr(l, "lnInst", &lnode.ln_inst);
                xml.set_attr(l, "ldInst", &lnode.ld_inst);
            }
        }
    }
}

fn write_communication(xml: &mut Document, root: NodeId, comm: &Communication) {
    let c = xml.add_element(root, "Communication");
    for sn in &comm.subnetworks {
        let s = xml.add_element(c, "SubNetwork");
        xml.set_attr(s, "name", &sn.name);
        if !sn.net_type.is_empty() {
            xml.set_attr(s, "type", &sn.net_type);
        }
        for ap in &sn.connected_aps {
            let a = xml.add_element(s, "ConnectedAP");
            xml.set_attr(a, "iedName", &ap.ied_name);
            xml.set_attr(a, "apName", &ap.ap_name);
            let address = xml.add_element(a, "Address");
            let ip = xml.add_element(address, "P");
            xml.set_attr(ip, "type", "IP");
            xml.add_text(ip, &ap.ip);
            let subnet = xml.add_element(address, "P");
            xml.set_attr(subnet, "type", "IP-SUBNET");
            xml.add_text(subnet, &ap.ip_subnet);
            if let Some(mac) = &ap.mac {
                let m = xml.add_element(address, "P");
                xml.set_attr(m, "type", "MAC-Address");
                xml.add_text(m, mac);
            }
            for gse in &ap.gse {
                let g = xml.add_element(a, "GSE");
                xml.set_attr(g, "ldInst", &gse.ld_inst);
                xml.set_attr(g, "cbName", &gse.cb_name);
                let gaddr = xml.add_element(g, "Address");
                let m = xml.add_element(gaddr, "P");
                xml.set_attr(m, "type", "MAC-Address");
                xml.add_text(m, &gse.mac);
                let appid = xml.add_element(gaddr, "P");
                xml.set_attr(appid, "type", "APPID");
                xml.add_text(appid, &format!("{:04X}", gse.appid));
                let vlan = xml.add_element(gaddr, "P");
                xml.set_attr(vlan, "type", "VLAN-ID");
                xml.add_text(vlan, &format!("{:03X}", gse.vlan_id));
            }
        }
    }
}

fn write_ied(xml: &mut Document, root: NodeId, ied: &Ied) {
    let i = xml.add_element(root, "IED");
    xml.set_attr(i, "name", &ied.name);
    if !ied.manufacturer.is_empty() {
        xml.set_attr(i, "manufacturer", &ied.manufacturer);
    }
    if !ied.ied_type.is_empty() {
        xml.set_attr(i, "type", &ied.ied_type);
    }
    for ap in &ied.access_points {
        let a = xml.add_element(i, "AccessPoint");
        xml.set_attr(a, "name", &ap.name);
        let server = xml.add_element(a, "Server");
        for ld in &ap.ldevices {
            let l = xml.add_element(server, "LDevice");
            xml.set_attr(l, "inst", &ld.inst);
            for ln in &ld.lns {
                if ln.ln_class == "LLN0" {
                    let n = xml.add_element(l, "LN0");
                    xml.set_attr(n, "lnClass", "LLN0");
                    xml.set_attr(n, "inst", "");
                    xml.set_attr(n, "lnType", &ln.ln_type);
                } else {
                    let n = xml.add_element(l, "LN");
                    if !ln.prefix.is_empty() {
                        xml.set_attr(n, "prefix", &ln.prefix);
                    }
                    xml.set_attr(n, "lnClass", &ln.ln_class);
                    xml.set_attr(n, "inst", &ln.inst);
                    xml.set_attr(n, "lnType", &ln.ln_type);
                }
            }
        }
    }
}

fn write_tie_line(xml: &mut Document, root: NodeId, tie: &InterSubstationLine) {
    let private = xml.add_element(root, "Private");
    xml.set_attr(private, "type", "sgcr:InterSubstationLine");
    let line = xml.add_element(private, "Line");
    xml.set_attr(line, "name", &tie.name);
    xml.set_attr(line, "fromSubstation", &tie.from_substation);
    xml.set_attr(line, "fromNode", &tie.from_node);
    xml.set_attr(line, "toSubstation", &tie.to_substation);
    xml.set_attr(line, "toNode", &tie.to_node);
    write_params(xml, line, &tie.params);
    for ied in &tie.protection_ieds {
        let p = xml.add_element(line, "ProtectionIED");
        xml.set_attr(p, "name", ied);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_scl;

    fn sample_doc() -> SclDocument {
        SclDocument {
            header: Header {
                id: "roundtrip".into(),
                version: "1".into(),
                revision: "B".into(),
            },
            substations: vec![Substation {
                pos: SourcePos::default(),
                name: "S1".into(),
                voltage_levels: vec![VoltageLevel {
                    name: "VL1".into(),
                    voltage_kv: 110.0,
                    bays: vec![Bay {
                        name: "B1".into(),
                        connectivity_nodes: vec![ConnectivityNode {
                            pos: SourcePos::default(),
                            name: "CN1".into(),
                            path_name: "S1/VL1/B1/CN1".into(),
                        }],
                        equipment: vec![ConductingEquipment {
                            pos: SourcePos::default(),
                            name: "CB1".into(),
                            eq_type: EquipmentType::CircuitBreaker,
                            type_code: "CBR".into(),
                            terminals: vec![Terminal {
                                name: "T1".into(),
                                connectivity_node: "S1/VL1/B1/CN1".into(),
                            }],
                            params: ElectricalParams {
                                p_mw: Some(5.0),
                                ..ElectricalParams::default()
                            },
                            normally_open: true,
                        }],
                        lnodes: vec![LNodeRef {
                            pos: SourcePos::default(),
                            ied_name: "IED1".into(),
                            ln_class: "XCBR".into(),
                            ln_inst: "1".into(),
                            ld_inst: "LD0".into(),
                        }],
                    }],
                }],
                transformers: vec![],
            }],
            communication: Some(Communication {
                subnetworks: vec![SubNetwork {
                    pos: SourcePos::default(),
                    name: "bus1".into(),
                    net_type: "8-MMS".into(),
                    connected_aps: vec![ConnectedAp {
                        pos: SourcePos::default(),
                        ied_name: "IED1".into(),
                        ap_name: "AP1".into(),
                        ip: "10.0.0.1".into(),
                        ip_subnet: "255.255.255.0".into(),
                        mac: Some("02-00-00-00-00-01".into()),
                        gse: vec![GseAddress {
                            ld_inst: "LD0".into(),
                            cb_name: "gcb01".into(),
                            mac: "01-0C-CD-01-00-01".into(),
                            appid: 0x3001,
                            vlan_id: 5,
                        }],
                    }],
                }],
            }),
            ieds: vec![Ied {
                pos: SourcePos::default(),
                name: "IED1".into(),
                manufacturer: "sgcr".into(),
                ied_type: "virtual".into(),
                access_points: vec![AccessPoint {
                    name: "AP1".into(),
                    ldevices: vec![LDevice {
                        inst: "LD0".into(),
                        lns: vec![
                            Ln {
                                prefix: String::new(),
                                ln_class: "LLN0".into(),
                                inst: String::new(),
                                ln_type: "LLN0_T".into(),
                            },
                            Ln {
                                prefix: String::new(),
                                ln_class: "XCBR".into(),
                                inst: "1".into(),
                                ln_type: "XCBR_T".into(),
                            },
                        ],
                    }],
                }],
            }],
            templates: DataTypeTemplates {
                lnode_types: vec![LNodeType {
                    id: "XCBR_T".into(),
                    ln_class: "XCBR".into(),
                    dos: vec!["Pos".into()],
                }],
            },
            inter_substation_lines: vec![],
        }
    }

    #[test]
    fn write_parse_roundtrip() {
        let doc = sample_doc();
        let text = write_scl(&doc);
        let reparsed = parse_scl(&text).unwrap();
        assert_eq!(reparsed, doc);
    }

    #[test]
    fn tie_lines_roundtrip() {
        let doc = SclDocument {
            header: Header {
                id: "sed".into(),
                ..Header::default()
            },
            inter_substation_lines: vec![InterSubstationLine {
                pos: SourcePos::default(),
                name: "tie12".into(),
                from_substation: "S1".into(),
                from_node: "S1/VL1/B1/CN1".into(),
                to_substation: "S2".into(),
                to_node: "S2/VL1/B1/CN1".into(),
                params: ElectricalParams {
                    length_km: Some(30.0),
                    r_ohm_per_km: Some(0.06),
                    x_ohm_per_km: Some(0.3),
                    ..ElectricalParams::default()
                },
                protection_ieds: vec!["P1".into(), "P2".into()],
            }],
            ..SclDocument::default()
        };
        let text = write_scl(&doc);
        let reparsed = parse_scl(&text).unwrap();
        assert_eq!(reparsed.inter_substation_lines, doc.inter_substation_lines);
    }
}
