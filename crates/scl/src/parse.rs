//! Parsers from XML to the typed SCL model, one entry point per file kind.

use crate::codes;
use crate::error::{Diagnostic, SclError};
use crate::types::*;
use sgcr_xml::{Document, ElementRef};

/// The source position of an element, or the unknown position for documents
/// built in memory.
fn pos_of(el: &ElementRef<'_>) -> SourcePos {
    el.position()
        .map(|p| SourcePos::new(p.line, p.column))
        .unwrap_or_default()
}

/// Parses any SCL document without kind-specific requirements.
///
/// # Errors
///
/// Returns [`SclError`] if the text is not well-formed XML or not SCL.
pub fn parse_scl(text: &str) -> Result<SclDocument, SclError> {
    let (parsed, diagnostics) = parse_scl_lenient(text)?;
    if diagnostics
        .iter()
        .any(|d| d.severity == crate::error::Severity::Error)
    {
        return Err(SclError::Invalid { diagnostics });
    }
    Ok(parsed)
}

/// Parses any SCL document, returning the model alongside *all* structural
/// diagnostics (warnings and errors) instead of failing on errors — the
/// entry point analyzers use so a flawed document can still be inspected.
///
/// # Errors
///
/// Returns [`SclError`] only when the text is not well-formed XML or the
/// root element is not `<SCL>`.
pub fn parse_scl_lenient(text: &str) -> Result<(SclDocument, Vec<Diagnostic>), SclError> {
    let doc = Document::parse(text).map_err(|e| SclError::Xml(e.to_string()))?;
    let root = doc.root_element();
    if root.name() != "SCL" {
        return Err(SclError::NotScl {
            root: root.name().to_string(),
        });
    }
    let mut diagnostics = Vec::new();
    let parsed = parse_document(&root, &mut diagnostics);
    Ok((parsed, diagnostics))
}

fn parse_document(root: &ElementRef<'_>, diagnostics: &mut Vec<Diagnostic>) -> SclDocument {
    let header = root
        .child("Header")
        .map(|h| Header {
            id: h.attr_or("id", "").to_string(),
            version: h.attr_or("version", "").to_string(),
            revision: h.attr_or("revision", "").to_string(),
        })
        .unwrap_or_else(|| {
            diagnostics.push(Diagnostic::warning(
                codes::MISSING_HEADER,
                "missing <Header>",
                "SCL",
            ));
            Header::default()
        });

    let substations = root
        .children_named("Substation")
        .iter()
        .map(|s| parse_substation(s, diagnostics))
        .collect();

    let communication = root.child("Communication").map(|c| parse_communication(&c));

    let ieds = root
        .children_named("IED")
        .iter()
        .map(|i| parse_ied(i, diagnostics))
        .collect();

    let templates = root
        .child("DataTypeTemplates")
        .map(|t| parse_templates(&t))
        .unwrap_or_default();

    let inter_substation_lines = root
        .children_named("Private")
        .iter()
        .filter(|p| p.attr("type") == Some("sgcr:InterSubstationLine"))
        .filter_map(|p| parse_tie_line(p, diagnostics))
        .collect();

    SclDocument {
        header,
        substations,
        communication,
        ieds,
        templates,
        inter_substation_lines,
    }
}

fn parse_params(parent: &ElementRef<'_>) -> ElectricalParams {
    let mut params = ElectricalParams::default();
    for private in parent.children_named("Private") {
        if private.attr("type") != Some("sgcr:ElectricalParams") {
            continue;
        }
        params.p_mw = private.attr_parse("p_mw").or(params.p_mw);
        params.q_mvar = private.attr_parse("q_mvar").or(params.q_mvar);
        params.vm_pu = private.attr_parse("vm_pu").or(params.vm_pu);
        params.length_km = private.attr_parse("length_km").or(params.length_km);
        params.r_ohm_per_km = private.attr_parse("r_ohm_per_km").or(params.r_ohm_per_km);
        params.x_ohm_per_km = private.attr_parse("x_ohm_per_km").or(params.x_ohm_per_km);
        params.c_nf_per_km = private.attr_parse("c_nf_per_km").or(params.c_nf_per_km);
        params.max_i_ka = private.attr_parse("max_i_ka").or(params.max_i_ka);
        params.sn_mva = private.attr_parse("sn_mva").or(params.sn_mva);
        params.vk_percent = private.attr_parse("vk_percent").or(params.vk_percent);
        params.vkr_percent = private.attr_parse("vkr_percent").or(params.vkr_percent);
    }
    params
}

fn parse_substation(s: &ElementRef<'_>, diagnostics: &mut Vec<Diagnostic>) -> Substation {
    let name = s.attr_or("name", "").to_string();
    if name.is_empty() {
        diagnostics.push(Diagnostic::error(
            codes::UNNAMED_ELEMENT,
            "substation without a name",
            "Substation",
        ));
    }
    let voltage_levels = s
        .children_named("VoltageLevel")
        .iter()
        .map(|vl| parse_voltage_level(vl, &name, diagnostics))
        .collect();
    let transformers = s
        .children_named("PowerTransformer")
        .iter()
        .map(|t| parse_transformer(t, diagnostics))
        .collect();
    Substation {
        pos: pos_of(s),
        name,
        voltage_levels,
        transformers,
    }
}

fn parse_voltage_level(
    vl: &ElementRef<'_>,
    substation: &str,
    diagnostics: &mut Vec<Diagnostic>,
) -> VoltageLevel {
    let name = vl.attr_or("name", "").to_string();
    // <Voltage multiplier="k" unit="V">110</Voltage>
    let voltage_kv = vl
        .child("Voltage")
        .map(|v| {
            let value: f64 = v.text().trim().parse().unwrap_or_else(|_| {
                diagnostics.push(Diagnostic::error(
                    codes::UNPARSABLE_VALUE,
                    "unparsable <Voltage> value",
                    format!("{substation}/{name}"),
                ));
                0.0
            });
            match v.attr_or("multiplier", "k") {
                "k" => value,
                "M" => value * 1000.0,
                "" | "none" => value / 1000.0,
                other => {
                    diagnostics.push(Diagnostic::warning(
                        codes::UNKNOWN_MULTIPLIER,
                        format!("unknown voltage multiplier {other:?}, assuming kV"),
                        format!("{substation}/{name}"),
                    ));
                    value
                }
            }
        })
        .unwrap_or_else(|| {
            diagnostics.push(Diagnostic::warning(
                codes::UNPARSABLE_VALUE,
                "voltage level without <Voltage>, assuming 20 kV",
                format!("{substation}/{name}"),
            ));
            20.0
        });
    let bays = vl
        .children_named("Bay")
        .iter()
        .map(|b| parse_bay(b, substation, &name, diagnostics))
        .collect();
    VoltageLevel {
        name,
        voltage_kv,
        bays,
    }
}

fn parse_bay(
    b: &ElementRef<'_>,
    substation: &str,
    voltage_level: &str,
    diagnostics: &mut Vec<Diagnostic>,
) -> Bay {
    let name = b.attr_or("name", "").to_string();
    let connectivity_nodes = b
        .children_named("ConnectivityNode")
        .iter()
        .map(|cn| ConnectivityNode {
            pos: pos_of(cn),
            name: cn.attr_or("name", "").to_string(),
            path_name: cn.attr("pathName").map(str::to_string).unwrap_or_else(|| {
                format!(
                    "{substation}/{voltage_level}/{name}/{}",
                    cn.attr_or("name", "")
                )
            }),
        })
        .collect();
    let equipment = b
        .children_named("ConductingEquipment")
        .iter()
        .map(|ce| {
            let type_code = ce.attr_or("type", "OTH").to_string();
            let terminals = ce
                .children_named("Terminal")
                .iter()
                .map(|t| Terminal {
                    name: t.attr_or("name", "").to_string(),
                    connectivity_node: t
                        .attr("connectivityNode")
                        .or(t.attr("cNodeName"))
                        .unwrap_or("")
                        .to_string(),
                })
                .collect::<Vec<_>>();
            if terminals.is_empty() {
                diagnostics.push(Diagnostic::warning(
                    codes::EQUIPMENT_NO_TERMINAL,
                    "equipment without terminals",
                    format!(
                        "{substation}/{voltage_level}/{name}/{}",
                        ce.attr_or("name", "")
                    ),
                ));
            }
            ConductingEquipment {
                pos: pos_of(ce),
                name: ce.attr_or("name", "").to_string(),
                eq_type: EquipmentType::parse(&type_code),
                type_code,
                terminals,
                params: parse_params(ce),
                normally_open: ce.attr("sgcr:normallyOpen") == Some("true"),
            }
        })
        .collect();
    let lnodes = b
        .children_named("LNode")
        .iter()
        .map(|ln| LNodeRef {
            pos: pos_of(ln),
            ied_name: ln.attr_or("iedName", "").to_string(),
            ln_class: ln.attr_or("lnClass", "").to_string(),
            ln_inst: ln.attr_or("lnInst", "").to_string(),
            ld_inst: ln.attr_or("ldInst", "").to_string(),
        })
        .collect();
    Bay {
        name,
        equipment,
        connectivity_nodes,
        lnodes,
    }
}

fn parse_transformer(t: &ElementRef<'_>, diagnostics: &mut Vec<Diagnostic>) -> PowerTransformer {
    let name = t.attr_or("name", "").to_string();
    let windings: Vec<TransformerWinding> = t
        .children_named("TransformerWinding")
        .iter()
        .map(|w| {
            let terminal = w
                .child("Terminal")
                .map(|term| Terminal {
                    name: term.attr_or("name", "").to_string(),
                    connectivity_node: term
                        .attr("connectivityNode")
                        .or(term.attr("cNodeName"))
                        .unwrap_or("")
                        .to_string(),
                })
                .unwrap_or_else(|| {
                    diagnostics.push(Diagnostic::error(
                        codes::WINDING_NO_TERMINAL,
                        "transformer winding without a terminal",
                        name.clone(),
                    ));
                    Terminal {
                        name: String::new(),
                        connectivity_node: String::new(),
                    }
                });
            TransformerWinding {
                name: w.attr_or("name", "").to_string(),
                terminal,
                rated_kv: w.attr_parse("sgcr:ratedKV").unwrap_or(0.0),
            }
        })
        .collect();
    if windings.len() != 2 {
        diagnostics.push(Diagnostic::error(
            codes::WINDING_COUNT,
            format!("transformer has {} windings, expected 2", windings.len()),
            name.clone(),
        ));
    }
    PowerTransformer {
        pos: pos_of(t),
        name,
        windings,
        params: parse_params(t),
    }
}

fn parse_communication(c: &ElementRef<'_>) -> Communication {
    let subnetworks = c
        .children_named("SubNetwork")
        .iter()
        .map(|sn| {
            let connected_aps = sn
                .children_named("ConnectedAP")
                .iter()
                .map(|ap| {
                    let mut ip = String::new();
                    let mut ip_subnet = String::new();
                    let mut mac = None;
                    if let Some(address) = ap.child("Address") {
                        for p in address.children_named("P") {
                            match p.attr_or("type", "") {
                                "IP" => ip = p.text().trim().to_string(),
                                "IP-SUBNET" => ip_subnet = p.text().trim().to_string(),
                                "MAC-Address" => mac = Some(p.text().trim().to_string()),
                                _ => {}
                            }
                        }
                    }
                    let gse = ap
                        .children_named("GSE")
                        .iter()
                        .map(|g| {
                            let mut mac = String::new();
                            let mut appid = 0u16;
                            let mut vlan_id = 0u16;
                            if let Some(address) = g.child("Address") {
                                for p in address.children_named("P") {
                                    match p.attr_or("type", "") {
                                        "MAC-Address" => mac = p.text().trim().to_string(),
                                        "APPID" => {
                                            appid = u16::from_str_radix(p.text().trim(), 16)
                                                .unwrap_or(0)
                                        }
                                        "VLAN-ID" => {
                                            vlan_id = u16::from_str_radix(p.text().trim(), 16)
                                                .unwrap_or(0)
                                        }
                                        _ => {}
                                    }
                                }
                            }
                            GseAddress {
                                ld_inst: g.attr_or("ldInst", "").to_string(),
                                cb_name: g.attr_or("cbName", "").to_string(),
                                mac,
                                appid,
                                vlan_id,
                            }
                        })
                        .collect();
                    ConnectedAp {
                        pos: pos_of(ap),
                        ied_name: ap.attr_or("iedName", "").to_string(),
                        ap_name: ap.attr_or("apName", "").to_string(),
                        ip,
                        ip_subnet,
                        mac,
                        gse,
                    }
                })
                .collect();
            SubNetwork {
                pos: pos_of(sn),
                name: sn.attr_or("name", "").to_string(),
                net_type: sn.attr_or("type", "").to_string(),
                connected_aps,
            }
        })
        .collect();
    Communication { subnetworks }
}

fn parse_ied(i: &ElementRef<'_>, diagnostics: &mut Vec<Diagnostic>) -> Ied {
    let name = i.attr_or("name", "").to_string();
    if name.is_empty() {
        diagnostics.push(Diagnostic::error(
            codes::UNNAMED_ELEMENT,
            "IED without a name",
            "IED",
        ));
    }
    let access_points = i
        .children_named("AccessPoint")
        .iter()
        .map(|ap| {
            let ldevices = ap
                .descendants_named("LDevice")
                .iter()
                .map(|ld| {
                    let mut lns: Vec<Ln> = Vec::new();
                    if let Some(lln0) = ld.child("LN0") {
                        lns.push(Ln {
                            prefix: String::new(),
                            ln_class: "LLN0".to_string(),
                            inst: String::new(),
                            ln_type: lln0.attr_or("lnType", "").to_string(),
                        });
                    }
                    for ln in ld.children_named("LN") {
                        lns.push(Ln {
                            prefix: ln.attr_or("prefix", "").to_string(),
                            ln_class: ln.attr_or("lnClass", "").to_string(),
                            inst: ln.attr_or("inst", "").to_string(),
                            ln_type: ln.attr_or("lnType", "").to_string(),
                        });
                    }
                    LDevice {
                        inst: ld.attr_or("inst", "").to_string(),
                        lns,
                    }
                })
                .collect();
            AccessPoint {
                name: ap.attr_or("name", "").to_string(),
                ldevices,
            }
        })
        .collect();
    Ied {
        pos: pos_of(i),
        name,
        manufacturer: i.attr_or("manufacturer", "").to_string(),
        ied_type: i.attr_or("type", "").to_string(),
        access_points,
    }
}

fn parse_templates(t: &ElementRef<'_>) -> DataTypeTemplates {
    let lnode_types = t
        .children_named("LNodeType")
        .iter()
        .map(|lt| LNodeType {
            id: lt.attr_or("id", "").to_string(),
            ln_class: lt.attr_or("lnClass", "").to_string(),
            dos: lt
                .children_named("DO")
                .iter()
                .map(|d| d.attr_or("name", "").to_string())
                .collect(),
        })
        .collect();
    DataTypeTemplates { lnode_types }
}

fn parse_tie_line(
    p: &ElementRef<'_>,
    diagnostics: &mut Vec<Diagnostic>,
) -> Option<InterSubstationLine> {
    let line = p.child("Line")?;
    let name = line.attr_or("name", "").to_string();
    let from_substation = line.attr_or("fromSubstation", "").to_string();
    let to_substation = line.attr_or("toSubstation", "").to_string();
    if from_substation.is_empty() || to_substation.is_empty() {
        diagnostics.push(Diagnostic::error(
            codes::TIE_MISSING_REFS,
            "tie line missing substation references",
            name.clone(),
        ));
        return None;
    }
    let protection_ieds = line
        .children_named("ProtectionIED")
        .iter()
        .map(|e| e.attr_or("name", "").to_string())
        .collect();
    Some(InterSubstationLine {
        pos: pos_of(&line),
        name,
        from_node: line.attr_or("fromNode", "").to_string(),
        to_node: line.attr_or("toNode", "").to_string(),
        from_substation,
        to_substation,
        params: parse_params(&line),
        protection_ieds,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const MINI_SSD: &str = r#"<?xml version="1.0"?>
<SCL xmlns="http://www.iec.ch/61850/2003/SCL">
  <Header id="mini" version="1" revision="A"/>
  <Substation name="S1">
    <PowerTransformer name="T1">
      <TransformerWinding name="W1" sgcr:ratedKV="110">
        <Terminal name="T1" connectivityNode="S1/VL1/B1/CN1"/>
      </TransformerWinding>
      <TransformerWinding name="W2" sgcr:ratedKV="20">
        <Terminal name="T1" connectivityNode="S1/VL2/B1/CN2"/>
      </TransformerWinding>
      <Private type="sgcr:ElectricalParams" sn_mva="25" vk_percent="12" vkr_percent="0.6"/>
    </PowerTransformer>
    <VoltageLevel name="VL1">
      <Voltage multiplier="k" unit="V">110</Voltage>
      <Bay name="B1">
        <ConnectivityNode name="CN1" pathName="S1/VL1/B1/CN1"/>
        <ConductingEquipment name="GRID" type="IFL">
          <Terminal name="T1" connectivityNode="S1/VL1/B1/CN1"/>
          <Private type="sgcr:ElectricalParams" vm_pu="1.0"/>
        </ConductingEquipment>
        <LNode iedName="GIED1" lnClass="XCBR" lnInst="1" ldInst="LD0"/>
      </Bay>
    </VoltageLevel>
    <VoltageLevel name="VL2">
      <Voltage multiplier="k" unit="V">20</Voltage>
      <Bay name="B1">
        <ConnectivityNode name="CN2" pathName="S1/VL2/B1/CN2"/>
        <ConductingEquipment name="CB1" type="CBR">
          <Terminal name="T1" connectivityNode="S1/VL2/B1/CN2"/>
          <Terminal name="T2" connectivityNode="S1/VL2/B1/CN3"/>
        </ConductingEquipment>
        <ConnectivityNode name="CN3" pathName="S1/VL2/B1/CN3"/>
        <ConductingEquipment name="LOAD1" type="LOD">
          <Terminal name="T1" connectivityNode="S1/VL2/B1/CN3"/>
          <Private type="sgcr:ElectricalParams" p_mw="10" q_mvar="3"/>
        </ConductingEquipment>
      </Bay>
    </VoltageLevel>
  </Substation>
</SCL>"#;

    #[test]
    fn parse_ssd_extracts_topology() {
        let doc = parse_scl(MINI_SSD).unwrap();
        assert_eq!(doc.header.id, "mini");
        let s = &doc.substations[0];
        assert_eq!(s.name, "S1");
        assert_eq!(s.voltage_levels.len(), 2);
        assert_eq!(s.voltage_levels[0].voltage_kv, 110.0);
        assert_eq!(s.transformers.len(), 1);
        assert_eq!(s.transformers[0].params.sn_mva, Some(25.0));
        assert_eq!(s.transformers[0].windings[0].rated_kv, 110.0);
        let bay = &s.voltage_levels[1].bays[0];
        assert_eq!(bay.equipment.len(), 2);
        assert_eq!(bay.equipment[0].eq_type, EquipmentType::CircuitBreaker);
        assert_eq!(bay.equipment[1].params.p_mw, Some(10.0));
        assert_eq!(doc.connectivity_node_paths().len(), 3);
        // LNode reference captured.
        let lnode = &s.voltage_levels[0].bays[0].lnodes[0];
        assert_eq!(lnode.ied_name, "GIED1");
        assert_eq!(lnode.ln_class, "XCBR");
    }

    const MINI_SCD: &str = r#"<?xml version="1.0"?>
<SCL xmlns="http://www.iec.ch/61850/2003/SCL">
  <Header id="mini-scd" version="1" revision="A"/>
  <Substation name="S1"><VoltageLevel name="VL1"><Voltage>110</Voltage></VoltageLevel></Substation>
  <Communication>
    <SubNetwork name="StationBus" type="8-MMS">
      <ConnectedAP iedName="GIED1" apName="AP1">
        <Address>
          <P type="IP">10.0.1.11</P>
          <P type="IP-SUBNET">255.255.255.0</P>
          <P type="MAC-Address">02-00-00-00-01-0B</P>
        </Address>
        <GSE ldInst="LD0" cbName="gcb01">
          <Address>
            <P type="MAC-Address">01-0C-CD-01-00-01</P>
            <P type="APPID">3001</P>
            <P type="VLAN-ID">005</P>
          </Address>
        </GSE>
      </ConnectedAP>
      <ConnectedAP iedName="SCADA" apName="AP1">
        <Address><P type="IP">10.0.1.100</P><P type="IP-SUBNET">255.255.255.0</P></Address>
      </ConnectedAP>
    </SubNetwork>
  </Communication>
  <IED name="GIED1" manufacturer="sgcr" type="virtual-ied">
    <AccessPoint name="AP1">
      <Server>
        <LDevice inst="LD0">
          <LN0 lnClass="LLN0" inst="" lnType="LLN0_T"/>
          <LN lnClass="XCBR" inst="1" lnType="XCBR_T"/>
          <LN lnClass="PTOC" inst="1" lnType="PTOC_T"/>
          <LN lnClass="MMXU" inst="1" lnType="MMXU_T"/>
        </LDevice>
      </Server>
    </AccessPoint>
  </IED>
  <DataTypeTemplates>
    <LNodeType id="XCBR_T" lnClass="XCBR"><DO name="Pos" type="DPC"/></LNodeType>
    <LNodeType id="PTOC_T" lnClass="PTOC"><DO name="Str" type="ACD"/><DO name="Op" type="ACT"/></LNodeType>
  </DataTypeTemplates>
</SCL>"#;

    #[test]
    fn parse_scd_extracts_network_and_ieds() {
        let doc = parse_scl(MINI_SCD).unwrap();
        let comm = doc.communication.as_ref().unwrap();
        assert_eq!(comm.subnetworks.len(), 1);
        let aps = &comm.subnetworks[0].connected_aps;
        assert_eq!(aps.len(), 2);
        assert_eq!(aps[0].ip, "10.0.1.11");
        assert_eq!(aps[0].mac.as_deref(), Some("02-00-00-00-01-0B"));
        assert_eq!(aps[0].gse[0].appid, 0x3001);
        assert_eq!(aps[0].gse[0].vlan_id, 5);
        let ied = doc.ied("GIED1").unwrap();
        assert!(ied.has_ln_class("PTOC"));
        assert!(ied.has_ln_class("LLN0"));
        assert!(!ied.has_ln_class("PTOV"));
        assert_eq!(doc.templates.lnode_types.len(), 2);
    }

    #[test]
    fn non_scl_rejected() {
        assert!(matches!(
            parse_scl("<Workspace/>"),
            Err(SclError::NotScl { .. })
        ));
        assert!(matches!(parse_scl("not xml <<<"), Err(SclError::Xml(_))));
    }

    const MINI_SED: &str = r#"<SCL xmlns="http://www.iec.ch/61850/2003/SCL">
  <Header id="sed-s1-s2" version="1"/>
  <Private type="sgcr:InterSubstationLine">
    <Line name="tie12" fromSubstation="S1" fromNode="S1/VL1/B1/CN1"
          toSubstation="S2" toNode="S2/VL1/B1/CN1">
      <Private type="sgcr:ElectricalParams" length_km="25" r_ohm_per_km="0.06" x_ohm_per_km="0.3" max_i_ka="0.8"/>
      <ProtectionIED name="S1PIED1"/>
      <ProtectionIED name="S2PIED1"/>
    </Line>
  </Private>
</SCL>"#;

    #[test]
    fn parse_sed_extracts_tie_lines() {
        let doc = parse_scl(MINI_SED).unwrap();
        assert_eq!(doc.inter_substation_lines.len(), 1);
        let tie = &doc.inter_substation_lines[0];
        assert_eq!(tie.from_substation, "S1");
        assert_eq!(tie.to_substation, "S2");
        assert_eq!(tie.params.length_km, Some(25.0));
        assert_eq!(tie.protection_ieds, vec!["S1PIED1", "S2PIED1"]);
    }

    #[test]
    fn parsed_elements_carry_positions() {
        let doc = parse_scl(MINI_SSD).unwrap();
        let s = &doc.substations[0];
        assert!(s.pos.is_known());
        assert_eq!(s.pos.line, 4); // <Substation> on line 4 of MINI_SSD
        let cb = &s.voltage_levels[1].bays[0].equipment[0];
        assert!(cb.pos.is_known());
        assert!(cb.pos.line > s.pos.line);
        let scd = parse_scl(MINI_SCD).unwrap();
        let comm = scd.communication.as_ref().unwrap();
        assert!(comm.subnetworks[0].pos.is_known());
        assert!(comm.subnetworks[0].connected_aps[0].pos.is_known());
        assert!(scd.ieds[0].pos.is_known());
    }

    #[test]
    fn lenient_parse_reports_errors_without_failing() {
        // Unnamed substation is an error for parse_scl, but lenient parsing
        // still yields the document plus the diagnostic.
        let text = r#"<SCL><Header id="x"/><Substation/></SCL>"#;
        assert!(matches!(parse_scl(text), Err(SclError::Invalid { .. })));
        let (doc, diags) = parse_scl_lenient(text).unwrap();
        assert_eq!(doc.substations.len(), 1);
        assert!(diags
            .iter()
            .any(|d| d.code == crate::codes::UNNAMED_ELEMENT));
    }
}
