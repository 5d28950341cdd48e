//! The bundle rules: whether the parsed, named files of a bundle compile,
//! and if not, why — as coded diagnostics anchored to `file:line:column`.
//!
//! [`check_bundle`] is the one implementation of these rules.
//! [`CompiledModel::compile`](crate::CompiledModel::compile) runs it before
//! it builds anything and refuses a bundle on any error; `sgcr-lint`
//! reports every finding. So a bundle lints without a bundle-rule error
//! exactly when it compiles.
//!
//! | Codes | Question |
//! |-------|----------|
//! | `SG0009` | does every SCL file carry the section its role needs? |
//! | `SG01xx` | do cross-file references resolve, and does every configured host have a `<ConnectedAP>`? |
//! | `SG02xx` | is the network addressing consistent? |
//! | `SG0104`–`SG0105`, `SG0110`, `SG0304`–`SG0306`, `SG0504` | does the single-line diagram compile into a power model? |
//! | `SG0003` | is every IED Config item an object reference? |
//! | `SG0501` | does every ICD describe an IED the bundle uses? |
//!
//! The power rules read the SSD substations and the SED ties, which is what
//! the power model is built from.

use crate::compile::ied::compile_ied;
use crate::parsed::{ParsedBundle, SclFile};
use sgcr_net::{Ipv4Addr, MacAddr};
use sgcr_scl::{
    codes, ConnectedAp, Diagnostic, EquipmentType, SclDocument, SourcePos, Span, Substation,
};
use std::collections::{BTreeMap, BTreeSet};

/// Checks a parsed bundle against every bundle rule and returns each
/// finding. The parse diagnostics of [`ParsedBundle::diagnostics`] are not
/// repeated.
pub fn check_bundle(bundle: &ParsedBundle) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    // (file, subnetwork name, access point) across every SCD.
    let aps: Vec<(&str, &str, &ConnectedAp)> = bundle
        .scds
        .iter()
        .flat_map(|file| file.doc.communication.iter().map(move |c| (file, c)))
        .flat_map(|(file, comm)| {
            comm.subnetworks.iter().flat_map(move |subnet| {
                subnet
                    .connected_aps
                    .iter()
                    .map(move |ap| (file.name.as_str(), subnet.name.as_str(), ap))
            })
        })
        .collect();
    sections(bundle, &mut out);
    references(bundle, &aps, &mut out);
    addresses(bundle, &aps, &mut out);
    power(bundle, &mut out);
    ied_models(bundle, &mut out);
    orphan_icds(bundle, &mut out);
    out
}

/// SG0009: an SCL file without the section its role needs.
fn sections(bundle: &ParsedBundle, out: &mut Vec<Diagnostic>) {
    type Section = (&'static str, fn(&SclDocument) -> bool);
    let needs: [(&str, &[SclFile], &[Section]); 4] = [
        (
            "SSD",
            &bundle.ssds,
            &[("Substation", |d| !d.substations.is_empty())],
        ),
        (
            "SCD",
            &bundle.scds,
            &[
                ("Communication", |d| d.communication.is_some()),
                ("IED", |d| !d.ieds.is_empty()),
            ],
        ),
        ("ICD", &bundle.icds, &[("IED", |d| !d.ieds.is_empty())]),
        (
            "SED",
            &bundle.seds,
            &[("Private type=\"sgcr:InterSubstationLine\"", |d| {
                !d.inter_substation_lines.is_empty()
            })],
        ),
    ];
    for (role, files, sections) in needs {
        for file in files {
            for (section, present) in sections {
                if !present(&file.doc) {
                    out.push(
                        Diagnostic::error(
                            codes::MISSING_SECTION,
                            format!("{role} file is missing its required <{section}> section"),
                            format!("{role} {}", file.name),
                        )
                        .with_span(Span::new(&file.name, 1, 1)),
                    );
                }
            }
        }
    }
}

/// SG0101–SG0109: names one file uses must be declared by another, and
/// every host a supplementary config instantiates needs a `<ConnectedAP>`.
fn references(
    bundle: &ParsedBundle,
    aps: &[(&str, &str, &ConnectedAp)],
    out: &mut Vec<Diagnostic>,
) {
    let mut ieds: BTreeSet<&str> = bundle
        .scds
        .iter()
        .chain(&bundle.icds)
        .flat_map(|file| file.doc.ieds.iter().map(|ied| ied.name.as_str()))
        .collect();
    if let Some(file) = &bundle.ied_config {
        ieds.extend(file.config.ieds.iter().map(|spec| spec.name.as_str()));
    }
    let plcs: BTreeSet<&str> = bundle
        .plc_config
        .iter()
        .flat_map(|file| file.config.plcs.iter().map(|plc| plc.name.as_str()))
        .collect();
    let ap_owners: BTreeSet<&str> = aps.iter().map(|(_, _, ap)| ap.ied_name.as_str()).collect();

    // SG0101: SCADA and PLC hosts legitimately have an access point without
    // an <IED> server section, hence only a warning.
    for (file, subnet, ap) in aps {
        let name = ap.ied_name.as_str();
        if !ieds.contains(name) && name != bundle.scada_host && !plcs.contains(name) {
            out.push(
                Diagnostic::warning(
                    codes::CONNECTED_AP_UNDECLARED_IED,
                    format!("ConnectedAP references IED {name:?} but no <IED> declares it"),
                    format!("SubNetwork {subnet}"),
                )
                .with_pos(file, Some(ap.pos)),
            );
        }
    }
    // SG0102: a declared IED that no access point puts on the network. A
    // structure-only SCD says nothing about access points.
    for file in bundle.scds.iter().filter(|f| f.doc.communication.is_some()) {
        for ied in &file.doc.ieds {
            if !ap_owners.contains(ied.name.as_str()) {
                out.push(
                    Diagnostic::warning(
                        codes::IED_NO_CONNECTED_AP,
                        format!("IED {:?} has no ConnectedAP on any subnetwork", ied.name),
                        format!("IED {}", ied.name),
                    )
                    .with_pos(&file.name, Some(ied.pos)),
                );
            }
        }
    }
    // SG0103: <LNode> references in single-line diagrams.
    for (file, substation) in bundle.substation_sources() {
        for vl in &substation.voltage_levels {
            for bay in &vl.bays {
                for lnode in &bay.lnodes {
                    if !lnode.ied_name.is_empty() && !ieds.contains(lnode.ied_name.as_str()) {
                        out.push(
                            Diagnostic::warning(
                                codes::LNODE_UNKNOWN_IED,
                                format!(
                                    "LNode references IED {:?} which no SCD, ICD, or IED Config declares",
                                    lnode.ied_name
                                ),
                                format!("{}/{}/{}", substation.name, vl.name, bay.name),
                            )
                            .with_pos(&file.name, Some(lnode.pos)),
                        );
                    }
                }
            }
        }
    }
    // SG0106: SED protection IEDs.
    for file in &bundle.seds {
        for tie in &file.doc.inter_substation_lines {
            for ied in &tie.protection_ieds {
                if !ieds.contains(ied.as_str()) {
                    out.push(
                        Diagnostic::warning(
                            codes::SED_UNKNOWN_PROTECTION_IED,
                            format!("tie names protection IED {ied:?} which the bundle does not declare"),
                            format!("InterSubstationLine {}", tie.name),
                        )
                        .with_pos(&file.name, Some(tie.pos)),
                    );
                }
            }
        }
    }

    // SG0107/SG0108: every host the IED and PLC Configs instantiate, and
    // every MMS server a PLC binds, must be on the network.
    let no_ap = "which has no ConnectedAP in any SCD";
    if let Some(file) = &bundle.ied_config {
        for (i, spec) in file.config.ieds.iter().enumerate() {
            if !ap_owners.contains(spec.name.as_str()) {
                out.push(
                    Diagnostic::error(
                        codes::CONFIG_UNKNOWN_HOST,
                        format!("IED Config configures IED {:?}, {no_ap}", spec.name),
                        format!("{}: IED {}", file.name, spec.name),
                    )
                    .with_span(file.span(i)),
                );
            }
        }
    }
    if let Some(file) = &bundle.plc_config {
        for (i, plc) in file.config.plcs.iter().enumerate() {
            let context = format!("{}: PLC {}", file.name, plc.name);
            if !ap_owners.contains(plc.name.as_str()) {
                out.push(
                    Diagnostic::error(
                        codes::CONFIG_UNKNOWN_HOST,
                        format!("PLC Config configures PLC {:?}, {no_ap}", plc.name),
                        context.clone(),
                    )
                    .with_span(file.span(i)),
                );
            }
            let servers = (plc.reads.iter().map(|r| ("read", &r.server)))
                .chain(plc.writes.iter().map(|w| ("write", &w.server)));
            for (kind, server) in servers {
                if !ap_owners.contains(server.as_str()) {
                    out.push(
                        Diagnostic::error(
                            codes::PLC_BINDING_UNRESOLVED,
                            format!("PLC {kind} binding targets MMS server {server:?}, {no_ap}"),
                            context.clone(),
                        )
                        .with_span(file.span(i)),
                    );
                }
            }
        }
    }

    // SG0109 + SG0107 (warning): the SCADA workstation and its MMS sources.
    if let Some(file) = &bundle.scada_config {
        let context = format!("{}: ScadaConfig {}", file.name, file.config.name);
        if !ap_owners.contains(bundle.scada_host.as_str()) {
            out.push(
                Diagnostic::error(
                    codes::SCADA_UNKNOWN_HOST,
                    format!(
                        "SCADA workstation host {:?} has no ConnectedAP in any SCD",
                        bundle.scada_host
                    ),
                    context,
                )
                .with_span(Span::new(&file.name, 1, 1)),
            );
        }
        // An MMS source must point at an IP some access point owns; Modbus
        // sources target PLC soft-hosts which have no AP, so they are exempt.
        let ap_ips: BTreeSet<u32> = aps
            .iter()
            .filter_map(|(_, _, ap)| parse_ipv4(&ap.ip))
            .collect();
        if bundle.scds.iter().any(|f| f.doc.communication.is_some()) {
            for source in &file.config.sources {
                if source.protocol == sgcr_scada::SourceProtocol::Mms
                    && !ap_ips.contains(&u32::from(source.ip))
                {
                    out.push(
                        Diagnostic::warning(
                            codes::CONFIG_UNKNOWN_HOST,
                            format!(
                                "SCADA data source {:?} polls MMS server {} which no ConnectedAP owns",
                                source.name, source.ip
                            ),
                            format!("{}: DataSource {}", file.name, source.name),
                        )
                        .with_span(Span::new(&file.name, 1, 1)),
                    );
                }
            }
        }
    }
}

/// SG02xx: IP/MAC validity and uniqueness, one access point per host,
/// subnet coherence, GOOSE APPID collisions.
fn addresses(bundle: &ParsedBundle, aps: &[(&str, &str, &ConnectedAp)], out: &mut Vec<Diagnostic>) {
    // SG0203 (invalid) + SG0201 (duplicate) IP addresses.
    let mut ip_owner: BTreeMap<&str, &str> = BTreeMap::new();
    for (file, subnet, ap) in aps {
        if parse_ipv4(&ap.ip).is_none() {
            out.push(
                Diagnostic::error(
                    codes::INVALID_IP,
                    format!(
                        "invalid IP address {:?} on access point {}",
                        ap.ip, ap.ap_name
                    ),
                    format!("ConnectedAP {}", ap.ied_name),
                )
                .with_pos(file, Some(ap.pos)),
            );
            continue;
        }
        match ip_owner.get(ap.ip.as_str()) {
            None => {
                ip_owner.insert(&ap.ip, &ap.ied_name);
            }
            Some(owner) if *owner != ap.ied_name => out.push(
                Diagnostic::error(
                    codes::DUPLICATE_IP,
                    format!("IP address {} is already assigned to {}", ap.ip, owner),
                    format!("SubNetwork {subnet}, ConnectedAP {}", ap.ied_name),
                )
                .with_pos(file, Some(ap.pos)),
            ),
            Some(_) => {} // a second access point of one host is SG0206
        }
    }

    // SG0204 (invalid) + SG0202 (duplicate) MAC addresses.
    let mut mac_owner: BTreeMap<&str, &str> = BTreeMap::new();
    for (file, _, ap) in aps {
        let Some(mac) = &ap.mac else { continue };
        if parse_mac(mac).is_none() {
            out.push(
                Diagnostic::warning(
                    codes::INVALID_MAC,
                    format!("invalid MAC address {mac:?}"),
                    format!("ConnectedAP {}", ap.ied_name),
                )
                .with_pos(file, Some(ap.pos)),
            );
            continue;
        }
        match mac_owner.get(mac.as_str()) {
            None => {
                mac_owner.insert(mac, &ap.ied_name);
            }
            Some(owner) if *owner != ap.ied_name => out.push(
                Diagnostic::warning(
                    codes::DUPLICATE_MAC,
                    format!("MAC address {mac} is already assigned to {owner}"),
                    format!("ConnectedAP {}", ap.ied_name),
                )
                .with_pos(file, Some(ap.pos)),
            ),
            Some(_) => {}
        }
    }

    // SG0206: one name declared as an IED server twice across the SCDs, or
    // one host with two access points.
    let mut ied_file: BTreeMap<&str, &str> = BTreeMap::new();
    for file in &bundle.scds {
        for ied in &file.doc.ieds {
            if let Some(original) = ied_file.get(ied.name.as_str()) {
                out.push(
                    Diagnostic::error(
                        codes::DUPLICATE_HOST,
                        format!("IED {:?} is already declared in {original}", ied.name),
                        format!("IED {}", ied.name),
                    )
                    .with_pos(&file.name, Some(ied.pos)),
                );
            } else {
                ied_file.insert(&ied.name, &file.name);
            }
        }
    }
    let mut host_subnet: BTreeMap<&str, &str> = BTreeMap::new();
    for (file, subnet, ap) in aps {
        if let Some(first) = host_subnet.get(ap.ied_name.as_str()) {
            out.push(
                Diagnostic::error(
                    codes::DUPLICATE_HOST,
                    format!(
                        "host {:?} already has a ConnectedAP on SubNetwork {first}",
                        ap.ied_name
                    ),
                    format!("SubNetwork {subnet}, ConnectedAP {}", ap.ied_name),
                )
                .with_pos(file, Some(ap.pos)),
            );
        } else {
            host_subnet.insert(&ap.ied_name, subnet);
        }
    }

    // SG0205: access points whose IP falls outside their subnetwork's
    // dominant subnet (masked with each AP's own `IP-SUBNET`, default /24).
    let mut by_subnet: BTreeMap<&str, Vec<(&str, &ConnectedAp, u32)>> = BTreeMap::new();
    for (file, subnet, ap) in aps {
        if let Some(ip) = parse_ipv4(&ap.ip) {
            let mask = parse_ipv4(&ap.ip_subnet).unwrap_or(0xFFFF_FF00);
            by_subnet
                .entry(subnet)
                .or_default()
                .push((file, ap, ip & mask));
        }
    }
    for (subnet, members) in by_subnet {
        let mut counts: BTreeMap<u32, usize> = BTreeMap::new();
        for (_, _, network) in &members {
            *counts.entry(*network).or_default() += 1;
        }
        let Some((&dominant, &count)) = counts.iter().max_by_key(|(_, c)| **c) else {
            continue;
        };
        if count == 1 {
            continue; // no dominant subnet: every AP is its own island, noise
        }
        for (file, ap, network) in members {
            if network != dominant {
                out.push(
                    Diagnostic::warning(
                        codes::SUBNET_MISMATCH,
                        format!(
                            "IP {} is outside the dominant subnet {} of SubNetwork {subnet}",
                            ap.ip,
                            Ipv4Addr::from(dominant),
                        ),
                        format!("ConnectedAP {}", ap.ied_name),
                    )
                    .with_pos(file, Some(ap.pos)),
                );
            }
        }
    }

    // SG0207: two GOOSE control blocks sharing one APPID on one subnetwork.
    let mut appid_owner: BTreeMap<(&str, u16), String> = BTreeMap::new();
    for (file, subnet, ap) in aps {
        for gse in &ap.gse {
            match appid_owner.get(&(*subnet, gse.appid)) {
                None => {
                    let owner = format!("{}/{}", ap.ied_name, gse.cb_name);
                    appid_owner.insert((subnet, gse.appid), owner);
                }
                Some(owner) => out.push(
                    Diagnostic::warning(
                        codes::DUPLICATE_APPID,
                        format!(
                            "GOOSE APPID 0x{:04X} is already used by {owner} on SubNetwork {subnet}",
                            gse.appid
                        ),
                        format!("ConnectedAP {}, GSE {}", ap.ied_name, gse.cb_name),
                    )
                    .with_pos(file, Some(ap.pos)),
                ),
            }
        }
    }
}

/// The power rules over the SSD substations and SED ties: SG0504 (a
/// substation declared twice), SG0304 (a node path declared twice), SG0110
/// (a terminal on no declared node), SG0306 (wrong terminal count), SG0305
/// (no power-flow mapping), SG0104/SG0105 (a tie end on no substation or
/// node).
fn power(bundle: &ParsedBundle, out: &mut Vec<Diagnostic>) {
    let mut substations: Vec<(&SclFile, &Substation)> = Vec::new();
    for file in &bundle.ssds {
        for substation in &file.doc.substations {
            match substations.iter().find(|(_, s)| s.name == substation.name) {
                None => substations.push((file, substation)),
                Some((original, _)) => out.push(
                    Diagnostic::error(
                        codes::DUPLICATE_SUBSTATION,
                        format!(
                            "substation {:?} is already declared in {}",
                            substation.name, original.name
                        ),
                        format!("Substation {}", substation.name),
                    )
                    .with_pos(&file.name, Some(substation.pos)),
                ),
            }
        }
    }

    let mut nodes: BTreeSet<&str> = BTreeSet::new();
    for (file, substation) in &substations {
        for vl in &substation.voltage_levels {
            for bay in &vl.bays {
                for cn in &bay.connectivity_nodes {
                    if !nodes.insert(&cn.path_name) {
                        out.push(
                            Diagnostic::warning(
                                codes::DUPLICATE_NODE_PATH,
                                format!(
                                    "connectivity node path {:?} is declared twice",
                                    cn.path_name
                                ),
                                format!("{}/{}/{}", substation.name, vl.name, bay.name),
                            )
                            .with_pos(&file.name, Some(cn.pos)),
                        );
                    }
                }
            }
        }
    }

    let unknown_node =
        |what: &str, name: &str, node: &str, context: &str, at: (&str, SourcePos)| {
            (!nodes.contains(node)).then(|| {
                Diagnostic::error(
                    codes::TERMINAL_UNKNOWN_NODE,
                    format!(
                        "{what} {name} references connectivity node {node:?} which is not declared"
                    ),
                    context.to_string(),
                )
                .with_pos(at.0, Some(at.1))
            })
        };
    for (file, substation) in &substations {
        for vl in &substation.voltage_levels {
            for bay in &vl.bays {
                for eq in &bay.equipment {
                    let context =
                        format!("{}/{}/{}/{}", substation.name, vl.name, bay.name, eq.name);
                    for terminal in &eq.terminals {
                        let node = &terminal.connectivity_node;
                        let at = (file.name.as_str(), eq.pos);
                        out.extend(unknown_node("terminal", &terminal.name, node, &context, at));
                    }
                    out.extend(equipment_mapping(eq, &context, &file.name));
                }
            }
        }
        for transformer in &substation.transformers {
            let context = format!("{}/{}", substation.name, transformer.name);
            for winding in &transformer.windings {
                let node = &winding.terminal.connectivity_node;
                let at = (file.name.as_str(), transformer.pos);
                out.extend(unknown_node("winding", &winding.name, node, &context, at));
            }
        }
    }

    for file in &bundle.seds {
        for tie in &file.doc.inter_substation_lines {
            let ends = [
                ("from", &tie.from_substation, &tie.from_node),
                ("to", &tie.to_substation, &tie.to_node),
            ];
            for (side, substation, node) in ends {
                let (code, message) = if !substations.iter().any(|(_, s)| &s.name == substation) {
                    (
                        codes::SED_UNKNOWN_SUBSTATION,
                        format!(
                            "tie {side} endpoint references substation {substation:?} which no SSD declares"
                        ),
                    )
                } else if !nodes.contains(node.as_str()) {
                    (
                        codes::SED_UNKNOWN_NODE,
                        format!(
                            "tie {side} endpoint references connectivity node {node:?} which {substation} does not contain"
                        ),
                    )
                } else {
                    continue;
                };
                out.push(
                    Diagnostic::error(code, message, format!("InterSubstationLine {}", tie.name))
                        .with_pos(&file.name, Some(tie.pos)),
                );
            }
        }
    }
}

/// SG0306 (terminal count) and SG0305 (no power-flow mapping) for one piece
/// of conducting equipment.
fn equipment_mapping(
    eq: &sgcr_scl::ConductingEquipment,
    context: &str,
    file: &str,
) -> Option<Diagnostic> {
    let expected = match eq.eq_type {
        EquipmentType::CircuitBreaker | EquipmentType::Disconnector | EquipmentType::Line => 2,
        EquipmentType::IncomingFeeder
        | EquipmentType::Load
        | EquipmentType::Generator
        | EquipmentType::Battery => 1,
        EquipmentType::CurrentTransformer | EquipmentType::VoltageTransformer => return None,
        EquipmentType::Other => {
            return Some(
                Diagnostic::warning(
                    codes::NO_POWER_MAPPING,
                    format!(
                        "equipment type {:?} has no power-flow mapping",
                        eq.type_code
                    ),
                    context.to_string(),
                )
                .with_pos(file, Some(eq.pos)),
            )
        }
    };
    let terminals = eq.terminals.len();
    (terminals != expected).then(|| {
        Diagnostic::warning(
            codes::WRONG_TERMINAL_COUNT,
            format!(
                "{} equipment has {terminals} terminals, expected {expected}",
                eq.eq_type.code()
            ),
            context.to_string(),
        )
        .with_pos(file, Some(eq.pos))
    })
}

/// SG0003: every item of a configured IED must be an object reference
/// (`LD/LN$FC$…`), judged on the spec the build step instantiates — after
/// the IED's ICD has disabled the functions it does not declare.
fn ied_models(bundle: &ParsedBundle, out: &mut Vec<Diagnostic>) {
    let Some(file) = &bundle.ied_config else {
        return;
    };
    for (i, spec) in file.config.ieds.iter().enumerate() {
        if sgcr_ied::check_model(spec).is_ok() {
            continue; // ICD gating only removes items
        }
        let gated = bundle
            .icd_of(&spec.name)
            .map(|icd| compile_ied(spec, icd).spec);
        if let Err(detail) = sgcr_ied::check_model(gated.as_ref().unwrap_or(spec)) {
            out.push(
                Diagnostic::error(
                    codes::UNPARSABLE_VALUE,
                    detail,
                    format!("{}: IED {}", file.name, spec.name),
                )
                .with_span(file.span(i)),
            );
        }
    }
}

/// SG0501: an ICD whose IED nothing in the bundle instantiates.
fn orphan_icds(bundle: &ParsedBundle, out: &mut Vec<Diagnostic>) {
    let mut referenced: BTreeSet<&str> = BTreeSet::new();
    for file in &bundle.scds {
        referenced.extend(file.doc.ieds.iter().map(|ied| ied.name.as_str()));
        for subnet in file.doc.communication.iter().flat_map(|c| &c.subnetworks) {
            referenced.extend(subnet.connected_aps.iter().map(|ap| ap.ied_name.as_str()));
        }
    }
    for file in bundle.ssds.iter().chain(&bundle.scds) {
        for substation in &file.doc.substations {
            for vl in &substation.voltage_levels {
                for bay in &vl.bays {
                    referenced.extend(bay.lnodes.iter().map(|l| l.ied_name.as_str()));
                }
            }
        }
    }
    if let Some(file) = &bundle.ied_config {
        referenced.extend(file.config.ieds.iter().map(|spec| spec.name.as_str()));
    }

    for file in &bundle.icds {
        let Some(first) = file.doc.ieds.first() else {
            continue;
        };
        if file
            .doc
            .ieds
            .iter()
            .all(|ied| !referenced.contains(ied.name.as_str()))
        {
            let names: Vec<&str> = file.doc.ieds.iter().map(|i| i.name.as_str()).collect();
            out.push(
                Diagnostic::warning(
                    codes::ORPHAN_ICD,
                    format!(
                        "ICD describes IED {} which no SCD, diagram, or IED Config references",
                        names.join(", ")
                    ),
                    format!("ICD {}", file.name),
                )
                .with_pos(&file.name, Some(first.pos)),
            );
        }
    }
}

/// Parses a dotted-quad IPv4 address the way the network compiler does.
fn parse_ipv4(s: &str) -> Option<u32> {
    s.parse::<Ipv4Addr>().ok().map(u32::from)
}

/// Parses a MAC address the way the network compiler does.
fn parse_mac(s: &str) -> Option<[u8; 6]> {
    s.parse::<MacAddr>().ok().map(MacAddr::octets)
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::files::FileRole;

    fn check(files: &[(&str, FileRole, &str)]) -> Vec<Diagnostic> {
        let mut bundle = ParsedBundle::default();
        for (name, role, text) in files {
            bundle.add(name.to_string(), *role, text);
        }
        let mut all = bundle.diagnostics.clone();
        all.extend(check_bundle(&bundle));
        all
    }

    fn codes_of(diags: &[Diagnostic]) -> Vec<&'static str> {
        diags.iter().map(|d| d.code).collect()
    }

    fn ssd(substation: &str) -> String {
        format!(
            r#"<SCL><Header id="s"/><Substation name="{substation}"><VoltageLevel name="VL1">
            <Voltage>110</Voltage><Bay name="B1">
            <ConnectivityNode name="CN1" pathName="{substation}/VL1/B1/CN1"/>
            </Bay></VoltageLevel></Substation></SCL>"#
        )
    }

    fn sed(from: &str, to: &str) -> String {
        format!(
            r#"<SCL><Header id="t"/><Private type="sgcr:InterSubstationLine">
            <Line name="tie" fromSubstation="{from}" fromNode="{from}/VL1/B1/CN1"
                  toSubstation="{to}" toNode="{to}/VL1/B1/CN1"/></Private></SCL>"#
        )
    }

    fn scd(ied: &str, ip: &str) -> String {
        format!(
            r#"<SCL><Header id="c"/><Communication><SubNetwork name="StationBus">
            <ConnectedAP iedName="{ied}" apName="AP1"><Address><P type="IP">{ip}</P>
            <P type="IP-SUBNET">255.255.0.0</P></Address></ConnectedAP></SubNetwork></Communication>
            <IED name="{ied}"><AccessPoint name="AP1"/></IED></SCL>"#
        )
    }

    #[test]
    fn consolidated_files_must_not_collide() {
        let (s1, s9) = (ssd("S1"), sed("S1", "S9"));
        let out = check(&[
            ("a.ssd.xml", FileRole::Ssd, &s1),
            ("t.sed.xml", FileRole::Sed, &s9),
        ]);
        assert_eq!(codes_of(&out), [codes::SED_UNKNOWN_SUBSTATION], "{out:?}");
        let out = check(&[
            ("a.ssd.xml", FileRole::Ssd, &s1),
            ("b.ssd.xml", FileRole::Ssd, &s1),
        ]);
        assert_eq!(codes_of(&out), [codes::DUPLICATE_SUBSTATION], "{out:?}");
        let (a, b) = (scd("IED1", "10.0.1.1"), scd("IED1", "10.0.2.1"));
        let out = check(&[
            ("a.scd.xml", FileRole::Scd, &a),
            ("b.scd.xml", FileRole::Scd, &b),
        ]);
        assert!(codes_of(&out).contains(&codes::DUPLICATE_HOST), "{out:?}");
        let (a, b) = (scd("A", "10.0.1.1"), scd("B", "10.0.1.1"));
        let out = check(&[
            ("a.scd.xml", FileRole::Scd, &a),
            ("b.scd.xml", FileRole::Scd, &b),
        ]);
        assert_eq!(codes_of(&out), [codes::DUPLICATE_IP], "{out:?}");
        assert_eq!(out[0].span.as_ref().unwrap().file, "b.scd.xml");
    }

    #[test]
    fn every_scl_role_needs_its_section() {
        let bare = r#"<SCL><Header id="x"/></SCL>"#;
        for (name, role, sections) in [
            ("a.ssd.xml", FileRole::Ssd, 1),
            ("a.scd.xml", FileRole::Scd, 2),
            ("a.icd.xml", FileRole::Icd, 1),
            ("a.sed.xml", FileRole::Sed, 1),
        ] {
            let out = check(&[(name, role, bare)]);
            let missing: Vec<_> = out
                .iter()
                .filter(|d| d.code == codes::MISSING_SECTION)
                .collect();
            assert_eq!(missing.len(), sections, "{name}: {out:?}");
            assert!(missing.iter().all(|d| d.span.is_some()));
        }
        // An SSD is not an SCD: it has no Communication section.
        let s1 = ssd("S1");
        let out = check(&[("a.scd.xml", FileRole::Scd, &s1)]);
        assert!(out.iter().any(|d| d.message.contains("<Communication>")));
        // An SCD describes an IED, which is what an ICD needs.
        let c = scd("IED1", "10.0.1.1");
        let out = check(&[("a.icd.xml", FileRole::Icd, &c)]);
        assert!(!codes_of(&out).contains(&codes::MISSING_SECTION), "{out:?}");
    }

    #[test]
    fn invalid_ip_is_an_error() {
        let c = scd("IED1", "not-an-ip");
        let out = check(&[("a.scd.xml", FileRole::Scd, &c)]);
        assert_eq!(codes_of(&out), [codes::INVALID_IP], "{out:?}");
        assert!(out[0].message.contains("invalid IP"));
    }

    #[test]
    fn ipv4_parser() {
        assert_eq!(parse_ipv4("10.0.1.5"), Some(0x0A000105));
        assert_eq!(parse_ipv4("255.255.255.0"), Some(0xFFFFFF00));
        assert_eq!(parse_ipv4("10.0.1"), None);
        assert_eq!(parse_ipv4("10.0.1.256"), None);
        assert_eq!(parse_ipv4("10.0.1.5.6"), None);
        assert_eq!(parse_ipv4("a.b.c.d"), None);
    }

    #[test]
    fn mac_parser() {
        assert_eq!(
            parse_mac("01-0C-CD-01-00-01"),
            Some([0x01, 0x0C, 0xCD, 0x01, 0x00, 0x01])
        );
        assert_eq!(
            parse_mac("01:0c:cd:01:00:01"),
            Some([0x01, 0x0C, 0xCD, 0x01, 0x00, 0x01])
        );
        assert_eq!(parse_mac("01-0C-CD-01-00"), None);
        assert_eq!(parse_mac("01-0C-CD-01-00-GG"), None);
    }
}
