//! Generation of the cyber network emulation model from an (optionally
//! consolidated) SCD — the paper's *"cyber network model can be derived from
//! IEC 61850 SCD file. An SCD file contains network addresses (including IP
//! address and MAC address) of nodes, and connectivity between nodes"*
//! stage. For multi-substation models, the WAN is *"abstracted as a single
//! switch connected to all substations"*.

use sgcr_net::{Ipv4Addr, MacAddr};
use sgcr_scl::SclDocument;

/// A switch to instantiate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlannedSwitch {
    /// Switch name (subnetwork name from the SCD, or `wan`).
    pub name: String,
    /// Whether this is the single WAN backbone switch.
    pub is_wan: bool,
}

/// A host to instantiate (IED, PLC, SCADA workstation, …).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlannedHost {
    /// Host name (the SCD `iedName`).
    pub name: String,
    /// IPv4 address from the SCD's `Address` section.
    pub ip: Ipv4Addr,
    /// MAC address, when the SCD provides one.
    pub mac: Option<MacAddr>,
    /// The switch (subnetwork) the host attaches to.
    pub switch: String,
}

/// The declarative network plan the emulator instantiates.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct NetworkPlan {
    /// Switches (one per subnetwork + one WAN when multi-substation).
    pub switches: Vec<PlannedSwitch>,
    /// Hosts in SCD order.
    pub hosts: Vec<PlannedHost>,
}

impl NetworkPlan {
    /// Finds a planned host by name.
    pub fn host(&self, name: &str) -> Option<&PlannedHost> {
        self.hosts.iter().find(|h| h.name == name)
    }

    /// The IP of a planned host by name.
    pub fn host_ip(&self, name: &str) -> Option<Ipv4Addr> {
        self.host(name).map(|h| h.ip)
    }

    /// Finds a planned host by IPv4 address — the reverse lookup attack
    /// tooling needs when mapping captured/configured addresses (PLC
    /// bindings, SCADA sources) back to named hosts.
    pub fn host_by_ip(&self, ip: Ipv4Addr) -> Option<&PlannedHost> {
        self.hosts.iter().find(|h| h.ip == ip)
    }

    /// Renders the topology in Graphviz dot format — the artifact behind
    /// the paper's Figure 4 ("Generated Cyber Network Topology").
    pub fn to_dot(&self) -> String {
        let mut out = String::from("graph cyber_topology {\n  layout=neato;\n");
        for sw in &self.switches {
            out.push_str(&format!(
                "  \"{}\" [shape=box, style=filled, fillcolor={}];\n",
                sw.name,
                if sw.is_wan { "orange" } else { "lightblue" }
            ));
        }
        for host in &self.hosts {
            out.push_str(&format!(
                "  \"{}\" [shape=ellipse, label=\"{}\\n{}\"];\n",
                host.name, host.name, host.ip
            ));
        }
        for sw in &self.switches {
            if sw.is_wan {
                for other in &self.switches {
                    if !other.is_wan {
                        out.push_str(&format!("  \"{}\" -- \"{}\";\n", sw.name, other.name));
                    }
                }
            }
        }
        for host in &self.hosts {
            out.push_str(&format!("  \"{}\" -- \"{}\";\n", host.switch, host.name));
        }
        out.push_str("}\n");
        out
    }
}

/// Compiles the SCD's communication section into a [`NetworkPlan`].
///
/// The bundle rules have already refused an unparsable IP and a host with
/// two access points; such an access point is left out here. An unparsable
/// MAC leaves the host with an emulator-assigned one.
pub fn compile_network(doc: &SclDocument) -> NetworkPlan {
    let mut plan = NetworkPlan::default();
    let subnetworks = doc.communication.iter().flat_map(|c| &c.subnetworks);
    for subnetwork in subnetworks {
        plan.switches.push(PlannedSwitch {
            name: subnetwork.name.clone(),
            is_wan: false,
        });
        for ap in &subnetwork.connected_aps {
            let Ok(ip) = ap.ip.parse::<Ipv4Addr>() else {
                continue;
            };
            if plan.host(&ap.ied_name).is_some() {
                continue;
            }
            plan.hosts.push(PlannedHost {
                name: ap.ied_name.clone(),
                ip,
                mac: ap.mac.as_deref().and_then(|m| m.parse::<MacAddr>().ok()),
                switch: subnetwork.name.clone(),
            });
        }
    }

    // The paper's WAN abstraction: one switch joining all station buses.
    if plan.switches.len() > 1 {
        plan.switches.push(PlannedSwitch {
            name: "wan".to_string(),
            is_wan: true,
        });
    }
    plan
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgcr_scl::parse_scl;

    const SCD: &str = r#"<SCL xmlns="http://www.iec.ch/61850/2003/SCL">
  <Header id="net-test"/>
  <Substation name="S1"><VoltageLevel name="VL1"><Voltage>20</Voltage></VoltageLevel></Substation>
  <Communication>
    <SubNetwork name="S1Bus" type="8-MMS">
      <ConnectedAP iedName="IED1" apName="AP1">
        <Address><P type="IP">10.0.1.11</P><P type="IP-SUBNET">255.255.0.0</P>
        <P type="MAC-Address">02-00-00-00-01-0B</P></Address>
      </ConnectedAP>
      <ConnectedAP iedName="SCADA" apName="AP1">
        <Address><P type="IP">10.0.1.100</P><P type="IP-SUBNET">255.255.0.0</P></Address>
      </ConnectedAP>
    </SubNetwork>
    <SubNetwork name="S2Bus" type="8-MMS">
      <ConnectedAP iedName="IED2" apName="AP1">
        <Address><P type="IP">10.0.2.11</P><P type="IP-SUBNET">255.255.0.0</P></Address>
      </ConnectedAP>
    </SubNetwork>
  </Communication>
  <IED name="IED1"><AccessPoint name="AP1"><Server><LDevice inst="LD0"/></Server></AccessPoint></IED>
</SCL>"#;

    #[test]
    fn plan_from_scd() {
        let doc = parse_scl(SCD).unwrap();
        let plan = compile_network(&doc);
        assert_eq!(plan.switches.len(), 3); // two buses + WAN
        assert!(plan.switches.iter().any(|s| s.is_wan));
        assert_eq!(plan.hosts.len(), 3);
        assert_eq!(plan.host_ip("IED1"), Some("10.0.1.11".parse().unwrap()));
        assert_eq!(
            plan.host("IED1").unwrap().mac,
            Some("02:00:00:00:01:0b".parse().unwrap())
        );
        assert_eq!(plan.host("SCADA").unwrap().switch, "S1Bus");
    }

    #[test]
    fn single_subnetwork_no_wan() {
        let doc = parse_scl(SCD).unwrap();
        let mut single = doc.clone();
        single
            .communication
            .as_mut()
            .unwrap()
            .subnetworks
            .truncate(1);
        let plan = compile_network(&single);
        assert_eq!(plan.switches.len(), 1);
        assert!(!plan.switches[0].is_wan);
    }

    #[test]
    fn dot_rendering_mentions_everything() {
        let doc = parse_scl(SCD).unwrap();
        let plan = compile_network(&doc);
        let dot = plan.to_dot();
        for name in ["S1Bus", "S2Bus", "wan", "IED1", "IED2", "SCADA"] {
            assert!(dot.contains(name), "{name} missing from dot output");
        }
        assert!(dot.contains("\"wan\" -- \"S1Bus\""));
    }
}
