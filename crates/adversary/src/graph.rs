//! Attack-graph derivation: walking a [`CompiledModel`] into a typed graph
//! of attacker-relevant nodes and edges.
//!
//! The graph is the substrate the planner searches (and the `attack-graph`
//! CLI exports): hosts and switches from the network plan, protocol
//! endpoints the devices serve, IED↔breaker protection/control
//! dependencies, PLC MMS polling/command bindings, GOOSE subscriptions,
//! and SCADA polling with the HMI points each source feeds. Every edge is
//! labeled with the `sgcr-attack` primitive that traverses it, so a path
//! through the graph *is* a campaign sketch.
//!
//! Derivation is a pure function of the model: node and edge order follow
//! the model's own declaration order, so two derivations of the same model
//! are byte-identical in every export format.

use sgcr_core::CompiledModel;
use sgcr_ied::ProtectionSpec;
use sgcr_net::Ipv4Addr;
use sgcr_obs::json::{number, quote};
use sgcr_scada::{AlarmKind, PointAddress};
use std::collections::BTreeSet;
use std::fmt::Write as _;

/// What a host *is*, as far as an attacker cares.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HostRole {
    /// An IEC 61850 IED (MMS server, GOOSE publisher).
    Ied,
    /// A PLC (MMS client towards IEDs, Modbus server towards SCADA).
    Plc,
    /// The SCADA/HMI workstation (polls everything).
    Scada,
    /// Anything else on the network plan.
    Other,
}

impl HostRole {
    /// Lower-camel name used in exports.
    pub fn name(self) -> &'static str {
        match self {
            HostRole::Ied => "ied",
            HostRole::Plc => "plc",
            HostRole::Scada => "scada",
            HostRole::Other => "host",
        }
    }
}

/// An application protocol an endpoint speaks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Protocol {
    /// IEC 61850 MMS over TCP 102.
    Mms,
    /// Modbus TCP over 502.
    Modbus,
    /// IEC 61850 GOOSE (layer-2 multicast, no TCP port).
    Goose,
}

impl Protocol {
    /// Lower-case name used in exports and node ids.
    pub fn name(self) -> &'static str {
        match self {
            Protocol::Mms => "mms",
            Protocol::Modbus => "modbus",
            Protocol::Goose => "goose",
        }
    }

    /// The TCP port, when the protocol has one.
    pub fn port(self) -> Option<u16> {
        match self {
            Protocol::Mms => Some(102),
            Protocol::Modbus => Some(502),
            Protocol::Goose => None,
        }
    }
}

/// Direction of a SCADA alarm rule, as attacker-relevant reachability.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AlarmDir {
    /// Raised when the displayed value exceeds the limit.
    High(f64),
    /// Raised when the displayed value drops below the limit.
    Low(f64),
    /// Raised when a boolean point becomes true.
    BecomesTrue,
    /// Raised when a boolean point becomes false.
    BecomesFalse,
}

impl AlarmDir {
    /// Export rendering (`high:40`, `true`, …).
    pub fn render(self) -> String {
        match self {
            AlarmDir::High(limit) => format!("high:{}", number(limit)),
            AlarmDir::Low(limit) => format!("low:{}", number(limit)),
            AlarmDir::BecomesTrue => "true".to_string(),
            AlarmDir::BecomesFalse => "false".to_string(),
        }
    }
}

/// How a SCADA point is addressed on its source, as the attacker sees it.
#[derive(Debug, Clone, PartialEq)]
pub enum PointAddr {
    /// A Modbus table entry (`holding:0`, `coil:2`, …).
    Modbus {
        /// Table kind name (`coil`/`discrete`/`holding`/`input`).
        kind: &'static str,
        /// Register/bit index.
        address: u16,
    },
    /// An MMS item id on the source device.
    Mms {
        /// Full item reference.
        item: String,
    },
}

impl PointAddr {
    /// Export rendering (`holding:0`, `mms:TIED1LD0/…`).
    pub fn render(&self) -> String {
        match self {
            PointAddr::Modbus { kind, address } => format!("{kind}:{address}"),
            PointAddr::Mms { item } => format!("mms:{item}"),
        }
    }
}

/// One node of the attack graph.
#[derive(Debug, Clone, PartialEq)]
pub enum Node {
    /// A network segment switch.
    Switch {
        /// Switch (subnetwork) name.
        name: String,
        /// Whether this is the WAN backbone switch.
        wan: bool,
    },
    /// A host on the network plan.
    Host {
        /// Host name.
        name: String,
        /// Planned IPv4 address.
        ip: Ipv4Addr,
        /// Switch the host attaches to.
        switch: String,
        /// What the host is.
        role: HostRole,
    },
    /// A protocol endpoint a host serves.
    Endpoint {
        /// Serving host name.
        host: String,
        /// Protocol spoken.
        protocol: Protocol,
    },
    /// A physical breaker reachable through some IED.
    Breaker {
        /// Scoped power-model switch name (`EPIC/CB_GEN`).
        name: String,
    },
    /// An HMI data point (tag).
    ScadaPoint {
        /// Tag name, unique across the HMI.
        name: String,
        /// Host name of the data source feeding the tag.
        source: String,
        /// How the tag is addressed on the source.
        address: PointAddr,
        /// The alarm rule watching the tag, when one exists.
        alarm: Option<AlarmDir>,
    },
}

impl Node {
    /// The node's stable string id (`host:GIED1`, `breaker:EPIC/CB_GEN`).
    pub fn id(&self) -> String {
        match self {
            Node::Switch { name, .. } => format!("switch:{name}"),
            Node::Host { name, .. } => format!("host:{name}"),
            Node::Endpoint { host, protocol } => {
                format!("endpoint:{host}:{}", protocol.name())
            }
            Node::Breaker { name } => format!("breaker:{name}"),
            Node::ScadaPoint { name, .. } => format!("point:{name}"),
        }
    }

    /// The node kind name used in exports.
    pub fn kind(&self) -> &'static str {
        match self {
            Node::Switch { .. } => "switch",
            Node::Host { .. } => "host",
            Node::Endpoint { .. } => "endpoint",
            Node::Breaker { .. } => "breaker",
            Node::ScadaPoint { .. } => "scadaPoint",
        }
    }
}

/// The attacker-relevant relation an edge encodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EdgeKind {
    /// Host is attached to a switch (segment membership).
    Attached,
    /// Host serves a protocol endpoint.
    Serves,
    /// A PLC periodically reads an MMS item from an IED.
    MmsRead,
    /// A PLC writes an MMS control item on an IED.
    MmsWrite,
    /// An IED's GOOSE publication is consumed by the target host.
    GooseSubscription,
    /// An IED's protection function trips a breaker.
    ProtectionTrips,
    /// An IED exposes operate control over a breaker (CSWI → XCBR).
    BreakerControl,
    /// The SCADA host polls a data source.
    ScadaPoll,
    /// A data source feeds an HMI point.
    Feeds,
}

impl EdgeKind {
    /// Lower-camel name used in exports.
    pub fn name(self) -> &'static str {
        match self {
            EdgeKind::Attached => "attached",
            EdgeKind::Serves => "serves",
            EdgeKind::MmsRead => "mmsRead",
            EdgeKind::MmsWrite => "mmsWrite",
            EdgeKind::GooseSubscription => "gooseSubscription",
            EdgeKind::ProtectionTrips => "protectionTrips",
            EdgeKind::BreakerControl => "breakerControl",
            EdgeKind::ScadaPoll => "scadaPoll",
            EdgeKind::Feeds => "feeds",
        }
    }
}

/// The `sgcr-attack` primitive that traverses (or exploits) an edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Primitive {
    /// ARP sweep + TCP port scan discovers the far node.
    Scan,
    /// ARP-spoofing man-in-the-middle intercepts the relation's traffic.
    ArpMitm,
    /// False command injection rides the relation to actuate.
    Fci,
    /// The relation fires autonomously once its input condition holds.
    Trip,
    /// Passive observation (eavesdropping) of the relation's traffic.
    Observe,
}

impl Primitive {
    /// Lower-camel name used in exports.
    pub fn name(self) -> &'static str {
        match self {
            Primitive::Scan => "scan",
            Primitive::ArpMitm => "arpMitm",
            Primitive::Fci => "fci",
            Primitive::Trip => "trip",
            Primitive::Observe => "observe",
        }
    }
}

/// One directed edge of the attack graph.
#[derive(Debug, Clone, PartialEq)]
pub struct Edge {
    /// Source node id.
    pub from: String,
    /// Target node id.
    pub to: String,
    /// The relation this edge encodes.
    pub kind: EdgeKind,
    /// The attack primitive that traverses it.
    pub primitive: Primitive,
    /// The concrete item/reference the relation rides on (MMS item,
    /// gocbRef, source name), when one exists.
    pub via: Option<String>,
}

/// The derived attack graph of one compiled model.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct AttackGraph {
    /// Nodes in deterministic model-declaration order.
    pub nodes: Vec<Node>,
    /// Edges in deterministic derivation order (deduplicated).
    pub edges: Vec<Edge>,
}

impl AttackGraph {
    /// Derives the attack graph from a compiled model. Pure: identical
    /// models produce identical graphs, byte-for-byte in every export.
    pub fn derive(model: &CompiledModel) -> AttackGraph {
        let mut graph = AttackGraph::default();
        let mut edge_keys: BTreeSet<String> = BTreeSet::new();
        let mut push_edge = |edges: &mut Vec<Edge>, edge: Edge| {
            let key = format!(
                "{}\u{1}{}\u{1}{}\u{1}{}",
                edge.from,
                edge.to,
                edge.kind.name(),
                edge.via.as_deref().unwrap_or("")
            );
            if edge_keys.insert(key) {
                edges.push(edge);
            }
        };

        let role_of = |name: &str| {
            if model.ieds.iter().any(|i| i.name == name) {
                HostRole::Ied
            } else if model.plcs.iter().any(|p| p.name == name) {
                HostRole::Plc
            } else if model.scada.as_ref().is_some_and(|s| s.host == name) {
                HostRole::Scada
            } else {
                HostRole::Other
            }
        };
        let host_by_ip = |ip: Ipv4Addr| {
            model
                .plan
                .hosts
                .iter()
                .find(|h| h.ip == ip)
                .map(|h| h.name.clone())
        };

        // --- Topology: switches, hosts, segment membership ----------------
        for sw in &model.plan.switches {
            graph.nodes.push(Node::Switch {
                name: sw.name.clone(),
                wan: sw.is_wan,
            });
        }
        for host in &model.plan.hosts {
            graph.nodes.push(Node::Host {
                name: host.name.clone(),
                ip: host.ip,
                switch: host.switch.clone(),
                role: role_of(&host.name),
            });
            push_edge(
                &mut graph.edges,
                Edge {
                    from: format!("host:{}", host.name),
                    to: format!("switch:{}", host.switch),
                    kind: EdgeKind::Attached,
                    primitive: Primitive::Scan,
                    via: None,
                },
            );
        }

        // --- Protocol endpoints -------------------------------------------
        for host in &model.plan.hosts {
            let endpoints: Vec<(Protocol, Primitive)> = match role_of(&host.name) {
                HostRole::Ied => {
                    let mut eps = vec![(Protocol::Mms, Primitive::Scan)];
                    if model
                        .ieds
                        .iter()
                        .any(|i| i.name == host.name && i.goose.is_some())
                    {
                        eps.push((Protocol::Goose, Primitive::Observe));
                    }
                    eps
                }
                HostRole::Plc => vec![(Protocol::Modbus, Primitive::Scan)],
                HostRole::Scada | HostRole::Other => Vec::new(),
            };
            for (protocol, primitive) in endpoints {
                let node = Node::Endpoint {
                    host: host.name.clone(),
                    protocol,
                };
                let id = node.id();
                graph.nodes.push(node);
                push_edge(
                    &mut graph.edges,
                    Edge {
                        from: format!("host:{}", host.name),
                        to: id,
                        kind: EdgeKind::Serves,
                        primitive,
                        via: None,
                    },
                );
            }
        }

        // --- Breakers: protection dependencies and control paths ----------
        let mut breakers_seen: BTreeSet<String> = BTreeSet::new();
        for ied in &model.ieds {
            for breaker in &ied.breakers {
                let scoped = format!("{}/{}", ied.substation, breaker.name);
                if breakers_seen.insert(scoped.clone()) {
                    graph.nodes.push(Node::Breaker {
                        name: scoped.clone(),
                    });
                }
                push_edge(
                    &mut graph.edges,
                    Edge {
                        from: format!("host:{}", ied.name),
                        to: format!("breaker:{scoped}"),
                        kind: EdgeKind::BreakerControl,
                        primitive: Primitive::Fci,
                        via: Some(format!("{}/{}$CO$Pos$Oper$ctlVal", ied.ld, breaker.cswi)),
                    },
                );
            }
            for protection in &ied.protections {
                let tripped = match protection {
                    ProtectionSpec::Ptoc { breaker, .. }
                    | ProtectionSpec::Ptov { breaker, .. }
                    | ProtectionSpec::Ptuv { breaker, .. }
                    | ProtectionSpec::Pdif { breaker, .. } => Some(breaker),
                    // CILO gates close commands; it never trips.
                    ProtectionSpec::Cilo { .. } => None,
                };
                if let Some(breaker) = tripped {
                    let scoped = format!("{}/{breaker}", ied.substation);
                    if breakers_seen.insert(scoped.clone()) {
                        graph.nodes.push(Node::Breaker {
                            name: scoped.clone(),
                        });
                    }
                    push_edge(
                        &mut graph.edges,
                        Edge {
                            from: format!("host:{}", ied.name),
                            to: format!("breaker:{scoped}"),
                            kind: EdgeKind::ProtectionTrips,
                            primitive: Primitive::Trip,
                            via: Some(protection.ln().to_string()),
                        },
                    );
                }
            }
        }

        // --- PLC bindings: polls, commands, GOOSE subscriptions -----------
        let goose_publisher = |gocb_ref: &str| {
            model
                .ieds
                .iter()
                .find(|i| i.goose.as_ref().is_some_and(|g| g.gocb_ref == gocb_ref))
                .map(|i| i.name.clone())
        };
        for plc in &model.plcs {
            for read in plc.reads.iter() {
                if let Some(server) = host_by_ip(read.server) {
                    push_edge(
                        &mut graph.edges,
                        Edge {
                            from: format!("host:{}", plc.name),
                            to: format!("host:{server}"),
                            kind: EdgeKind::MmsRead,
                            primitive: Primitive::ArpMitm,
                            via: Some(read.item.clone()),
                        },
                    );
                }
            }
            for write in plc.writes.iter() {
                if let Some(server) = host_by_ip(write.server) {
                    push_edge(
                        &mut graph.edges,
                        Edge {
                            from: format!("host:{}", plc.name),
                            to: format!("host:{server}"),
                            kind: EdgeKind::MmsWrite,
                            primitive: Primitive::Fci,
                            via: Some(write.item.clone()),
                        },
                    );
                }
            }
            for goose in plc.gooses.iter() {
                if let Some(publisher) = goose_publisher(&goose.gocb_ref) {
                    push_edge(
                        &mut graph.edges,
                        Edge {
                            from: format!("host:{publisher}"),
                            to: format!("host:{}", plc.name),
                            kind: EdgeKind::GooseSubscription,
                            primitive: Primitive::Observe,
                            via: Some(goose.gocb_ref.clone()),
                        },
                    );
                }
            }
        }
        // CILO interlocks subscribe to remote breaker state over GOOSE.
        for ied in &model.ieds {
            for protection in &ied.protections {
                if let ProtectionSpec::Cilo { monitored, .. } = protection {
                    for remote in monitored {
                        if let Some(publisher) = goose_publisher(&remote.gocb_ref) {
                            push_edge(
                                &mut graph.edges,
                                Edge {
                                    from: format!("host:{publisher}"),
                                    to: format!("host:{}", ied.name),
                                    kind: EdgeKind::GooseSubscription,
                                    primitive: Primitive::Observe,
                                    via: Some(remote.gocb_ref.clone()),
                                },
                            );
                        }
                    }
                }
            }
        }

        // --- SCADA: polling relations and the points they feed ------------
        if let Some(scada) = &model.scada {
            for source in &scada.config.sources {
                let Some(server) = host_by_ip(source.ip) else {
                    continue;
                };
                push_edge(
                    &mut graph.edges,
                    Edge {
                        from: format!("host:{}", scada.host),
                        to: format!("host:{server}"),
                        kind: EdgeKind::ScadaPoll,
                        primitive: Primitive::ArpMitm,
                        via: Some(source.name.clone()),
                    },
                );
                for point in &source.points {
                    let address = match &point.address {
                        PointAddress::Modbus { kind, address } => PointAddr::Modbus {
                            kind: kind.name(),
                            address: *address,
                        },
                        PointAddress::Mms { item } => PointAddr::Mms { item: item.clone() },
                    };
                    let alarm = scada
                        .config
                        .alarms
                        .iter()
                        .find(|a| a.point == point.name)
                        .map(|a| match a.kind {
                            AlarmKind::High(limit) => AlarmDir::High(limit),
                            AlarmKind::Low(limit) => AlarmDir::Low(limit),
                            AlarmKind::StateTrue => AlarmDir::BecomesTrue,
                            AlarmKind::StateFalse => AlarmDir::BecomesFalse,
                        });
                    let node = Node::ScadaPoint {
                        name: point.name.clone(),
                        source: server.clone(),
                        address: address.clone(),
                        alarm,
                    };
                    let id = node.id();
                    graph.nodes.push(node);
                    push_edge(
                        &mut graph.edges,
                        Edge {
                            from: format!("host:{server}"),
                            to: id,
                            kind: EdgeKind::Feeds,
                            primitive: Primitive::Observe,
                            via: Some(address.render()),
                        },
                    );
                }
            }
        }

        graph
    }

    /// Finds a node by its stable id.
    pub fn node(&self, id: &str) -> Option<&Node> {
        self.nodes.iter().find(|n| n.id() == *id)
    }

    /// The host node for a host name, if planned.
    pub fn host(&self, name: &str) -> Option<&Node> {
        self.node(&format!("host:{name}"))
    }

    /// Edges of a given kind, in derivation order.
    pub fn edges_of(&self, kind: EdgeKind) -> impl Iterator<Item = &Edge> {
        self.edges.iter().filter(move |e| e.kind == kind)
    }

    /// True when an edge `from → to` of `kind` exists.
    pub fn has_edge(&self, from: &str, to: &str, kind: EdgeKind) -> bool {
        self.edges
            .iter()
            .any(|e| e.kind == kind && e.from == from && e.to == to)
    }

    /// Serializes the graph as deterministic JSON (stable key and element
    /// order), the machine-readable form of `attack-graph --format json`.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"nodes\":[");
        for (i, node) in self.nodes.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"id\":{},\"kind\":{}",
                quote(&node.id()),
                quote(node.kind())
            );
            match node {
                Node::Switch { name, wan } => {
                    let _ = write!(out, ",\"name\":{},\"wan\":{wan}", quote(name));
                }
                Node::Host {
                    name,
                    ip,
                    switch,
                    role,
                } => {
                    let _ = write!(
                        out,
                        ",\"name\":{},\"ip\":{},\"switch\":{},\"role\":{}",
                        quote(name),
                        quote(&ip.to_string()),
                        quote(switch),
                        quote(role.name())
                    );
                }
                Node::Endpoint { host, protocol } => {
                    let _ = write!(
                        out,
                        ",\"host\":{},\"protocol\":{}",
                        quote(host),
                        quote(protocol.name())
                    );
                    if let Some(port) = protocol.port() {
                        let _ = write!(out, ",\"port\":{port}");
                    }
                }
                Node::Breaker { name } => {
                    let _ = write!(out, ",\"name\":{}", quote(name));
                }
                Node::ScadaPoint {
                    name,
                    source,
                    address,
                    alarm,
                } => {
                    let _ = write!(
                        out,
                        ",\"name\":{},\"source\":{},\"address\":{}",
                        quote(name),
                        quote(source),
                        quote(&address.render())
                    );
                    if let Some(alarm) = alarm {
                        let _ = write!(out, ",\"alarm\":{}", quote(&alarm.render()));
                    }
                }
            }
            out.push('}');
        }
        out.push_str("],\"edges\":[");
        for (i, edge) in self.edges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"from\":{},\"to\":{},\"kind\":{},\"primitive\":{}",
                quote(&edge.from),
                quote(&edge.to),
                quote(edge.kind.name()),
                quote(edge.primitive.name())
            );
            if let Some(via) = &edge.via {
                let _ = write!(out, ",\"via\":{}", quote(via));
            }
            out.push('}');
        }
        out.push_str("]}");
        out
    }

    /// Renders the graph in Graphviz dot format (the sibling of
    /// [`NetworkPlan::to_dot`](sgcr_core::NetworkPlan) for the adversary
    /// plane): node shapes by kind, edges labeled `kind·primitive`.
    pub fn to_dot(&self) -> String {
        let mut out = String::from("digraph attack_graph {\n  rankdir=LR;\n");
        for node in &self.nodes {
            let (shape, label) = match node {
                Node::Switch { name, wan } => (
                    "diamond",
                    if *wan {
                        format!("{name}\\n(wan)")
                    } else {
                        name.clone()
                    },
                ),
                Node::Host { name, ip, role, .. } => {
                    ("box", format!("{name}\\n{ip} ({})", role.name()))
                }
                Node::Endpoint { host, protocol } => (
                    "ellipse",
                    match protocol.port() {
                        Some(port) => format!("{host}:{port}\\n{}", protocol.name()),
                        None => format!("{host}\\n{}", protocol.name()),
                    },
                ),
                Node::Breaker { name } => ("octagon", name.clone()),
                Node::ScadaPoint { name, alarm, .. } => (
                    "note",
                    match alarm {
                        Some(alarm) => format!("{name}\\nalarm {}", alarm.render()),
                        None => name.clone(),
                    },
                ),
            };
            let _ = writeln!(
                out,
                "  \"{}\" [shape={shape}, label=\"{label}\"];",
                node.id()
            );
        }
        for edge in &self.edges {
            let _ = writeln!(
                out,
                "  \"{}\" -> \"{}\" [label=\"{}\\n{}\"];",
                edge.from,
                edge.to,
                edge.kind.name(),
                edge.primitive.name()
            );
        }
        out.push_str("}\n");
        out
    }
}
