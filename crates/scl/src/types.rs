//! Typed model of IEC 61850 SCL (System Configuration description Language)
//! documents — the subset the SG-ML toolchain consumes and produces.

/// The 1-based source position of the element an SCL value was parsed from.
///
/// Positions are advisory metadata for diagnostics: two values that differ
/// only in position compare **equal** (and hash identically), so documents
/// survive write→reparse round-trips and synthesized test fixtures compare
/// cleanly against parsed ones. `line == 0` (the [`Default`]) means the value
/// was built in memory rather than parsed.
#[derive(Debug, Clone, Copy, Default)]
pub struct SourcePos {
    /// 1-based line, or 0 when unknown.
    pub line: u32,
    /// 1-based column, or 0 when unknown.
    pub column: u32,
}

impl SourcePos {
    /// Creates a known position.
    pub fn new(line: u32, column: u32) -> SourcePos {
        SourcePos { line, column }
    }

    /// Whether this position refers to an actual source location.
    pub fn is_known(self) -> bool {
        self.line != 0
    }
}

impl PartialEq for SourcePos {
    fn eq(&self, _other: &SourcePos) -> bool {
        true // positions are metadata, not model content
    }
}

impl Eq for SourcePos {}

impl std::hash::Hash for SourcePos {
    fn hash<H: std::hash::Hasher>(&self, _state: &mut H) {
        // consistent with PartialEq: all positions hash alike
    }
}

/// The SCL `Header` element.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Header {
    /// Unique id of the description.
    pub id: String,
    /// Version string.
    pub version: String,
    /// Revision string.
    pub revision: String,
}

/// Conducting-equipment categories used by the cyber range, following the
/// SCL common equipment type codes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum EquipmentType {
    /// Circuit breaker.
    CircuitBreaker,
    /// Disconnector / isolator.
    Disconnector,
    /// Generator.
    Generator,
    /// Battery / storage.
    Battery,
    /// Incoming feeder line (external grid infeed).
    IncomingFeeder,
    /// Load.
    Load,
    /// Line segment (with electrical parameters in a `Private` element).
    Line,
    /// Current transformer (instrumentation; no power-flow effect).
    CurrentTransformer,
    /// Voltage transformer (instrumentation; no power-flow effect).
    VoltageTransformer,
    /// Anything else (kept verbatim).
    #[default]
    Other,
}

impl EquipmentType {
    /// Parses the SCL type code.
    pub fn parse(code: &str) -> EquipmentType {
        match code {
            "CBR" => EquipmentType::CircuitBreaker,
            "DIS" => EquipmentType::Disconnector,
            "GEN" => EquipmentType::Generator,
            "BAT" => EquipmentType::Battery,
            "IFL" => EquipmentType::IncomingFeeder,
            "LOD" => EquipmentType::Load,
            "LIN" => EquipmentType::Line,
            "CTR" => EquipmentType::CurrentTransformer,
            "VTR" => EquipmentType::VoltageTransformer,
            _ => EquipmentType::Other,
        }
    }

    /// The SCL type code.
    pub fn code(self) -> &'static str {
        match self {
            EquipmentType::CircuitBreaker => "CBR",
            EquipmentType::Disconnector => "DIS",
            EquipmentType::Generator => "GEN",
            EquipmentType::Battery => "BAT",
            EquipmentType::IncomingFeeder => "IFL",
            EquipmentType::Load => "LOD",
            EquipmentType::Line => "LIN",
            EquipmentType::CurrentTransformer => "CTR",
            EquipmentType::VoltageTransformer => "VTR",
            EquipmentType::Other => "OTH",
        }
    }
}

/// A terminal of conducting equipment, tied to a connectivity node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Terminal {
    /// Terminal name (`T1`, `T2`).
    pub name: String,
    /// The `pathName` of the connectivity node this terminal attaches to.
    pub connectivity_node: String,
}

/// Electrical parameters carried in `Private type="sgcr:…"` extensions.
///
/// Real SSD files do not carry impedances; SG-ML supplements them. This
/// toolchain keeps the supplements inline as SCL `Private` elements (the
/// standard extension mechanism), written by the model generators.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ElectricalParams {
    /// Active power in MW (loads, generators, infeeds).
    pub p_mw: Option<f64>,
    /// Reactive power in Mvar.
    pub q_mvar: Option<f64>,
    /// Voltage set-point in per-unit (generators, infeeds).
    pub vm_pu: Option<f64>,
    /// Line length in km.
    pub length_km: Option<f64>,
    /// Line resistance in ohm/km.
    pub r_ohm_per_km: Option<f64>,
    /// Line reactance in ohm/km.
    pub x_ohm_per_km: Option<f64>,
    /// Line charging capacitance in nF/km.
    pub c_nf_per_km: Option<f64>,
    /// Line thermal limit in kA.
    pub max_i_ka: Option<f64>,
    /// Transformer rating in MVA.
    pub sn_mva: Option<f64>,
    /// Transformer short-circuit voltage in percent.
    pub vk_percent: Option<f64>,
    /// Transformer resistive short-circuit voltage in percent.
    pub vkr_percent: Option<f64>,
}

/// A piece of primary equipment in a bay.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ConductingEquipment {
    /// Source position of the element.
    pub pos: SourcePos,
    /// Equipment name (unique within the substation by convention).
    pub name: String,
    /// Equipment category.
    pub eq_type: EquipmentType,
    /// Raw SCL type code (preserves unknown codes).
    pub type_code: String,
    /// Terminals (1 for loads/gens, 2 for breakers/lines).
    pub terminals: Vec<Terminal>,
    /// Electrical parameters from `Private` extensions.
    pub params: ElectricalParams,
    /// Normally-open flag for switching equipment.
    pub normally_open: bool,
}

/// A connectivity node (electrical junction → power-flow bus).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ConnectivityNode {
    /// Source position of the element.
    pub pos: SourcePos,
    /// Local name.
    pub name: String,
    /// Full path name (`Substation/VoltageLevel/Bay/Name`).
    pub path_name: String,
}

/// A reference from primary equipment to a logical node on an IED.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct LNodeRef {
    /// Source position of the element.
    pub pos: SourcePos,
    /// IED name.
    pub ied_name: String,
    /// LN class (e.g. `XCBR`, `PTOC`).
    pub ln_class: String,
    /// LN instance.
    pub ln_inst: String,
    /// LD instance on the IED.
    pub ld_inst: String,
}

/// A bay within a voltage level.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Bay {
    /// Bay name.
    pub name: String,
    /// Equipment in the bay.
    pub equipment: Vec<ConductingEquipment>,
    /// Connectivity nodes declared in the bay.
    pub connectivity_nodes: Vec<ConnectivityNode>,
    /// Function references to IED logical nodes.
    pub lnodes: Vec<LNodeRef>,
}

/// A transformer winding.
#[derive(Debug, Clone, PartialEq)]
pub struct TransformerWinding {
    /// Winding name (`W1` HV, `W2` LV).
    pub name: String,
    /// The terminal tying this winding to a connectivity node.
    pub terminal: Terminal,
    /// Rated winding voltage in kV.
    pub rated_kv: f64,
}

/// A power transformer (may span voltage levels).
#[derive(Debug, Clone, PartialEq)]
pub struct PowerTransformer {
    /// Source position of the element.
    pub pos: SourcePos,
    /// Transformer name.
    pub name: String,
    /// Windings (2 supported).
    pub windings: Vec<TransformerWinding>,
    /// Electrical parameters from `Private` extensions.
    pub params: ElectricalParams,
}

/// A voltage level within a substation.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct VoltageLevel {
    /// Voltage level name.
    pub name: String,
    /// Nominal voltage in kV.
    pub voltage_kv: f64,
    /// Bays.
    pub bays: Vec<Bay>,
}

/// A substation: the single-line diagram of the SSD.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Substation {
    /// Source position of the element.
    pub pos: SourcePos,
    /// Substation name.
    pub name: String,
    /// Voltage levels.
    pub voltage_levels: Vec<VoltageLevel>,
    /// Power transformers.
    pub transformers: Vec<PowerTransformer>,
}

/// A GSE (GOOSE) address block on a connected access point.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GseAddress {
    /// LD instance hosting the control block.
    pub ld_inst: String,
    /// Control block name.
    pub cb_name: String,
    /// Multicast MAC address string.
    pub mac: String,
    /// APPID (hex in SCL, parsed).
    pub appid: u16,
    /// VLAN id.
    pub vlan_id: u16,
}

/// One IED access point on a subnetwork, with its addressing.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ConnectedAp {
    /// Source position of the element.
    pub pos: SourcePos,
    /// IED name.
    pub ied_name: String,
    /// Access point name.
    pub ap_name: String,
    /// IP address.
    pub ip: String,
    /// Subnet mask.
    pub ip_subnet: String,
    /// Device MAC address (SCL `MAC-Address` P type).
    pub mac: Option<String>,
    /// GOOSE address blocks.
    pub gse: Vec<GseAddress>,
}

/// A communication subnetwork.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SubNetwork {
    /// Source position of the element.
    pub pos: SourcePos,
    /// Subnetwork name.
    pub name: String,
    /// Subnetwork type (e.g. `8-MMS`).
    pub net_type: String,
    /// Access points on this subnetwork.
    pub connected_aps: Vec<ConnectedAp>,
}

/// The `Communication` section.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Communication {
    /// Subnetworks.
    pub subnetworks: Vec<SubNetwork>,
}

/// A logical node instance on an IED.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Ln {
    /// Prefix (may be empty).
    pub prefix: String,
    /// LN class (`XCBR`, `PTOC`, `MMXU`, `CSWI`, `CILO`, `PDIF`, …).
    pub ln_class: String,
    /// Instance number as a string.
    pub inst: String,
    /// Reference into `DataTypeTemplates`.
    pub ln_type: String,
}

impl Ln {
    /// The concatenated LN name (`prefix + class + inst`), e.g. `XCBR1`.
    pub fn name(&self) -> String {
        format!("{}{}{}", self.prefix, self.ln_class, self.inst)
    }
}

/// A logical device on an IED access point.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct LDevice {
    /// LD instance name.
    pub inst: String,
    /// Logical nodes (includes LLN0 when declared).
    pub lns: Vec<Ln>,
}

/// An IED access point (server).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct AccessPoint {
    /// Access point name.
    pub name: String,
    /// Logical devices.
    pub ldevices: Vec<LDevice>,
}

/// An IED.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Ied {
    /// Source position of the element.
    pub pos: SourcePos,
    /// IED name.
    pub name: String,
    /// Manufacturer string.
    pub manufacturer: String,
    /// IED type string.
    pub ied_type: String,
    /// Access points.
    pub access_points: Vec<AccessPoint>,
}

impl Ied {
    /// All LN classes declared anywhere on this IED (deduplicated, sorted).
    pub fn ln_classes(&self) -> Vec<String> {
        let mut classes: Vec<String> = self
            .access_points
            .iter()
            .flat_map(|ap| ap.ldevices.iter())
            .flat_map(|ld| ld.lns.iter())
            .map(|ln| ln.ln_class.clone())
            .collect();
        classes.sort();
        classes.dedup();
        classes
    }

    /// Whether any LN of the given class is declared.
    pub fn has_ln_class(&self, class: &str) -> bool {
        self.access_points
            .iter()
            .flat_map(|ap| ap.ldevices.iter())
            .flat_map(|ld| ld.lns.iter())
            .any(|ln| ln.ln_class == class)
    }
}

/// A logical-node type template (feature discovery from ICDs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LNodeType {
    /// Template id.
    pub id: String,
    /// LN class.
    pub ln_class: String,
    /// Data object names.
    pub dos: Vec<String>,
}

/// The `DataTypeTemplates` section (LNodeTypes only).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct DataTypeTemplates {
    /// LN type templates.
    pub lnode_types: Vec<LNodeType>,
}

/// An inter-substation tie declared by an SED file.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct InterSubstationLine {
    /// Source position of the element.
    pub pos: SourcePos,
    /// Tie line name.
    pub name: String,
    /// From substation name.
    pub from_substation: String,
    /// Connectivity-node path in the from substation.
    pub from_node: String,
    /// To substation name.
    pub to_substation: String,
    /// Connectivity-node path in the to substation.
    pub to_node: String,
    /// Line electrical parameters.
    pub params: ElectricalParams,
    /// IEDs involved in inter-substation protection over this tie.
    pub protection_ieds: Vec<String>,
}

/// A parsed SCL document of any kind.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SclDocument {
    /// The header.
    pub header: Header,
    /// Substations (SSD/SCD; SED references them by name).
    pub substations: Vec<Substation>,
    /// Communication section (SCD).
    pub communication: Option<Communication>,
    /// IEDs (SCD/ICD).
    pub ieds: Vec<Ied>,
    /// Data type templates (ICD/SCD).
    pub templates: DataTypeTemplates,
    /// Inter-substation ties (SED).
    pub inter_substation_lines: Vec<InterSubstationLine>,
}

impl SclDocument {
    /// Finds a substation by name.
    pub fn substation(&self, name: &str) -> Option<&Substation> {
        self.substations.iter().find(|s| s.name == name)
    }

    /// Finds an IED by name.
    pub fn ied(&self, name: &str) -> Option<&Ied> {
        self.ieds.iter().find(|i| i.name == name)
    }

    /// All connectivity-node path names across all substations.
    pub fn connectivity_node_paths(&self) -> Vec<String> {
        let mut out = Vec::new();
        for s in &self.substations {
            for vl in &s.voltage_levels {
                for bay in &vl.bays {
                    for cn in &bay.connectivity_nodes {
                        out.push(cn.path_name.clone());
                    }
                }
            }
        }
        out
    }
}
