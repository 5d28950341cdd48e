//! Registry of stable diagnostic codes.
//!
//! Every [`crate::Diagnostic`] carries one of the `SGxxxx` codes declared
//! here. Codes are grouped by family:
//!
//! | Family | Area |
//! |--------|------|
//! | `SG00xx` | intra-file SCL structure (parse-time) |
//! | `SG01xx` | cross-file references |
//! | `SG02xx` | network addressing |
//! | `SG03xx` | power topology |
//! | `SG04xx` | protection sanity |
//! | `SG05xx` | bundle hygiene |
//! | `SG5xxx` | exercise scenarios |
//! | `SG6xxx` | ST control-logic semantics and cross-plane bindings |
//!
//! The human-facing catalogue (meaning, trigger, fix) lives in
//! `docs/diagnostics.md`; this module is the machine-readable source of truth
//! the renderer and tests use.

/// One entry of the diagnostic-code registry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CodeInfo {
    /// The stable code, e.g. `"SG0101"`.
    pub code: &'static str,
    /// One-line summary of what the code flags.
    pub summary: &'static str,
}

macro_rules! codes {
    ($($(#[$doc:meta])* $name:ident = ($code:literal, $summary:literal);)+) => {
        $(
            $(#[$doc])*
            pub const $name: &str = $code;
        )+

        /// Every registered diagnostic code with its one-line summary.
        pub const REGISTRY: &[CodeInfo] = &[
            $(CodeInfo { code: $code, summary: $summary },)+
        ];
    };
}

codes! {
    // --- SG00xx: intra-file SCL structure --------------------------------
    /// SCL document lacks the mandatory `<Header>` element.
    MISSING_HEADER = ("SG0001", "SCL document has no <Header> element");
    /// A named element (Substation, IED, …) carries no `name` attribute.
    UNNAMED_ELEMENT = ("SG0002", "element is missing its required name attribute");
    /// An attribute or text value failed to parse (number, hex, …).
    UNPARSABLE_VALUE = ("SG0003", "attribute or text value could not be parsed");
    /// `<Voltage>` uses an unknown unit multiplier.
    UNKNOWN_MULTIPLIER = ("SG0004", "Voltage element uses an unknown unit multiplier");
    /// Conducting equipment declares no `<Terminal>` children.
    EQUIPMENT_NO_TERMINAL = ("SG0005", "conducting equipment has no Terminal");
    /// A transformer winding declares no `<Terminal>`.
    WINDING_NO_TERMINAL = ("SG0006", "transformer winding has no Terminal");
    /// A power transformer has a winding count other than 2.
    WINDING_COUNT = ("SG0007", "power transformer has an unsupported winding count");
    /// An inter-substation tie lacks its substation/node references.
    TIE_MISSING_REFS = ("SG0008", "inter-substation line is missing its endpoint references");
    /// An SCL file lacks the section its role (SSD/SCD/ICD/SED) needs.
    MISSING_SECTION = ("SG0009", "document lacks a section its role requires");
    /// A file is not well-formed XML / not parsable at all.
    PARSE_FAILED = ("SG0010", "file could not be parsed");

    // --- SG01xx: cross-file references -----------------------------------
    /// A `<ConnectedAP>` names an IED with no `<IED>` declaration.
    CONNECTED_AP_UNDECLARED_IED =
        ("SG0101", "ConnectedAP references an IED that is not declared in any SCD");
    /// An `<IED>` declaration has no `<ConnectedAP>` (no network presence).
    IED_NO_CONNECTED_AP = ("SG0102", "IED is declared but has no ConnectedAP");
    /// An `<LNode>` in the single-line diagram names an unknown IED.
    LNODE_UNKNOWN_IED = ("SG0103", "LNode references an IED unknown to the bundle");
    /// A SED tie references a substation no SSD declares.
    SED_UNKNOWN_SUBSTATION = ("SG0104", "SED tie references an undeclared substation");
    /// A SED tie references a connectivity node absent from its substation.
    SED_UNKNOWN_NODE = ("SG0105", "SED tie references an unknown connectivity node");
    /// A SED protection IED is unknown to the bundle.
    SED_UNKNOWN_PROTECTION_IED = ("SG0106", "SED tie names an unknown protection IED");
    /// A supplementary config (IED/PLC/SCADA) names an unknown host.
    CONFIG_UNKNOWN_HOST = ("SG0107", "supplementary config references an unknown host");
    /// A PLC read/write binding targets an unknown MMS server or item.
    PLC_BINDING_UNRESOLVED = ("SG0108", "PLC binding targets an unknown server");
    /// The SCADA host named in the bundle is absent from the SCDs.
    SCADA_UNKNOWN_HOST = ("SG0109", "SCADA host is absent from the SCDs");
    /// A `<Terminal>` references a connectivity node that does not exist.
    TERMINAL_UNKNOWN_NODE = ("SG0110", "Terminal references an unknown connectivity node");

    // --- SG02xx: network addressing ---------------------------------------
    /// Two access points share one IP address.
    DUPLICATE_IP = ("SG0201", "two access points share one IP address");
    /// Two access points share one MAC address.
    DUPLICATE_MAC = ("SG0202", "two access points share one MAC address");
    /// An IP address failed to parse.
    INVALID_IP = ("SG0203", "IP address could not be parsed");
    /// A MAC address failed to parse.
    INVALID_MAC = ("SG0204", "MAC address could not be parsed");
    /// A host's IP is outside its subnetwork's dominant subnet.
    SUBNET_MISMATCH = ("SG0205", "host IP is outside its subnetwork's subnet");
    /// Two hosts/IEDs share one name.
    DUPLICATE_HOST = ("SG0206", "two hosts or IEDs share one name");
    /// Two GOOSE control blocks share one APPID on one subnetwork.
    DUPLICATE_APPID = ("SG0207", "two GOOSE control blocks share one APPID");

    // --- SG03xx: power topology -------------------------------------------
    /// A bus has no connected element at all.
    ISOLATED_BUS = ("SG0301", "bus has no connected element");
    /// An electrical island contains no ext-grid/slack source.
    ISLAND_NO_SLACK = ("SG0302", "electrical island has no slack source");
    /// Normally-open switch states leave a load unsupplied.
    SWITCH_ISOLATES_LOAD = ("SG0303", "switch states isolate a load from every source");
    /// Two connectivity nodes resolve to one path.
    DUPLICATE_NODE_PATH = ("SG0304", "duplicate connectivity node path");
    /// Equipment has no power-flow mapping (ignored by the solver).
    NO_POWER_MAPPING = ("SG0305", "equipment type has no power-flow mapping");
    /// Equipment has the wrong number of terminals for its mapping.
    WRONG_TERMINAL_COUNT = ("SG0306", "equipment has the wrong number of terminals");

    // --- SG04xx: protection sanity ----------------------------------------
    /// A protection function has no breaker mapped to trip.
    PROTECTION_NO_BREAKER = ("SG0401", "protection function has no breaker to trip");
    /// A protection function trips a breaker the model does not define.
    PROTECTION_UNDEFINED_BREAKER =
        ("SG0402", "protection function trips an undefined breaker");
    /// A protection threshold is non-positive.
    PROTECTION_BAD_THRESHOLD = ("SG0403", "protection threshold is not positive");
    /// A configured IED feature lacks the logical node its ICD must declare.
    FEATURE_NO_LN = ("SG0404", "configured feature lacks its logical node in the ICD");

    // --- SG05xx: bundle hygiene --------------------------------------------
    /// An ICD describes an IED no SCD instantiates.
    ORPHAN_ICD = ("SG0501", "ICD describes an IED that no SCD instantiates");
    /// Two SSDs declare one substation name.
    DUPLICATE_SUBSTATION = ("SG0504", "two SSDs declare the same substation");

    // --- SG5xxx: exercise scenarios ----------------------------------------
    /// A scenario stage or objective targets a host/IED/switch/line/point
    /// that the bundle does not define.
    SCENARIO_UNKNOWN_TARGET = ("SG5001", "scenario references a target the bundle does not define");
    /// A `after=` dependency names a stage id the scenario never defines
    /// (or the stage depends on itself).
    SCENARIO_UNDEFINED_STAGE = ("SG5002", "scenario dependency references an undefined stage id");
    /// An objective deadline or window can never be met (zero/negative).
    SCENARIO_BAD_DEADLINE = ("SG5003", "scenario objective has a zero or negative deadline");
    /// Two stages or objectives share one id.
    SCENARIO_DUPLICATE_ID = ("SG5004", "two scenario stages or objectives share one id");
    /// A fault stage (`linkFault`, `crash`) names a host or link endpoint
    /// the bundle does not define.
    SCENARIO_UNKNOWN_FAULT_TARGET =
        ("SG5005", "fault stage references a host or link endpoint the bundle does not define");
    /// A `sensor` fault stage names an IED the bundle does not define, or
    /// a key that IED does not sample.
    SCENARIO_UNKNOWN_FAULT_IED =
        ("SG5006", "sensor fault stage references an undefined IED or an unsampled key");
    /// A `linkFault` probability (loss/corrupt/duplicate) is outside [0, 1].
    SCENARIO_BAD_FAULT_PROBABILITY =
        ("SG5007", "link fault probability is outside the [0, 1] range");

    // --- SG6xxx: ST control-logic semantics --------------------------------
    /// The PLC's Structured Text (or PLCopen XML) body does not parse.
    ST_PARSE_FAILED = ("SG6000", "PLC control logic does not parse");
    /// An operand or assignment uses an incompatible type.
    ST_TYPE_MISMATCH = ("SG6001", "ST expression mixes incompatible types");
    /// An expression reads a variable nothing declares, binds, or assigns.
    ST_UNKNOWN_VARIABLE = ("SG6002", "ST reads a variable that is never declared or bound");
    /// A function/FB call is malformed (unknown callee, wrong arity,
    /// unknown parameter or output).
    ST_BAD_FB_CALL = ("SG6003", "ST function or function-block call is malformed");
    /// A declared variable is read but never assigned or bound, so it
    /// forever holds its type default.
    ST_READ_BEFORE_WRITE = ("SG6010", "ST variable is read but never assigned");
    /// A value is overwritten before anything reads it.
    ST_DEAD_STORE = ("SG6011", "ST assignment is overwritten before it is read");
    /// A statement can never execute (constant condition, or it follows
    /// EXIT/RETURN or a loop that never exits).
    ST_UNREACHABLE = ("SG6012", "ST statement is unreachable");
    /// Division or modulo by a literal zero — faults on every scan.
    ST_DIVISION_BY_ZERO = ("SG6013", "ST divides by a literal zero");
    /// A PLC read/write/GOOSE binding names an ST variable the program
    /// never declares.
    PLC_BINDING_UNDECLARED =
        ("SG6020", "PLC binding references a variable the program never declares");
    /// A SCADA tag polls a PLC output register/coil that no located
    /// variable drives.
    SCADA_TAG_UNDRIVEN = ("SG6021", "SCADA tag is bound to a PLC output nothing drives");

    // --- SG7xxx: autonomous adversary plane --------------------------------
    /// An `<Adversary goal=…>` attribute does not follow the
    /// `kind:target` grammar (`breakerOpen:`, `breakerClosed:`,
    /// `scadaAlarm:`).
    ADVERSARY_BAD_GOAL = ("SG7001", "adversary goal does not parse");
    /// The goal names a breaker or SCADA point absent from the derived
    /// attack graph.
    ADVERSARY_UNKNOWN_TARGET =
        ("SG7002", "adversary goal names a target the attack graph does not contain");
    /// The target exists but no attack-primitive path in the derived
    /// graph reaches it.
    ADVERSARY_UNREACHABLE_GOAL =
        ("SG7003", "adversary goal is unreachable with the available attack primitives");
    /// Every path to the goal needs more actions than `budget=` allows.
    ADVERSARY_BUDGET_TOO_SMALL =
        ("SG7004", "adversary budget is too small for any path to the goal");
    /// The scenario mixes `<Adversary>` with a manual cyber stage against
    /// the same victim the planned campaign attacks — the two will race.
    ADVERSARY_CONFLICTING_STAGE =
        ("SG7005", "manual cyber stage targets the same victim as the planned adversary campaign");
}

/// Looks a code up in the registry.
pub fn lookup(code: &str) -> Option<CodeInfo> {
    REGISTRY.iter().copied().find(|c| c.code == code)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_is_sorted_and_unique() {
        for pair in REGISTRY.windows(2) {
            assert!(
                pair[0].code < pair[1].code,
                "registry out of order: {} before {}",
                pair[0].code,
                pair[1].code
            );
        }
    }

    #[test]
    fn codes_are_well_formed() {
        for info in REGISTRY {
            assert_eq!(info.code.len(), 6, "{}", info.code);
            assert!(info.code.starts_with("SG"), "{}", info.code);
            assert!(
                info.code[2..].bytes().all(|b| b.is_ascii_digit()),
                "{}",
                info.code
            );
            assert!(!info.summary.is_empty());
        }
    }

    #[test]
    fn lookup_finds_known_codes() {
        assert_eq!(lookup("SG0201").map(|c| c.code), Some("SG0201"));
        assert!(lookup("SG9999").is_none());
    }
}
