//! The process store's key namespace: the one place that spells a key. The
//! power-flow stepper writes `meas/*` and `sim/step` and reads `cmd/*`; the
//! IED Config XML binds IEC 61850 data objects to these keys, and the
//! experiment harness writes commands through them.
//!
//! Power-model element names are scoped `"{substation}/{name}"` by the SSD
//! compiler; bus names are full connectivity-node paths
//! (`"S1/VL1/B1/CN1"`). Keys replace inner slashes with dots so that key
//! segments stay unambiguous.

use sgcr_kvstore::{ProcessStore, Slot};
use sgcr_powerflow::PowerNetwork;
use std::collections::HashSet;

/// Splits a scoped element name into `(substation, dotted-rest)`.
///
/// # Examples
///
/// ```
/// assert_eq!(sgcr_core::split_scoped("S1/VL1/B1/CN1"), ("S1".to_string(), "VL1.B1.CN1".to_string()));
/// assert_eq!(sgcr_core::split_scoped("CB1"), ("sys".to_string(), "CB1".to_string()));
/// ```
pub fn split_scoped(name: &str) -> (String, String) {
    match name.split_once('/') {
        Some((substation, rest)) => (substation.to_string(), rest.replace('/', ".")),
        None => ("sys".to_string(), name.to_string()),
    }
}

/// The key `<plane>/<substation>/<class>/<rest>/<field>` of a scoped
/// element name.
fn key(plane: &str, class: &str, name: &str, field: &str) -> String {
    let (substation, rest) = split_scoped(name);
    format!("{plane}/{substation}/{class}/{rest}/{field}")
}

/// Key of a bus voltage magnitude, from the bus's path name.
pub fn bus_vm_key(bus_path: &str) -> String {
    key("meas", "bus", bus_path, "vm_pu")
}

/// Key of a bus voltage angle.
pub fn bus_va_key(bus_path: &str) -> String {
    key("meas", "bus", bus_path, "va_deg")
}

/// Key of a branch's active power (from side).
pub fn branch_p_key(branch_name: &str) -> String {
    key("meas", "branch", branch_name, "p_mw")
}

/// Key of a branch's reactive power.
pub fn branch_q_key(branch_name: &str) -> String {
    key("meas", "branch", branch_name, "q_mvar")
}

/// Key of a branch's current (kA).
pub fn branch_i_key(branch_name: &str) -> String {
    key("meas", "branch", branch_name, "i_ka")
}

/// Key of a branch's loading percentage.
pub fn branch_loading_key(branch_name: &str) -> String {
    key("meas", "branch", branch_name, "loading")
}

/// Key of a breaker's position feedback.
pub fn breaker_state_key(switch_name: &str) -> String {
    key("meas", "cb", switch_name, "closed")
}

/// Key of a breaker's command (true = close, false = open).
pub fn breaker_cmd_key(switch_name: &str) -> String {
    key("cmd", "cb", switch_name, "close")
}

/// Key of a source's (ext grid / generator) supplied active power.
pub fn source_p_key(name: &str) -> String {
    key("meas", "src", name, "p_mw")
}

/// Key of a load's actual demand.
pub fn load_p_key(name: &str) -> String {
    key("meas", "load", name, "p_mw")
}

/// Key of a load's set-point command (MW).
pub fn load_cmd_key(name: &str) -> String {
    key("cmd", "load", name, "p_mw")
}

/// Key of a generator's or static generator's set-point command (MW).
pub fn gen_cmd_key(name: &str) -> String {
    key("cmd", "gen", name, "p_mw")
}

/// Key of the range's step counter.
pub const SIM_STEP_KEY: &str = "sim/step";

/// The store slot of every measurement the power stepper publishes, and of
/// every command it reads, for one power model: one entry per element,
/// indexed like the model's element tables. Built once per
/// [`CompiledModel`](crate::CompiledModel) against its template store and
/// shared by every tenant, whose store is a fork of that template, so a
/// tenant resolves no key. A controllable element pairs its measurement
/// with its command, which is `None` when an earlier element has the same
/// command key: a key commands the first element that has it, a gen before
/// an sgen.
#[derive(Debug)]
pub(crate) struct Publish {
    /// Per switch: position feedback, close command.
    pub(crate) switch: Vec<(Slot, Option<Slot>)>,
    /// Per bus: voltage magnitude, angle.
    pub(crate) bus: Vec<[Slot; 2]>,
    /// Per line, then per trafo: active power, reactive power, current,
    /// loading.
    pub(crate) line: Vec<[Slot; 4]>,
    pub(crate) trafo: Vec<[Slot; 4]>,
    /// Per ext grid: supplied active power.
    pub(crate) ext_grid: Vec<Slot>,
    /// Per gen, sgen: supplied active power, set-point command.
    pub(crate) gen: Vec<(Slot, Option<Slot>)>,
    pub(crate) sgen: Vec<(Slot, Option<Slot>)>,
    /// Per load: actual demand, set-point command.
    pub(crate) load: Vec<(Slot, Option<Slot>)>,
    /// The step counter.
    pub(crate) sim_step: Slot,
}

impl Publish {
    /// Resolves the keys of every element of `power` to their slots in
    /// `store`, interning the keys `store` lacks.
    pub(crate) fn new(power: &PowerNetwork, store: &ProcessStore) -> Publish {
        let slot = |key: String| store.slot(&key);
        let branch = |name: &str| {
            let keys = [branch_p_key, branch_q_key, branch_i_key, branch_loading_key];
            keys.map(|key| slot(key(name)))
        };
        let mut commanded = HashSet::new();
        let mut controlled = |meas: String, cmd: String| {
            let (meas, cmd) = (slot(meas), slot(cmd));
            (meas, commanded.insert(cmd).then_some(cmd))
        };
        Publish {
            switch: (power.switch.iter())
                .map(|s| controlled(breaker_state_key(&s.name), breaker_cmd_key(&s.name)))
                .collect(),
            bus: (power.bus.iter())
                .map(|b| [bus_vm_key(&b.name), bus_va_key(&b.name)].map(slot))
                .collect(),
            line: power.line.iter().map(|l| branch(&l.name)).collect(),
            trafo: power.trafo.iter().map(|t| branch(&t.name)).collect(),
            ext_grid: (power.ext_grid.iter())
                .map(|e| slot(source_p_key(&e.name)))
                .collect(),
            gen: (power.gen.iter())
                .map(|g| controlled(source_p_key(&g.name), gen_cmd_key(&g.name)))
                .collect(),
            sgen: (power.sgen.iter())
                .map(|s| controlled(source_p_key(&s.name), gen_cmd_key(&s.name)))
                .collect(),
            load: (power.load.iter())
                .map(|l| controlled(load_p_key(&l.name), load_cmd_key(&l.name)))
                .collect(),
            sim_step: store.slot(SIM_STEP_KEY),
        }
    }

    /// Whether this table has one entry per element of `power`.
    pub(crate) fn fits(&self, power: &PowerNetwork) -> bool {
        self.switch.len() == power.switch.len()
            && self.bus.len() == power.bus.len()
            && self.line.len() == power.line.len()
            && self.trafo.len() == power.trafo.len()
            && self.ext_grid.len() == power.ext_grid.len()
            && self.gen.len() == power.gen.len()
            && self.sgen.len() == power.sgen.len()
            && self.load.len() == power.load.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scoping() {
        assert_eq!(bus_vm_key("S1/VL1/B1/CN1"), "meas/S1/bus/VL1.B1.CN1/vm_pu");
        assert_eq!(bus_va_key("S1/VL1/B1/CN1"), "meas/S1/bus/VL1.B1.CN1/va_deg");
        assert_eq!(branch_p_key("S2/l7"), "meas/S2/branch/l7/p_mw");
        assert_eq!(branch_q_key("S2/l7"), "meas/S2/branch/l7/q_mvar");
        assert_eq!(branch_i_key("S2/l7"), "meas/S2/branch/l7/i_ka");
        assert_eq!(branch_loading_key("S2/l7"), "meas/S2/branch/l7/loading");
        assert_eq!(breaker_cmd_key("S1/CB1"), "cmd/S1/cb/CB1/close");
        assert_eq!(breaker_state_key("S1/CB1"), "meas/S1/cb/CB1/closed");
        assert_eq!(source_p_key("S1/G1"), "meas/S1/src/G1/p_mw");
        assert_eq!(load_p_key("S1/LOAD2"), "meas/S1/load/LOAD2/p_mw");
        assert_eq!(load_cmd_key("LX"), "cmd/sys/load/LX/p_mw");
        assert_eq!(gen_cmd_key("S1/G1"), "cmd/S1/gen/G1/p_mw");
    }

    #[test]
    fn a_command_key_commands_the_first_element_that_has_it() {
        let mut power = PowerNetwork::new("dup");
        let bus = power.add_bus("S1/B1", 20.0);
        power.add_load("S1/L", bus, 1.0, 0.0);
        power.add_load("S1/L", bus, 2.0, 0.0);
        power.add_sgen("S1/G", bus, 1.0, 0.0);
        power.add_gen("S1/G", bus, 1.0, 1.0);
        let store = ProcessStore::new();
        let publish = Publish::new(&power, &store);
        let commands =
            |table: &[(Slot, Option<Slot>)]| table.iter().map(|&(_, cmd)| cmd).collect::<Vec<_>>();
        let load = store.slot(&load_cmd_key("S1/L"));
        assert_eq!(commands(&publish.load), [Some(load), None]);
        let gen = store.slot(&gen_cmd_key("S1/G"));
        assert_eq!(commands(&publish.gen), [Some(gen)]);
        assert_eq!(
            commands(&publish.sgen),
            [None],
            "a gen comes before an sgen"
        );
    }
}
