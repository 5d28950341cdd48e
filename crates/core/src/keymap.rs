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

/// Every key the power stepper publishes or reads for one power model.
/// Built once per [`CompiledModel`](crate::CompiledModel) and shared by all
/// its tenants; each tenant resolves it to store slots once
/// ([`Publish::slots`]), so a step formats and hashes no keys.
pub(crate) type PublishKeys = Publish<String>;

/// [`PublishKeys`] resolved against one tenant's store.
pub(crate) type PublishSlots = Publish<Slot>;

/// One entry per published measurement of a power model, indexed like the
/// model's element tables. A controllable element pairs its measurement
/// with its command, which is `None` when an earlier element has the same
/// command key: a key commands the first element that has it, a gen before
/// an sgen.
#[derive(Debug, Clone)]
pub(crate) struct Publish<K> {
    /// Per switch: position feedback, close command.
    pub(crate) switch: Vec<(K, Option<K>)>,
    /// Per bus: voltage magnitude, angle.
    pub(crate) bus: Vec<[K; 2]>,
    /// Per line, then per trafo: active power, reactive power, current,
    /// loading.
    pub(crate) line: Vec<[K; 4]>,
    pub(crate) trafo: Vec<[K; 4]>,
    /// Per ext grid: supplied active power.
    pub(crate) ext_grid: Vec<K>,
    /// Per gen, sgen: supplied active power, set-point command.
    pub(crate) gen: Vec<(K, Option<K>)>,
    pub(crate) sgen: Vec<(K, Option<K>)>,
    /// Per load: actual demand, set-point command.
    pub(crate) load: Vec<(K, Option<K>)>,
    /// The step counter.
    pub(crate) sim_step: K,
}

impl<K> Publish<K> {
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

impl PublishKeys {
    pub(crate) fn new(power: &PowerNetwork) -> PublishKeys {
        let branch = |name: &str| {
            [
                branch_p_key(name),
                branch_q_key(name),
                branch_i_key(name),
                branch_loading_key(name),
            ]
        };
        let mut commanded = HashSet::new();
        let mut command = |key: String| commanded.insert(key.clone()).then_some(key);
        Publish {
            switch: power
                .switch
                .iter()
                .map(|s| {
                    (
                        breaker_state_key(&s.name),
                        command(breaker_cmd_key(&s.name)),
                    )
                })
                .collect(),
            bus: power
                .bus
                .iter()
                .map(|b| [bus_vm_key(&b.name), bus_va_key(&b.name)])
                .collect(),
            line: power.line.iter().map(|l| branch(&l.name)).collect(),
            trafo: power.trafo.iter().map(|t| branch(&t.name)).collect(),
            ext_grid: power
                .ext_grid
                .iter()
                .map(|e| source_p_key(&e.name))
                .collect(),
            gen: power
                .gen
                .iter()
                .map(|g| (source_p_key(&g.name), command(gen_cmd_key(&g.name))))
                .collect(),
            sgen: power
                .sgen
                .iter()
                .map(|s| (source_p_key(&s.name), command(gen_cmd_key(&s.name))))
                .collect(),
            load: power
                .load
                .iter()
                .map(|l| (load_p_key(&l.name), command(load_cmd_key(&l.name))))
                .collect(),
            sim_step: SIM_STEP_KEY.to_string(),
        }
    }

    /// Resolves every key to its slot in `store`.
    pub(crate) fn slots(&self, store: &ProcessStore) -> PublishSlots {
        let slot = |key: &String| store.slot(key);
        let controlled =
            |(meas, cmd): &(String, Option<String>)| (slot(meas), cmd.as_ref().map(slot));
        Publish {
            switch: self.switch.iter().map(controlled).collect(),
            bus: self
                .bus
                .iter()
                .map(|keys| keys.each_ref().map(slot))
                .collect(),
            line: self
                .line
                .iter()
                .map(|keys| keys.each_ref().map(slot))
                .collect(),
            trafo: self
                .trafo
                .iter()
                .map(|keys| keys.each_ref().map(slot))
                .collect(),
            ext_grid: self.ext_grid.iter().map(slot).collect(),
            gen: self.gen.iter().map(controlled).collect(),
            sgen: self.sgen.iter().map(controlled).collect(),
            load: self.load.iter().map(controlled).collect(),
            sim_step: slot(&self.sim_step),
        }
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
        let keys = PublishKeys::new(&power);
        let commands = |table: &[(String, Option<String>)]| {
            table.iter().map(|(_, cmd)| cmd.clone()).collect::<Vec<_>>()
        };
        let load = load_cmd_key("S1/L");
        assert_eq!(commands(&keys.load), [Some(load), None]);
        assert_eq!(commands(&keys.gen), [Some(gen_cmd_key("S1/G"))]);
        assert_eq!(commands(&keys.sgen), [None], "a gen comes before an sgen");
    }
}
