//! The canonical mapping between power-model element names and process-store
//! keys — the contract shared by the power-flow stepper (writer), the IED
//! Config XML (reader bindings), and the experiment harness.
//!
//! Power-model element names are scoped `"{substation}/{name}"` by the SSD
//! compiler; bus names are full connectivity-node paths
//! (`"S1/VL1/B1/CN1"`). Keys replace inner slashes with dots so that key
//! segments stay unambiguous.

use sgcr_kvstore::{Keys, ProcessStore, Slot};
use sgcr_powerflow::PowerNetwork;

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

/// Key of a bus voltage magnitude, from the bus's path name.
pub fn bus_vm_key(bus_path: &str) -> String {
    let (substation, rest) = split_scoped(bus_path);
    Keys::bus_voltage(&substation, &rest)
}

/// Key of a bus voltage angle.
pub fn bus_va_key(bus_path: &str) -> String {
    let (substation, rest) = split_scoped(bus_path);
    Keys::bus_angle(&substation, &rest)
}

/// Key of a branch's active power (from side).
pub fn branch_p_key(branch_name: &str) -> String {
    let (substation, rest) = split_scoped(branch_name);
    Keys::branch_p(&substation, &rest)
}

/// Key of a branch's reactive power.
pub fn branch_q_key(branch_name: &str) -> String {
    let (substation, rest) = split_scoped(branch_name);
    Keys::branch_q(&substation, &rest)
}

/// Key of a branch's current (kA).
pub fn branch_i_key(branch_name: &str) -> String {
    let (substation, rest) = split_scoped(branch_name);
    Keys::branch_i(&substation, &rest)
}

/// Key of a branch's loading percentage.
pub fn branch_loading_key(branch_name: &str) -> String {
    let (substation, rest) = split_scoped(branch_name);
    Keys::branch_loading(&substation, &rest)
}

/// Key of a breaker's position feedback.
pub fn breaker_state_key(switch_name: &str) -> String {
    let (substation, rest) = split_scoped(switch_name);
    Keys::breaker_state(&substation, &rest)
}

/// Key of a breaker's command.
pub fn breaker_cmd_key(switch_name: &str) -> String {
    let (substation, rest) = split_scoped(switch_name);
    Keys::breaker_cmd(&substation, &rest)
}

/// Key of a source's (ext grid / generator) supplied active power.
pub fn source_p_key(name: &str) -> String {
    let (substation, rest) = split_scoped(name);
    format!("meas/{substation}/src/{rest}/p_mw")
}

/// Key of a load's actual demand.
pub fn load_p_key(name: &str) -> String {
    let (substation, rest) = split_scoped(name);
    format!("meas/{substation}/load/{rest}/p_mw")
}

/// Every key the power stepper publishes for one power model. Built once per
/// [`CompiledModel`](crate::CompiledModel) and shared by all its tenants;
/// each tenant resolves it to store slots once ([`Publish::slots`]), so a
/// step formats and hashes no keys.
pub(crate) type PublishKeys = Publish<String>;

/// [`PublishKeys`] resolved against one tenant's store.
pub(crate) type PublishSlots = Publish<Slot>;

/// One entry per published measurement of a power model, indexed like the
/// model's element tables.
#[derive(Debug, Clone)]
pub(crate) struct Publish<K> {
    /// Per switch: position feedback.
    pub(crate) switch: Vec<K>,
    /// Per bus: voltage magnitude, angle.
    pub(crate) bus: Vec<[K; 2]>,
    /// Per line, then per trafo: active power, reactive power, current,
    /// loading.
    pub(crate) line: Vec<[K; 4]>,
    pub(crate) trafo: Vec<[K; 4]>,
    /// Per ext grid, gen, sgen: supplied active power.
    pub(crate) ext_grid: Vec<K>,
    pub(crate) gen: Vec<K>,
    pub(crate) sgen: Vec<K>,
    /// Per load: actual demand.
    pub(crate) load: Vec<K>,
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
        Publish {
            switch: power
                .switch
                .iter()
                .map(|s| breaker_state_key(&s.name))
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
            gen: power.gen.iter().map(|g| source_p_key(&g.name)).collect(),
            sgen: power.sgen.iter().map(|s| source_p_key(&s.name)).collect(),
            load: power.load.iter().map(|l| load_p_key(&l.name)).collect(),
            sim_step: Keys::sim_step(),
        }
    }

    /// Resolves every key to its slot in `store`.
    pub(crate) fn slots(&self, store: &ProcessStore) -> PublishSlots {
        let slot = |key: &String| store.slot(key);
        Publish {
            switch: self.switch.iter().map(slot).collect(),
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
            gen: self.gen.iter().map(slot).collect(),
            sgen: self.sgen.iter().map(slot).collect(),
            load: self.load.iter().map(slot).collect(),
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
        assert_eq!(branch_p_key("S2/l7"), "meas/S2/branch/l7/p_mw");
        assert_eq!(breaker_cmd_key("S1/CB1"), "cmd/S1/cb/CB1/close");
        assert_eq!(breaker_state_key("S1/CB1"), "meas/S1/cb/CB1/closed");
        assert_eq!(source_p_key("S1/G1"), "meas/S1/src/G1/p_mw");
        assert_eq!(load_p_key("S1/LOAD2"), "meas/S1/load/LOAD2/p_mw");
    }
}
