//! Time-series simulation: load profiles and disturbance scenarios.
//!
//! The SG-ML *Power System Extra Config XML* "specifies the amount of load and
//! circuit breaker status in a time series for each component in the
//! simulation model. The power system simulator in the cyber range reads
//! these parameters at each step of the simulation." This module is that
//! execution engine: a [`SimulationSchedule`] applies profile points and
//! scenario events to a [`TrackedNetwork`] at each step.

use crate::network::TrackedNetwork;
use serde::{Deserialize, Serialize};

/// The element a profile drives.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum ProfileTarget {
    /// Scale a load's power by the profile value.
    LoadScaling(String),
    /// Scale a static generator's output by the profile value.
    SgenScaling(String),
    /// Set a generator's active power (MW) to the profile value.
    GenSetpoint(String),
}

/// A piecewise-constant time profile: at `t >= time_ms` the value applies.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Profile {
    /// What the profile drives.
    pub target: ProfileTarget,
    /// `(time_ms, value)` points sorted by time.
    pub points: Vec<(u64, f64)>,
}

impl Profile {
    /// The value in effect at time `t_ms` (last point at or before `t_ms`),
    /// or `None` before the first point.
    pub fn value_at(&self, t_ms: u64) -> Option<f64> {
        self.points
            .iter()
            .take_while(|(t, _)| *t <= t_ms)
            .last()
            .map(|(_, v)| *v)
    }
}

/// A one-shot disturbance applied at a point in time.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ScenarioAction {
    /// Open a named switch (circuit breaker).
    OpenSwitch(String),
    /// Close a named switch.
    CloseSwitch(String),
    /// Take a named line out of service (line fault / loss).
    LineOutage(String),
    /// Return a named line to service.
    LineRestore(String),
    /// Take a named generator out of service (generator loss).
    GenLoss(String),
    /// Return a named generator to service.
    GenRestore(String),
    /// Set a named load's active power demand (MW).
    SetLoadP(String, f64),
}

/// A scheduled scenario event.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioEvent {
    /// Simulation time at which the action fires, in milliseconds.
    pub at_ms: u64,
    /// What happens.
    pub action: ScenarioAction,
}

/// The full schedule driving a time-series simulation.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct SimulationSchedule {
    /// Continuous profiles.
    pub profiles: Vec<Profile>,
    /// One-shot events, sorted by `at_ms`.
    pub events: Vec<ScenarioEvent>,
}

impl SimulationSchedule {
    /// Creates an empty schedule.
    pub fn new() -> Self {
        Self::default()
    }

    /// Applies every profile value and every event in `(prev_ms, now_ms]`
    /// to the network. Call once per simulation step with advancing times.
    /// A profile writes only a value that moved, and an event writes once,
    /// so a step with neither leaves the network's generation as it was.
    ///
    /// Returns the names of elements touched (for logging/diagnostics).
    pub fn apply(&self, net: &mut TrackedNetwork, prev_ms: u64, now_ms: u64) -> Vec<String> {
        let mut touched = Vec::new();
        for profile in &self.profiles {
            let Some(value) = profile.value_at(now_ms) else {
                continue;
            };
            match &profile.target {
                ProfileTarget::LoadScaling(name) => {
                    if let Some(id) = net.load_by_name(name) {
                        if (net.load[id.index()].scaling - value).abs() > f64::EPSILON {
                            net.load[id.index()].scaling = value;
                            touched.push(format!("load {name} scaling={value}"));
                        }
                    }
                }
                ProfileTarget::SgenScaling(name) => {
                    if let Some(id) = net.sgen_by_name(name) {
                        if (net.sgen[id.index()].scaling - value).abs() > f64::EPSILON {
                            net.sgen[id.index()].scaling = value;
                            touched.push(format!("sgen {name} scaling={value}"));
                        }
                    }
                }
                ProfileTarget::GenSetpoint(name) => {
                    if let Some(id) = net.gen_by_name(name) {
                        if (net.gen[id.index()].p_mw - value).abs() > f64::EPSILON {
                            net.gen[id.index()].p_mw = value;
                            touched.push(format!("gen {name} p_mw={value}"));
                        }
                    }
                }
            }
        }
        for event in &self.events {
            if event.at_ms <= prev_ms || event.at_ms > now_ms {
                continue;
            }
            match &event.action {
                ScenarioAction::OpenSwitch(name) => {
                    if net.set_switch(name, false) {
                        touched.push(format!("switch {name} opened"));
                    }
                }
                ScenarioAction::CloseSwitch(name) => {
                    if net.set_switch(name, true) {
                        touched.push(format!("switch {name} closed"));
                    }
                }
                ScenarioAction::LineOutage(name) => {
                    if let Some(id) = net.line_by_name(name) {
                        net.line[id.index()].in_service = false;
                        touched.push(format!("line {name} outage"));
                    }
                }
                ScenarioAction::LineRestore(name) => {
                    if let Some(id) = net.line_by_name(name) {
                        net.line[id.index()].in_service = true;
                        touched.push(format!("line {name} restored"));
                    }
                }
                ScenarioAction::GenLoss(name) => {
                    if let Some(id) = net.gen_by_name(name) {
                        net.gen[id.index()].in_service = false;
                        touched.push(format!("gen {name} lost"));
                    } else if let Some(id) = net.sgen_by_name(name) {
                        net.sgen[id.index()].in_service = false;
                        touched.push(format!("sgen {name} lost"));
                    }
                }
                ScenarioAction::GenRestore(name) => {
                    if let Some(id) = net.gen_by_name(name) {
                        net.gen[id.index()].in_service = true;
                        touched.push(format!("gen {name} restored"));
                    } else if let Some(id) = net.sgen_by_name(name) {
                        net.sgen[id.index()].in_service = true;
                        touched.push(format!("sgen {name} restored"));
                    }
                }
                ScenarioAction::SetLoadP(name, p_mw) => {
                    if let Some(id) = net.load_by_name(name) {
                        net.load[id.index()].p_mw = *p_mw;
                        touched.push(format!("load {name} p_mw={p_mw}"));
                    }
                }
            }
        }
        touched
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::PowerNetwork;
    use crate::solve;

    fn demo_net() -> PowerNetwork {
        let mut net = PowerNetwork::new("ts");
        let b1 = net.add_bus("b1", 110.0);
        let b2 = net.add_bus("b2", 110.0);
        net.add_ext_grid("grid", b1, 1.0, 0.0);
        net.add_line("l1", b1, b2, 10.0, 0.06, 0.12, 0.0, 1.0);
        net.add_load("city", b2, 20.0, 5.0);
        net
    }

    #[test]
    fn profile_value_lookup() {
        let p = Profile {
            target: ProfileTarget::LoadScaling("city".into()),
            points: vec![(0, 1.0), (1000, 1.5), (2000, 0.5)],
        };
        assert_eq!(p.value_at(0), Some(1.0));
        assert_eq!(p.value_at(999), Some(1.0));
        assert_eq!(p.value_at(1000), Some(1.5));
        assert_eq!(p.value_at(5000), Some(0.5));
        let empty_before = Profile {
            target: ProfileTarget::LoadScaling("city".into()),
            points: vec![(100, 2.0)],
        };
        assert_eq!(empty_before.value_at(50), None);
    }

    #[test]
    fn load_profile_drives_solution() {
        let mut net = TrackedNetwork::new(demo_net());
        let schedule = SimulationSchedule {
            profiles: vec![Profile {
                target: ProfileTarget::LoadScaling("city".into()),
                points: vec![(0, 1.0), (1000, 2.0)],
            }],
            events: vec![],
        };
        schedule.apply(&mut net, 0, 100);
        let light = solve(&net).unwrap().total_ext_grid_p_mw();
        schedule.apply(&mut net, 100, 1100);
        let heavy = solve(&net).unwrap().total_ext_grid_p_mw();
        assert!(heavy > light * 1.8);
    }

    #[test]
    fn events_fire_once_in_window() {
        let mut net = TrackedNetwork::new(demo_net());
        let schedule = SimulationSchedule {
            profiles: vec![],
            events: vec![ScenarioEvent {
                at_ms: 500,
                action: ScenarioAction::LineOutage("l1".into()),
            }],
        };
        assert!(schedule.apply(&mut net, 0, 400).is_empty());
        let touched = schedule.apply(&mut net, 400, 600);
        assert_eq!(touched.len(), 1);
        assert!(!net.line[0].in_service);
        // Window strictly after the event: nothing more fires.
        assert!(schedule.apply(&mut net, 600, 1000).is_empty());
    }

    #[test]
    fn generator_loss_event() {
        let mut net = TrackedNetwork::new(demo_net());
        let b2 = net.bus_by_name("b2").unwrap();
        net.add_sgen("pv", b2, 8.0, 0.0);
        let before = solve(&net).unwrap().total_ext_grid_p_mw();
        let schedule = SimulationSchedule {
            profiles: vec![],
            events: vec![ScenarioEvent {
                at_ms: 100,
                action: ScenarioAction::GenLoss("pv".into()),
            }],
        };
        schedule.apply(&mut net, 0, 200);
        let after = solve(&net).unwrap().total_ext_grid_p_mw();
        assert!(after > before + 7.0, "grid picks up the lost PV output");
    }

    #[test]
    fn breaker_event_deenergizes() {
        let mut net = TrackedNetwork::new(demo_net());
        let b1 = net.bus_by_name("b1").unwrap();
        net.add_switch(
            "cb1",
            b1,
            crate::network::SwitchTarget::Line(crate::network::LineId(0)),
            true,
        );
        let schedule = SimulationSchedule {
            profiles: vec![],
            events: vec![ScenarioEvent {
                at_ms: 300,
                action: ScenarioAction::OpenSwitch("cb1".into()),
            }],
        };
        schedule.apply(&mut net, 200, 400);
        let res = solve(&net).unwrap();
        assert!(!res.bus[1].energized);
    }
}
