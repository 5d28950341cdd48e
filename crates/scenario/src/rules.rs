//! The scenario rule set: does a scenario fit the range it will run on?
//!
//! [`check`] is the one implementation of these rules, and
//! [`BundleNames::from_model`] the one source of the names it checks
//! against. `sgcr-lint`'s `scenario` pass reports every finding as an
//! `SG5xxx` diagnostic; [`run_exercise`](crate::run_exercise) refuses to
//! start on the first finding. Both fill the names from the compiled model,
//! so a scenario lints clean exactly when it runs.

use crate::spec::{Check, Pos, Scenario, StageAction, StageStart};
use sgcr_core::CompiledModel;
use sgcr_net::Ipv4Addr;
use sgcr_powerflow::ScenarioAction;
use std::collections::{BTreeMap, BTreeSet};

/// Everything a scenario can legally reference, besides its own `<Host>`s.
#[derive(Debug, Clone, Default)]
pub struct BundleNames {
    /// Hosts with a network presence (IEDs, PLCs, SCADA).
    pub hosts: BTreeSet<String>,
    /// The owner of every range host address.
    pub ips: BTreeMap<Ipv4Addr, String>,
    /// Subnetwork (switch) names.
    pub subnetworks: BTreeSet<String>,
    /// IED names.
    pub ieds: BTreeSet<String>,
    /// The keys each IED samples, by IED name — its measurement keys and
    /// relay input keys: the keys a `sensor` stage may fault.
    pub sampled_keys: BTreeMap<String, BTreeSet<String>>,
    /// Scoped switch names (`Substation/Name`).
    pub switches: BTreeSet<String>,
    /// Scoped line names.
    pub lines: BTreeSet<String>,
    /// Scoped generator/battery names.
    pub gens: BTreeSet<String>,
    /// Scoped load names.
    pub loads: BTreeSet<String>,
    /// Connectivity-node paths (`Substation/VoltageLevel/Bay/Name`).
    pub buses: BTreeSet<String>,
    /// SCADA point names an objective may watch: every configured tag and
    /// its staleness alarm point.
    pub points: BTreeSet<String>,
}

impl BundleNames {
    /// The names of a compiled model: the planned hosts and their
    /// addresses, the switches (the `wan` switch of a multi-substation
    /// model included), the instantiated IEDs and the keys they sample, the
    /// power elements, and the SCADA points.
    pub fn from_model(model: &CompiledModel) -> BundleNames {
        fn names<'a>(items: impl Iterator<Item = &'a String>) -> BTreeSet<String> {
            items.cloned().collect()
        }
        let (plan, power) = (&model.plan, &model.power);
        BundleNames {
            hosts: names(plan.hosts.iter().map(|h| &h.name)),
            ips: plan.hosts.iter().map(|h| (h.ip, h.name.clone())).collect(),
            subnetworks: names(plan.switches.iter().map(|s| &s.name)),
            ieds: names(model.ieds.iter().map(|i| &i.name)),
            sampled_keys: (model.ieds.iter())
                .map(|i| (i.name.clone(), i.sampled_keys().map(String::from).collect()))
                .collect(),
            switches: names(power.switch.iter().map(|s| &s.name)),
            lines: names(power.line.iter().map(|l| &l.name)),
            gens: names(
                power
                    .gen
                    .iter()
                    .map(|g| &g.name)
                    .chain(power.sgen.iter().map(|s| &s.name)),
            ),
            loads: names(power.load.iter().map(|l| &l.name)),
            buses: names(power.bus.iter().map(|b| &b.name)),
            points: (model.scada.iter())
                .flat_map(|scada| scada.config.point_names())
                .collect(),
        }
    }
}

/// Which rule a [`Finding`] breaks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FindingKind {
    /// A stage, objective or host names something that does not exist, or
    /// a cyber stage's attacker host is undeclared or already taken.
    UnknownTarget,
    /// An `after=` names no stage, or its chain leads back to its own stage.
    UndefinedStage,
    /// An objective deadline or window can never be met.
    BadDeadline,
    /// Two stages, objectives or hosts share one name, or a host takes the
    /// name or the address of a range node.
    DuplicateId,
    /// A `linkFault` or `crash` stage names an unknown host or endpoint.
    UnknownFaultTarget,
    /// A `sensor` stage names an unknown IED, or a key the IED does not
    /// sample.
    UnknownFaultIed,
    /// A `linkFault` probability lies outside [0, 1].
    BadFaultProbability,
}

/// One broken rule, anchored to the offending element.
#[derive(Debug, Clone, PartialEq)]
pub struct Finding {
    /// The rule broken.
    pub kind: FindingKind,
    /// Position of the offending element.
    pub pos: Pos,
    /// What is wrong, naming the element.
    pub message: String,
}

/// Checks a scenario against the names of its range and returns every
/// finding, in document order per rule.
pub fn check(scenario: &Scenario, names: &BundleNames) -> Vec<Finding> {
    use FindingKind as K;
    let mut out = Vec::new();
    let mut find = |kind, pos, message| out.push(Finding { kind, pos, message });

    let mut stage_ids = BTreeSet::new();
    for stage in &scenario.stages {
        if !stage_ids.insert(stage.id.as_str()) {
            let message = format!("stage id {:?} is declared more than once", stage.id);
            find(K::DuplicateId, stage.pos, message);
        }
    }
    let mut objective_ids = BTreeSet::new();
    for objective in &scenario.objectives {
        if !objective_ids.insert(objective.id.as_str()) {
            let message = format!("objective id {:?} is declared more than once", objective.id);
            find(K::DuplicateId, objective.pos, message);
        }
    }

    let mut declared = BTreeSet::new();
    for host in &scenario.hosts {
        let name = &host.name;
        if !names.subnetworks.contains(&host.switch) {
            let message = format!("host {name:?} attaches to unknown switch {:?}", host.switch);
            find(K::UnknownTarget, host.pos, message);
        }
        if names.hosts.contains(name) || names.subnetworks.contains(name) {
            find(
                K::DuplicateId,
                host.pos,
                format!("host {name:?} already exists"),
            );
        } else if !declared.insert(name.as_str()) {
            let message = format!("host {name:?} is declared more than once");
            find(K::DuplicateId, host.pos, message);
        }
        if let Some(owner) = names.ips.get(&host.ip) {
            let message = format!("host {name:?} takes ip {} of range host {owner:?}", host.ip);
            find(K::DuplicateId, host.pos, message);
        }
    }

    // Each stage waits on at most one other, so a chain is a bounded walk.
    let mut waits_on = BTreeMap::new();
    for stage in &scenario.stages {
        if let StageStart::After { stage: dep, .. } = &stage.start {
            waits_on.entry(stage.id.as_str()).or_insert(dep.as_str());
        }
    }
    for stage in &scenario.stages {
        let StageStart::After { stage: dep, .. } = &stage.start else {
            continue;
        };
        let id = stage.id.as_str();
        let message = if dep == id {
            format!("stage {id:?} waits for itself")
        } else if !stage_ids.contains(dep.as_str()) {
            format!("stage {id:?} waits for undefined stage {dep:?}")
        } else {
            let mut cursor = Some(dep.as_str());
            let cycle = (0..scenario.stages.len()).any(|_| {
                cursor = cursor.and_then(|c| waits_on.get(c).copied());
                cursor == Some(id)
            });
            if !cycle {
                continue;
            }
            format!("stage {id:?} is in an after= cycle")
        };
        find(K::UndefinedStage, stage.pos, message);
    }

    let known_node =
        |n: &str| names.hosts.contains(n) || names.subnetworks.contains(n) || declared.contains(n);
    let mut used_hosts = BTreeSet::new();
    for stage in &scenario.stages {
        let (id, pos) = (&stage.id, stage.pos);
        if let StageAction::Fci { host, .. }
        | StageAction::Mitm { host, .. }
        | StageAction::Scan { host, .. } = &stage.action
        {
            if !declared.contains(host.as_str()) {
                let message =
                    format!("stage {id:?} runs on {host:?}, which is not a declared <Host>");
                find(K::UnknownTarget, pos, message);
            } else if !used_hosts.insert(host.as_str()) {
                let message =
                    format!("stage {id:?} reuses host {host:?} (a host runs at most one app)");
                find(K::UnknownTarget, pos, message);
            }
        }
        let unknown =
            |what: &str, target: &str| format!("stage {id:?} targets unknown {what} {target:?}");
        match &stage.action {
            StageAction::Power(action) => {
                let (set, target, what) = match action {
                    ScenarioAction::OpenSwitch(t) | ScenarioAction::CloseSwitch(t) => {
                        (&names.switches, t, "switch")
                    }
                    ScenarioAction::LineOutage(t) | ScenarioAction::LineRestore(t) => {
                        (&names.lines, t, "line")
                    }
                    ScenarioAction::GenLoss(t) | ScenarioAction::GenRestore(t) => {
                        (&names.gens, t, "generator")
                    }
                    ScenarioAction::SetLoadP(t, _) => (&names.loads, t, "load"),
                };
                if !set.contains(target) {
                    find(K::UnknownTarget, pos, unknown(what, target));
                }
            }
            StageAction::Fci { victim, .. } => {
                if !names.hosts.contains(victim) {
                    find(K::UnknownTarget, pos, unknown("victim", victim));
                }
            }
            StageAction::Mitm {
                victim_a, victim_b, ..
            } => {
                for victim in [victim_a, victim_b] {
                    if !names.hosts.contains(victim) {
                        find(K::UnknownTarget, pos, unknown("victim", victim));
                    }
                }
            }
            StageAction::Scan { .. } => {}
            StageAction::Link { a, b, .. } => {
                for end in [a, b].into_iter().filter(|end| !known_node(end)) {
                    find(K::UnknownTarget, pos, unknown("link endpoint", end));
                }
            }
            StageAction::LinkFault { a, b, fault } => {
                for end in [a, b].into_iter().filter(|end| !known_node(end)) {
                    find(K::UnknownFaultTarget, pos, unknown("link endpoint", end));
                }
                for (what, p) in [
                    ("loss", fault.loss),
                    ("corrupt", fault.corrupt),
                    ("duplicate", fault.duplicate),
                ] {
                    if !(0.0..=1.0).contains(&p) {
                        let message = format!("stage {id:?} has {what}={p} outside [0, 1]");
                        find(K::BadFaultProbability, pos, message);
                    }
                }
            }
            StageAction::Crash { host, .. } => {
                if !names.hosts.contains(host) && !declared.contains(host.as_str()) {
                    find(K::UnknownFaultTarget, pos, unknown("host", host));
                }
            }
            StageAction::Sensor { ied, key, .. } => {
                if !names.ieds.contains(ied) {
                    find(K::UnknownFaultIed, pos, unknown("IED", ied));
                } else if !names.sampled_keys.get(ied).is_some_and(|k| k.contains(key)) {
                    let message =
                        format!("stage {id:?} faults key {key:?}, which {ied} does not sample");
                    find(K::UnknownFaultIed, pos, message);
                }
            }
        }
    }

    for objective in &scenario.objectives {
        let (id, pos) = (&objective.id, objective.pos);
        if let Some(dep) = &objective.after {
            if !stage_ids.contains(dep.as_str()) {
                let message = format!("objective {id:?} is anchored to undefined stage {dep:?}");
                find(K::UndefinedStage, pos, message);
            }
        }
        let (set, target, what) = match &objective.check {
            Check::BreakerOpen { switch } | Check::BreakerClosed { switch } => {
                (&names.switches, switch, "switch")
            }
            Check::IedTrip { ied } => (&names.ieds, ied, "IED"),
            Check::ScadaAlarm { point }
            | Check::TagAbove { point, .. }
            | Check::TagBelow { point, .. } => (&names.points, point, "SCADA point"),
            Check::VoltageBand { bus, .. } => (&names.buses, bus, "bus"),
        };
        if !set.contains(target) {
            let message = format!("objective {id:?} targets unknown {what} {target:?}");
            find(K::UnknownTarget, pos, message);
        }
        let message = match &objective.check {
            Check::VoltageBand { from_ms, to_ms, .. } if to_ms <= from_ms => {
                format!("objective {id:?} has an empty window (fromMs={from_ms}, toMs={to_ms})")
            }
            Check::VoltageBand { .. } => continue,
            _ if objective.within_ms <= 0 => format!(
                "objective {id:?} has a zero or negative deadline (withinMs={})",
                objective.within_ms
            ),
            _ => continue,
        };
        find(K::BadDeadline, pos, message);
    }
    out
}
