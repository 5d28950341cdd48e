//! The SG-ML *Exercise Scenario XML* supplementary schema.
//!
//! Styled after the Power System Extra Config schema
//! (`crates/core/src/sgml/power_extra.rs`): a flat XML document, camelCase
//! attributes, parsed with `sgcr-xml`.
//! Every parsed element keeps its source position so `sgcr-lint` can anchor
//! findings to real `file:line:column` spans.
//!
//! ```xml
//! <Scenario name="epic-fci" durationMs="8000" description="...">
//!   <Host name="malware-host" ip="10.0.1.66" switch="GenBus"/>
//!   <Stage id="recon" t="500" kind="scan" host="malware-host"
//!          first="10.0.1.11" last="10.0.1.14" ports="102,502"/>
//!   <Stage id="strike" after="recon" delayMs="500" kind="fci"
//!          host="malware-host" victim="GIED1"
//!          item="GIED1LD0/CSWI1$CO$Pos$Oper$ctlVal" value="false"/>
//!   <Objective id="gen-open" kind="breakerOpen" target="EPIC/CB_GEN"
//!              after="strike" withinMs="1000" points="2"/>
//! </Scenario>
//! ```

use sgcr_faults::{LinkFault, SensorFault};
use sgcr_net::Ipv4Addr;
use sgcr_powerflow::ScenarioAction;
use sgcr_xml::{Document, ElementRef};
use std::fmt;

/// An error parsing Exercise Scenario XML.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioError {
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.message)
    }
}

impl std::error::Error for ScenarioError {}

fn err(message: impl Into<String>) -> ScenarioError {
    ScenarioError {
        message: message.into(),
    }
}

/// Source position of an element (1-based; `0` = unknown), kept so lint
/// findings on scenario files carry real spans.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Pos {
    /// 1-based line, 0 when unknown.
    pub line: u32,
    /// 1-based column, 0 when unknown.
    pub column: u32,
}

impl Pos {
    fn of(el: &ElementRef<'_>) -> Pos {
        Pos {
            line: el.line().unwrap_or(0),
            column: el.column().unwrap_or(0),
        }
    }
}

/// A parsed exercise scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Scenario name (shown in reports).
    pub name: String,
    /// Free-form description.
    pub description: String,
    /// Exercise length in simulation milliseconds.
    pub duration_ms: u64,
    /// Seed for the deterministic fault generator (`faultSeed=`). Applied
    /// at exercise start; overridable from the CLI with `--fault-seed`.
    pub fault_seed: Option<u64>,
    /// SCADA stale-tag window in ms (`staleMs=`): a good-quality tag with
    /// no update for longer than this raises a staleness alarm.
    pub stale_ms: Option<u64>,
    /// Attacker hosts to add to the range before the exercise starts.
    pub hosts: Vec<AttackerHost>,
    /// Autonomous adversary declaration, when present: the engine derives
    /// an attack graph and plans a campaign instead of (or alongside)
    /// hand-written cyber stages.
    pub adversary: Option<Adversary>,
    /// Stages in declaration order.
    pub stages: Vec<Stage>,
    /// Objectives in declaration order.
    pub objectives: Vec<Objective>,
}

/// An `<Adversary goal="…" budget="…" seed="…"/>` declaration: a
/// goal-driven red agent whose campaign is planned from the derived
/// attack graph rather than hand-scripted.
#[derive(Debug, Clone, PartialEq)]
pub struct Adversary {
    /// The declared goal, `<kind>:<target>` (e.g. `breakerOpen:EPIC/CB_GEN`,
    /// `scadaAlarm:MicroVolt_pu`).
    pub goal: String,
    /// Maximum number of campaign actions the planner may spend.
    pub budget: u32,
    /// Planner seed — the same seed replays the same campaign
    /// byte-identically.
    pub seed: u64,
    /// Source position in the scenario file.
    pub pos: Pos,
}

/// An attacker host placed on a named switch, like
/// [`sgcr_core::RangeState::add_host`].
#[derive(Debug, Clone, PartialEq)]
pub struct AttackerHost {
    /// Host name (referenced by cyber stages).
    pub name: String,
    /// IPv4 address.
    pub ip: Ipv4Addr,
    /// Name of the subnetwork switch to attach to.
    pub switch: String,
    /// Source position in the scenario file.
    pub pos: Pos,
}

/// When a stage becomes eligible to start.
#[derive(Debug, Clone, PartialEq)]
pub enum StageStart {
    /// At an absolute exercise time (ms from exercise start).
    At(u64),
    /// When another stage *completes*, plus a delay.
    After {
        /// Id of the stage this one waits for.
        stage: String,
        /// Extra delay after the dependency completes, in ms.
        delay_ms: u64,
    },
}

/// One orchestrated step of the exercise.
#[derive(Debug, Clone, PartialEq)]
pub struct Stage {
    /// Unique stage id (referenced by `after=`).
    pub id: String,
    /// When the stage starts.
    pub start: StageStart,
    /// What the stage does.
    pub action: StageAction,
    /// Source position in the scenario file.
    pub pos: Pos,
}

/// What a stage does when it fires.
#[derive(Debug, Clone, PartialEq)]
pub enum StageAction {
    /// A power-plane disturbance (the Power Extra Config event vocabulary).
    Power(ScenarioAction),
    /// False command injection from an attacker host
    /// ([`sgcr_attack::FciPlan`]).
    Fci {
        /// Attacker host the app runs on.
        host: String,
        /// Victim host name (an IED with an MMS server).
        victim: String,
        /// MMS item reference to write.
        item: String,
        /// Forged boolean to write (`false` = open for `Pos` controls).
        value: bool,
        /// Whether to interrogate the server's item tree first.
        interrogate: bool,
    },
    /// ARP-spoofing man-in-the-middle between two victims
    /// ([`sgcr_attack::MitmPlan`]).
    Mitm {
        /// Attacker host the app runs on.
        host: String,
        /// First victim host name.
        victim_a: String,
        /// Second victim host name.
        victim_b: String,
        /// How long the position is held, ms (`0` = until exercise end).
        duration_ms: u64,
        /// Payload transform applied while in position.
        transform: TransformSpec,
    },
    /// ARP sweep + TCP port scan ([`sgcr_attack::ScanPlan`]).
    Scan {
        /// Attacker host the app runs on.
        host: String,
        /// First IPv4 address of the swept range.
        first: Ipv4Addr,
        /// Last IPv4 address of the swept range (inclusive).
        last: Ipv4Addr,
        /// TCP ports probed on each live host.
        ports: Vec<u16>,
    },
    /// Network degradation on the link between two named nodes.
    Link {
        /// One endpoint (host or switch name).
        a: String,
        /// The other endpoint (host or switch name).
        b: String,
        /// What happens to the link.
        effect: LinkEffect,
    },
    /// A probabilistic impairment profile on the link between two named
    /// nodes (loss, corruption, duplication, jitter, flapping). A no-op
    /// profile clears a previously installed one.
    LinkFault {
        /// One endpoint (host or switch name).
        a: String,
        /// The other endpoint (host or switch name).
        b: String,
        /// The impairment profile.
        fault: LinkFault,
    },
    /// Crash a device host; with `restartAfterMs=` the range's watchdog
    /// brings it back automatically.
    Crash {
        /// The host to crash.
        host: String,
        /// Delay until automatic restart, ms (`None` = stays down).
        restart_after_ms: Option<u64>,
    },
    /// Engage (or, with `mode="clear"`, clear) a sensor fault on one
    /// sampled value inside a named IED.
    Sensor {
        /// The IED owning the transducer.
        ied: String,
        /// Process-store key of the faulted value.
        key: String,
        /// The fault to engage; `None` clears.
        fault: Option<SensorFault>,
    },
}

impl StageAction {
    /// The stage's `kind=` attribute value.
    pub fn kind(&self) -> &'static str {
        match self {
            StageAction::Power(_) => "power",
            StageAction::Fci { .. } => "fci",
            StageAction::Mitm { .. } => "mitm",
            StageAction::Scan { .. } => "scan",
            StageAction::Link { .. } => "link",
            StageAction::LinkFault { .. } => "linkFault",
            StageAction::Crash { .. } => "crash",
            StageAction::Sensor { .. } => "sensor",
        }
    }
}

/// Payload transform of a man-in-the-middle stage.
#[derive(Debug, Clone, PartialEq)]
pub enum TransformSpec {
    /// Forward unmodified (eavesdrop only).
    PassThrough,
    /// Scale Modbus register values by a factor.
    ScaleModbusRegisters(f64),
    /// Overwrite Modbus register values with a constant.
    SetModbusRegisters(u16),
    /// Scale floats inside MMS read responses by a factor.
    ScaleMmsFloats(f32),
    /// Drop intercepted frames (denial of service).
    Drop,
}

/// What a `link` stage does to its link.
#[derive(Debug, Clone, PartialEq)]
pub enum LinkEffect {
    /// Take the link down.
    Down,
    /// Bring the link back up.
    Up,
    /// Set the link's one-way latency, in ms.
    Delay {
        /// New latency in milliseconds.
        latency_ms: u64,
    },
}

/// A scored assertion about range state.
#[derive(Debug, Clone, PartialEq)]
pub struct Objective {
    /// Unique objective id.
    pub id: String,
    /// Points awarded on pass (default 1).
    pub points: u32,
    /// Stage whose *start* anchors the deadline window (`None` = exercise
    /// start). Ignored by [`Check::VoltageBand`].
    pub after: Option<String>,
    /// Deadline: the condition must hold within this many ms of the anchor.
    /// Parsed as `i64` so lint can flag zero/negative values. Ignored by
    /// [`Check::VoltageBand`].
    pub within_ms: i64,
    /// The condition itself.
    pub check: Check,
    /// Source position in the scenario file.
    pub pos: Pos,
}

/// The condition an objective asserts.
#[derive(Debug, Clone, PartialEq)]
pub enum Check {
    /// A named switch (`Substation/Name`) is open.
    BreakerOpen {
        /// Scoped switch name.
        switch: String,
    },
    /// A named switch is closed.
    BreakerClosed {
        /// Scoped switch name.
        switch: String,
    },
    /// The SCADA HMI shows an active alarm on a point.
    ScadaAlarm {
        /// Alarmed point (tag) name.
        point: String,
    },
    /// A named IED's protection has tripped during the exercise.
    IedTrip {
        /// IED name.
        ied: String,
    },
    /// The SCADA HMI *displays* a tag above a threshold (detects deception:
    /// the displayed value, not ground truth).
    TagAbove {
        /// Tag name.
        point: String,
        /// Exclusive threshold.
        value: f64,
    },
    /// The SCADA HMI displays a tag below a threshold.
    TagBelow {
        /// Tag name.
        point: String,
        /// Exclusive threshold.
        value: f64,
    },
    /// Invariant: a bus voltage stays inside a band over a time window.
    VoltageBand {
        /// Connectivity-node path of the bus.
        bus: String,
        /// Lower bound, per-unit (inclusive).
        min_pu: f64,
        /// Upper bound, per-unit (inclusive).
        max_pu: f64,
        /// Window start, ms from exercise start.
        from_ms: u64,
        /// Window end, ms from exercise start (inclusive).
        to_ms: u64,
    },
}

impl Objective {
    /// Human-readable statement of the objective, for reports.
    pub fn describe(&self) -> String {
        let anchor = match &self.after {
            Some(stage) => format!("stage {stage}"),
            None => "exercise start".to_string(),
        };
        match &self.check {
            Check::BreakerOpen { switch } => {
                format!(
                    "breaker {switch} opens within {} ms of {anchor}",
                    self.within_ms
                )
            }
            Check::BreakerClosed { switch } => {
                format!(
                    "breaker {switch} closes within {} ms of {anchor}",
                    self.within_ms
                )
            }
            Check::ScadaAlarm { point } => {
                format!(
                    "SCADA alarm on {point} raised within {} ms of {anchor}",
                    self.within_ms
                )
            }
            Check::IedTrip { ied } => {
                format!(
                    "IED {ied} protection trips within {} ms of {anchor}",
                    self.within_ms
                )
            }
            Check::TagAbove { point, value } => {
                format!(
                    "SCADA displays {point} > {value} within {} ms of {anchor}",
                    self.within_ms
                )
            }
            Check::TagBelow { point, value } => {
                format!(
                    "SCADA displays {point} < {value} within {} ms of {anchor}",
                    self.within_ms
                )
            }
            Check::VoltageBand {
                bus,
                min_pu,
                max_pu,
                from_ms,
                to_ms,
            } => {
                format!(
                    "bus {bus} voltage stays within [{min_pu}, {max_pu}] pu from {from_ms} to {to_ms} ms"
                )
            }
        }
    }
}

impl Scenario {
    /// Parses Exercise Scenario XML.
    ///
    /// # Errors
    ///
    /// Returns [`ScenarioError`] on malformed XML, unknown stage/objective
    /// kinds, missing required attributes, or unparsable addresses.
    /// Dangling references (unknown hosts, stage ids, …) are *not* errors
    /// here: [`check`](crate::check) finds those, for `sgcr-lint` and the
    /// engine alike.
    pub fn parse(text: &str) -> Result<Scenario, ScenarioError> {
        let doc = Document::parse(text).map_err(|e| err(e.to_string()))?;
        let root = doc.root_element();
        if root.name() != "Scenario" {
            return Err(err(format!("expected <Scenario>, found <{}>", root.name())));
        }
        let mut scenario = Scenario {
            name: root.attr_or("name", "unnamed").to_string(),
            description: root.attr_or("description", "").to_string(),
            duration_ms: root
                .attr_parse("durationMs")
                .ok_or_else(|| err("Scenario missing durationMs"))?,
            fault_seed: root.attr_parse("faultSeed"),
            stale_ms: root.attr_parse("staleMs"),
            hosts: Vec::new(),
            adversary: None,
            stages: Vec::new(),
            objectives: Vec::new(),
        };
        for host_el in root.children_named("Host") {
            let name = attr_req(&host_el, "Host", "name")?;
            scenario.hosts.push(AttackerHost {
                ip: addr_req(&host_el, &format!("Host {name:?}"), "ip")?,
                name,
                switch: attr_req(&host_el, "Host", "switch")?,
                pos: Pos::of(&host_el),
            });
        }
        for adv_el in root.children_named("Adversary") {
            if scenario.adversary.is_some() {
                return Err(err("at most one <Adversary> is allowed"));
            }
            scenario.adversary = Some(Adversary {
                goal: attr_req(&adv_el, "Adversary", "goal")?,
                budget: adv_el.attr_parse("budget").unwrap_or(4),
                seed: adv_el.attr_parse("seed").unwrap_or(0),
                pos: Pos::of(&adv_el),
            });
        }
        for stage_el in root.children_named("Stage") {
            scenario.stages.push(parse_stage(&stage_el)?);
        }
        for obj_el in root.children_named("Objective") {
            scenario.objectives.push(parse_objective(&obj_el)?);
        }
        Ok(scenario)
    }
}

fn attr_req(el: &ElementRef<'_>, element: &str, name: &str) -> Result<String, ScenarioError> {
    el.attr(name)
        .map(str::to_string)
        .ok_or_else(|| err(format!("{element} missing {name}")))
}

/// A required IPv4 attribute; `element` names the element in the error.
fn addr_req(el: &ElementRef<'_>, element: &str, name: &str) -> Result<Ipv4Addr, ScenarioError> {
    let raw = attr_req(el, element, name)?;
    raw.parse()
        .map_err(|_| err(format!("{element} has unparsable {name}={raw:?}")))
}

fn parse_stage(el: &ElementRef<'_>) -> Result<Stage, ScenarioError> {
    let id = attr_req(el, "Stage", "id")?;
    let start = match (el.attr("t"), el.attr("after")) {
        (Some(_), Some(_)) => {
            return Err(err(format!("Stage {id:?} has both t= and after=")));
        }
        (None, Some(stage)) => StageStart::After {
            stage: stage.to_string(),
            delay_ms: el.attr_parse("delayMs").unwrap_or(0),
        },
        (t, None) => StageStart::At(match t {
            Some(raw) => raw
                .parse()
                .map_err(|_| err(format!("Stage {id:?} has unparsable t={raw:?}")))?,
            None => 0,
        }),
    };
    let action = match el.attr_or("kind", "") {
        "power" => {
            let target = attr_req(el, "Stage", "target")?;
            let action = match el.attr_or("action", "") {
                "openSwitch" => ScenarioAction::OpenSwitch(target),
                "closeSwitch" => ScenarioAction::CloseSwitch(target),
                "lineOutage" => ScenarioAction::LineOutage(target),
                "lineRestore" => ScenarioAction::LineRestore(target),
                "genLoss" => ScenarioAction::GenLoss(target),
                "genRestore" => ScenarioAction::GenRestore(target),
                "setLoad" => {
                    let value: f64 = el
                        .attr_parse("value")
                        .ok_or_else(|| err(format!("Stage {id:?} setLoad missing value")))?;
                    ScenarioAction::SetLoadP(target, value)
                }
                other => {
                    return Err(err(format!(
                        "Stage {id:?} has unknown power action {other:?}"
                    )))
                }
            };
            StageAction::Power(action)
        }
        "fci" => StageAction::Fci {
            host: attr_req(el, "Stage", "host")?,
            victim: attr_req(el, "Stage", "victim")?,
            item: attr_req(el, "Stage", "item")?,
            value: el.attr_parse("value").unwrap_or(false),
            interrogate: el.attr_parse("interrogate").unwrap_or(true),
        },
        "mitm" => StageAction::Mitm {
            host: attr_req(el, "Stage", "host")?,
            victim_a: attr_req(el, "Stage", "victimA")?,
            victim_b: attr_req(el, "Stage", "victimB")?,
            duration_ms: el.attr_parse("durationMs").unwrap_or(0),
            transform: parse_transform(el, &id)?,
        },
        "scan" => StageAction::Scan {
            host: attr_req(el, "Stage", "host")?,
            first: addr_req(el, &format!("Stage {id:?}"), "first")?,
            last: addr_req(el, &format!("Stage {id:?}"), "last")?,
            ports: el
                .attr_or("ports", "")
                .split(',')
                .filter(|s| !s.is_empty())
                .map(|s| {
                    s.trim()
                        .parse()
                        .map_err(|_| err(format!("Stage {id:?} has unparsable port {s:?}")))
                })
                .collect::<Result<Vec<u16>, _>>()?,
        },
        "link" => {
            let effect = match el.attr_or("action", "") {
                "down" => LinkEffect::Down,
                "up" => LinkEffect::Up,
                "delay" => LinkEffect::Delay {
                    latency_ms: el
                        .attr_parse("latencyMs")
                        .ok_or_else(|| err(format!("Stage {id:?} delay missing latencyMs")))?,
                },
                other => {
                    return Err(err(format!(
                        "Stage {id:?} has unknown link action {other:?}"
                    )))
                }
            };
            StageAction::Link {
                a: attr_req(el, "Stage", "a")?,
                b: attr_req(el, "Stage", "b")?,
                effect,
            }
        }
        "linkFault" => StageAction::LinkFault {
            a: attr_req(el, "Stage", "a")?,
            b: attr_req(el, "Stage", "b")?,
            fault: LinkFault {
                loss: el.attr_parse("loss").unwrap_or(0.0),
                corrupt: el.attr_parse("corrupt").unwrap_or(0.0),
                duplicate: el.attr_parse("duplicate").unwrap_or(0.0),
                jitter_ns: el.attr_parse::<u64>("jitterMs").unwrap_or(0) * 1_000_000,
                flap_period_ns: el.attr_parse::<u64>("flapPeriodMs").unwrap_or(0) * 1_000_000,
                flap_down_ns: el.attr_parse::<u64>("flapDownMs").unwrap_or(0) * 1_000_000,
            },
        },
        "crash" => StageAction::Crash {
            host: attr_req(el, "Stage", "host")?,
            restart_after_ms: el.attr_parse("restartAfterMs"),
        },
        "sensor" => {
            let fault = match el.attr_or("mode", "") {
                "stuck" => Some(SensorFault::Stuck),
                "drift" => Some(SensorFault::Drift {
                    per_sec: el
                        .attr_parse("perSec")
                        .ok_or_else(|| err(format!("Stage {id:?} drift missing perSec")))?,
                }),
                "clear" => None,
                other => {
                    return Err(err(format!(
                        "Stage {id:?} has unknown sensor mode {other:?}"
                    )))
                }
            };
            StageAction::Sensor {
                ied: attr_req(el, "Stage", "ied")?,
                key: attr_req(el, "Stage", "key")?,
                fault,
            }
        }
        other => return Err(err(format!("Stage {id:?} has unknown kind {other:?}"))),
    };
    Ok(Stage {
        id,
        start,
        action,
        pos: Pos::of(el),
    })
}

fn parse_transform(el: &ElementRef<'_>, id: &str) -> Result<TransformSpec, ScenarioError> {
    Ok(match el.attr_or("transform", "passThrough") {
        "passThrough" => TransformSpec::PassThrough,
        "scaleModbusRegisters" => TransformSpec::ScaleModbusRegisters(
            el.attr_parse("factor")
                .ok_or_else(|| err(format!("Stage {id:?} transform missing factor")))?,
        ),
        "setModbusRegisters" => TransformSpec::SetModbusRegisters(
            el.attr_parse("value")
                .ok_or_else(|| err(format!("Stage {id:?} transform missing value")))?,
        ),
        "scaleMmsFloats" => TransformSpec::ScaleMmsFloats(
            el.attr_parse("factor")
                .ok_or_else(|| err(format!("Stage {id:?} transform missing factor")))?,
        ),
        "drop" => TransformSpec::Drop,
        other => return Err(err(format!("Stage {id:?} has unknown transform {other:?}"))),
    })
}

fn parse_objective(el: &ElementRef<'_>) -> Result<Objective, ScenarioError> {
    let id = attr_req(el, "Objective", "id")?;
    let check = match el.attr_or("kind", "") {
        "breakerOpen" => Check::BreakerOpen {
            switch: attr_req(el, "Objective", "target")?,
        },
        "breakerClosed" => Check::BreakerClosed {
            switch: attr_req(el, "Objective", "target")?,
        },
        "scadaAlarm" => Check::ScadaAlarm {
            point: attr_req(el, "Objective", "point")?,
        },
        "iedTrip" => Check::IedTrip {
            ied: attr_req(el, "Objective", "ied")?,
        },
        "tagAbove" => Check::TagAbove {
            point: attr_req(el, "Objective", "point")?,
            value: el
                .attr_parse("value")
                .ok_or_else(|| err(format!("Objective {id:?} missing value")))?,
        },
        "tagBelow" => Check::TagBelow {
            point: attr_req(el, "Objective", "point")?,
            value: el
                .attr_parse("value")
                .ok_or_else(|| err(format!("Objective {id:?} missing value")))?,
        },
        "voltageBand" => Check::VoltageBand {
            bus: attr_req(el, "Objective", "bus")?,
            min_pu: el
                .attr_parse("min")
                .ok_or_else(|| err(format!("Objective {id:?} missing min")))?,
            max_pu: el
                .attr_parse("max")
                .ok_or_else(|| err(format!("Objective {id:?} missing max")))?,
            from_ms: el.attr_parse("fromMs").unwrap_or(0),
            to_ms: el
                .attr_parse("toMs")
                .ok_or_else(|| err(format!("Objective {id:?} missing toMs")))?,
        },
        other => return Err(err(format!("Objective {id:?} has unknown kind {other:?}"))),
    };
    let within_ms = if matches!(check, Check::VoltageBand { .. }) {
        0
    } else {
        el.attr_parse("withinMs")
            .ok_or_else(|| err(format!("Objective {id:?} missing withinMs")))?
    };
    Ok(Objective {
        id,
        points: el.attr_parse("points").unwrap_or(1),
        after: el.attr("after").map(str::to_string),
        within_ms,
        check,
        pos: Pos::of(el),
    })
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"<Scenario name="demo" description="two-plane demo" durationMs="8000" faultSeed="42" staleMs="1500">
  <Host name="malware-host" ip="10.0.1.66" switch="GenBus"/>
  <Adversary goal="breakerOpen:EPIC/CB_GEN" budget="4" seed="7"/>
  <Stage id="recon" t="500" kind="scan" host="malware-host" first="10.0.1.11" last="10.0.1.14" ports="102,502"/>
  <Stage id="strike" after="recon" delayMs="500" kind="fci" host="malware-host" victim="GIED1" item="GIED1LD0/CSWI1$CO$Pos$Oper$ctlVal" value="false" interrogate="true"/>
  <Stage id="shed" t="3000" kind="power" action="setLoad" target="EPIC/MicroLoad" value="0.2"/>
  <Stage id="lag" t="6000" kind="link" a="SCADA" b="ControlBus" action="delay" latencyMs="20"/>
  <Stage id="spoof" t="4000" kind="mitm" host="malware-host" victimA="SCADA" victimB="TIED1" durationMs="4000" transform="scaleMmsFloats" factor="10"/>
  <Stage id="lossy" t="1000" kind="linkFault" a="SCADA" b="ControlBus" loss="0.3" jitterMs="5" flapPeriodMs="1000" flapDownMs="200"/>
  <Stage id="crash-ied" t="2000" kind="crash" host="GIED1" restartAfterMs="1500"/>
  <Stage id="stuck-ct" t="2500" kind="sensor" ied="GIED1" key="meas/EPIC/branch/GenLine/i_ka" mode="stuck"/>
  <Objective id="gen-open" kind="breakerOpen" target="EPIC/CB_GEN" after="strike" withinMs="1000" points="2"/>
  <Objective id="alarm" kind="scadaAlarm" point="GenProt_trip" withinMs="6000"/>
  <Objective id="band" kind="voltageBand" bus="EPIC/LV/GenBay/CN_GEN" min="0.85" max="1.1" fromMs="0" toMs="2000"/>
  <Objective id="seen" kind="tagAbove" point="MicroFeeder_MW" value="0.05" after="spoof" withinMs="4000"/>
</Scenario>"#;

    #[test]
    fn parse_sample() {
        let s = Scenario::parse(SAMPLE).unwrap();
        assert_eq!(s.name, "demo");
        assert_eq!(s.duration_ms, 8000);
        assert_eq!(s.fault_seed, Some(42));
        assert_eq!(s.stale_ms, Some(1500));
        assert_eq!(s.hosts.len(), 1);
        assert_eq!(
            s.adversary,
            Some(Adversary {
                goal: "breakerOpen:EPIC/CB_GEN".into(),
                budget: 4,
                seed: 7,
                pos: s.adversary.as_ref().map(|a| a.pos).unwrap_or_default(),
            })
        );
        assert!(s.adversary.as_ref().is_some_and(|a| a.pos.line > 0));
        assert_eq!(s.stages.len(), 8);
        assert_eq!(s.objectives.len(), 4);
        assert_eq!(
            s.stages[1].start,
            StageStart::After {
                stage: "recon".into(),
                delay_ms: 500
            }
        );
        assert!(matches!(
            &s.stages[2].action,
            StageAction::Power(ScenarioAction::SetLoadP(t, v)) if t == "EPIC/MicroLoad" && *v == 0.2
        ));
        assert_eq!(s.objectives[0].points, 2);
        assert_eq!(s.objectives[1].after, None);
        assert_eq!(
            s.stages[5].action,
            StageAction::LinkFault {
                a: "SCADA".into(),
                b: "ControlBus".into(),
                fault: LinkFault {
                    loss: 0.3,
                    jitter_ns: 5_000_000,
                    flap_period_ns: 1_000_000_000,
                    flap_down_ns: 200_000_000,
                    ..LinkFault::default()
                },
            }
        );
        assert_eq!(
            s.stages[6].action,
            StageAction::Crash {
                host: "GIED1".into(),
                restart_after_ms: Some(1500),
            }
        );
        assert_eq!(
            s.stages[7].action,
            StageAction::Sensor {
                ied: "GIED1".into(),
                key: "meas/EPIC/branch/GenLine/i_ka".into(),
                fault: Some(SensorFault::Stuck),
            }
        );
        // Positions recorded for lint spans.
        assert!(s.stages[0].pos.line > 0);
        assert!(s.objectives[0].pos.line > 0);
    }

    #[test]
    fn errors() {
        assert!(Scenario::parse("<Nope/>").is_err());
        assert!(Scenario::parse(
            r#"<Scenario durationMs="1"><Stage id="x" kind="teleport"/></Scenario>"#
        )
        .is_err());
        assert!(Scenario::parse(r#"<Scenario durationMs="1"><Stage id="x" t="1" after="y" kind="power" action="openSwitch" target="S/CB"/></Scenario>"#).is_err());
        assert!(Scenario::parse(r#"<Scenario durationMs="1"><Objective id="o" kind="breakerOpen" target="S/CB"/></Scenario>"#).is_err());
        assert!(Scenario::parse(
            r#"<Scenario durationMs="1"><Stage id="x" kind="sensor" ied="A" key="k" mode="melt"/></Scenario>"#
        )
        .is_err());
        assert!(Scenario::parse(
            r#"<Scenario durationMs="1"><Stage id="x" kind="sensor" ied="A" key="k" mode="drift"/></Scenario>"#
        )
        .is_err());
        assert!(Scenario::parse(
            r#"<Scenario><Stage id="x" kind="power" action="openSwitch" target="S/CB"/></Scenario>"#
        )
        .is_err());
        // <Adversary> needs a goal, and only one declaration is allowed.
        assert!(
            Scenario::parse(r#"<Scenario durationMs="1"><Adversary budget="4"/></Scenario>"#)
                .is_err()
        );
        assert!(Scenario::parse(
            r#"<Scenario durationMs="1"><Adversary goal="a:b"/><Adversary goal="c:d"/></Scenario>"#
        )
        .is_err());
    }

    #[test]
    fn unparsable_addresses_name_their_element() {
        let host = Scenario::parse(
            r#"<Scenario durationMs="1"><Host name="box" ip="10.0.1.666" switch="GenBus"/></Scenario>"#,
        )
        .unwrap_err();
        assert_eq!(host.message, r#"Host "box" has unparsable ip="10.0.1.666""#);
        let scan = Scenario::parse(
            r#"<Scenario durationMs="1"><Stage id="sweep" kind="scan" host="h" first="10.0.1.1" last="ten"/></Scenario>"#,
        )
        .unwrap_err();
        assert_eq!(scan.message, r#"Stage "sweep" has unparsable last="ten""#);
    }

    #[test]
    fn describe_is_human_readable() {
        let s = Scenario::parse(SAMPLE).unwrap();
        assert_eq!(
            s.objectives[0].describe(),
            "breaker EPIC/CB_GEN opens within 1000 ms of stage strike"
        );
        assert_eq!(
            s.objectives[2].describe(),
            "bus EPIC/LV/GenBay/CN_GEN voltage stays within [0.85, 1.1] pu from 0 to 2000 ms"
        );
    }
}
