//! The event journal: a bounded ring buffer of typed simulation events.
//!
//! Unlike the metric registry (aggregates), the journal keeps *individual*
//! occurrences — which packet was dropped, which relay tripped when — so an
//! experiment can be reconstructed after the fact. The buffer is bounded:
//! when full, the oldest records are evicted and counted in
//! [`crate::Telemetry::events_dropped`].
//!
//! A record is a 24-byte slot: its time and either one of the hot events
//! (`PacketSent`, `PacketDelivered`, `GooseSent`, `SolveCompleted`) inline,
//! which allocates nothing, or any other event boxed. Sequence numbers are
//! not stored: every record ever journaled is either retained or evicted,
//! so the first retained record's `seq` is the evicted count.

use crate::json::Members;
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::fmt::{self, Write as _};
use std::ops::Deref;
use std::sync::Arc;

/// An immutable name of a range element, allocated once when the tenant
/// builds what it names. A clone shares the text and bumps a count, so an
/// event that carries a name allocates nothing; the handle is one pointer
/// wide, which keeps a journal slot at 24 bytes. It hashes and compares as
/// its text, so a map keyed by `Name` is looked up with a `&str`.
///
/// # Examples
///
/// ```
/// use sgcr_obs::Name;
///
/// let name = Name::from("TIED2");
/// let shared = name.clone(); // the same text, one more count
/// assert!(&shared == "TIED2");
/// assert_eq!(shared.len(), 5); // reads as a `&str`
/// assert_eq!(format!("{name} {shared:?}"), "TIED2 \"TIED2\"");
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Name(Arc<String>);

impl Deref for Name {
    type Target = str;

    fn deref(&self) -> &str {
        &self.0
    }
}

impl std::borrow::Borrow<str> for Name {
    fn borrow(&self) -> &str {
        &self.0
    }
}

impl From<&str> for Name {
    fn from(name: &str) -> Name {
        Name(Arc::new(name.to_owned()))
    }
}

impl From<String> for Name {
    fn from(name: String) -> Name {
        Name(Arc::new(name))
    }
}

impl PartialEq<str> for Name {
    fn eq(&self, other: &str) -> bool {
        self.0.as_str() == other
    }
}

impl fmt::Display for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self.0.as_str(), f)
    }
}

impl fmt::Debug for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.0.as_str(), f)
    }
}

/// A typed simulation event.
///
/// Text fields follow one rule: a field that names a host or an IED of the
/// range (`host`, `ied`) is a [`Name`], which the producer holds for the
/// tenant's life and clones into each event; every other text field is a
/// `String`, whether it is built per event (`detail`, `message`, `reason`)
/// or names something else (a point, a tag, a stage).
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// A host handed a frame to its link.
    PacketSent {
        /// Sending host name.
        host: Name,
        /// Frame length on the wire, in bytes.
        bytes: u64,
    },
    /// A frame arrived at the host it was addressed to.
    PacketDelivered {
        /// Receiving host name.
        host: Name,
        /// Frame length on the wire, in bytes.
        bytes: u64,
    },
    /// A frame was discarded before delivery.
    PacketDropped {
        /// Host that attempted the send.
        host: Name,
        /// Frame length on the wire, in bytes.
        bytes: u64,
        /// Why it was dropped (`link-down`, `no-link`).
        reason: String,
    },
    /// A power-flow solve finished successfully.
    SolveCompleted {
        /// Newton–Raphson iterations used.
        iters: u64,
        /// Wall-clock solve time in seconds.
        seconds: f64,
    },
    /// A power-flow solve failed; the range keeps running on stale state.
    SolveFailed {
        /// The solver error text.
        detail: String,
    },
    /// A protection element operated and tripped its breaker.
    ProtectionTrip {
        /// The IED that tripped.
        ied: Name,
        /// LN and breaker detail.
        detail: String,
    },
    /// An MMS control was executed by an IED.
    ControlExecuted {
        /// The IED executing the control.
        ied: Name,
        /// Command detail.
        detail: String,
    },
    /// An MMS control was rejected (e.g. interlock).
    ControlRejected {
        /// The IED rejecting the control.
        ied: Name,
        /// Rejection detail.
        detail: String,
    },
    /// An IED published a GOOSE message.
    GooseSent {
        /// The publishing IED.
        ied: Name,
    },
    /// The SCADA HMI raised an alarm.
    ScadaAlarm {
        /// The alarmed point.
        point: String,
        /// Alarm message.
        message: String,
    },
    /// The SCADA HMI cleared an alarm.
    ScadaAlarmCleared {
        /// The cleared point.
        point: String,
        /// Alarm message.
        message: String,
    },
    /// An operator command left the SCADA HMI.
    ScadaCommand {
        /// Target tag.
        tag: String,
        /// Commanded value.
        value: f64,
    },
    /// A PLC issued an MMS control towards an IED.
    PlcControl {
        /// The PLC variable that changed.
        variable: String,
        /// The commanded boolean.
        value: bool,
    },
    /// A co-simulation step took longer than its real-time budget.
    StepOverrun {
        /// Step ordinal.
        step: u64,
        /// Wall time over interval (1.0 = exactly on budget).
        ratio: f64,
    },
    /// An exercise scenario stage began executing.
    StageStarted {
        /// Stage id from the scenario file.
        stage: String,
    },
    /// An exercise scenario stage finished executing.
    StageEnded {
        /// Stage id from the scenario file.
        stage: String,
    },
    /// An exercise objective was resolved (pass or fail).
    ObjectiveResolved {
        /// Objective id from the scenario file.
        objective: String,
        /// Whether the objective passed.
        passed: bool,
    },
    /// The adversary planner produced a campaign for a declared goal.
    AdversaryPlanned {
        /// The declared goal (`breakerOpen:EPIC/CB_GEN`).
        goal: String,
        /// The planner seed.
        seed: u64,
        /// Number of campaign stages planned.
        stages: u64,
    },
    /// A planner-emitted campaign stage began executing.
    AdversaryActionStarted {
        /// Planned stage id (`adv-scan`, `adv-mitm`, `adv-strike`).
        stage: String,
    },
    /// The adversary's goal objective passed — the campaign reached its
    /// declared goal.
    AdversaryGoalReached {
        /// The goal objective's id.
        objective: String,
    },
    /// A fault was injected (or cleared) on a range element.
    FaultInjected {
        /// The link, host, or IED the fault applies to.
        target: String,
        /// Human description of the fault profile (`loss=30% jitter<=5ms`,
        /// `stuck`, `clear`, …).
        detail: String,
    },
    /// A simulated device (IED/PLC host) crashed and went silent.
    DeviceCrashed {
        /// The crashed host.
        host: Name,
    },
    /// A crashed device came back after its restart delay.
    DeviceRestarted {
        /// The restarted host.
        host: Name,
    },
    /// The power flow failed to converge; the range is serving the
    /// last-good solution and has flipped measurement quality to invalid.
    MeasurementsHeld {
        /// The solver error that triggered the hold.
        detail: String,
    },
    /// The power flow converged again after one or more held steps;
    /// measurement quality is good again.
    MeasurementsRecovered {
        /// How many consecutive steps served the held solution.
        held_steps: u64,
    },
    /// A SCADA tag stopped updating within the stale window; its quality
    /// degraded to `old`.
    TagStale {
        /// The stale tag.
        tag: String,
        /// Milliseconds since the last update when staleness was declared.
        age_ms: u64,
    },
    /// A GOOSE subscription's time-allowed-to-live expired; the subscriber
    /// stopped trusting the last frame.
    GooseExpired {
        /// The subscribing IED.
        ied: Name,
        /// The silent publisher.
        publisher: String,
    },
    /// A range farm began a batch run.
    FarmStarted {
        /// Tenants requested.
        tenants: u64,
        /// Worker threads in the pool.
        threads: u64,
        /// Simulated seconds each tenant will run.
        sim_seconds: u64,
    },
    /// A range farm finished its batch run.
    FarmFinished {
        /// Tenants that completed their full simulation.
        tenants_completed: u64,
        /// Tenants halted early by the step-budget overrun limit.
        tenants_halted: u64,
        /// Tenants that failed outright.
        tenants_failed: u64,
    },
    /// The farm supervisor captured a mid-run checkpoint of a tenant.
    TenantCheckpointed {
        /// The checkpointed tenant's index.
        tenant: u64,
        /// Co-simulation steps the tenant had executed at capture.
        steps: u64,
    },
    /// The farm supervisor restarted a halted/crashed tenant from its last
    /// checkpoint.
    TenantRestarted {
        /// The restarted tenant's index.
        tenant: u64,
        /// Restart count for this tenant, including this one.
        restarts: u64,
        /// Steps recovered from the checkpoint (0: restarted from scratch).
        from_steps: u64,
    },
    /// The farm supervisor's circuit breaker opened: the tenant exhausted
    /// its restart budget and will not be retried.
    TenantGivenUp {
        /// The abandoned tenant's index.
        tenant: u64,
        /// How many restarts were attempted before giving up.
        restarts: u64,
    },
    /// An event from outside the built-in instrumentation.
    Custom {
        /// Event name.
        name: String,
        /// Free-form detail.
        detail: String,
    },
}

impl Event {
    /// The event's type tag, as emitted in the JSON journal.
    pub fn kind(&self) -> &'static str {
        match self {
            Event::PacketSent { .. } => "PacketSent",
            Event::PacketDelivered { .. } => "PacketDelivered",
            Event::PacketDropped { .. } => "PacketDropped",
            Event::SolveCompleted { .. } => "SolveCompleted",
            Event::SolveFailed { .. } => "SolveFailed",
            Event::ProtectionTrip { .. } => "ProtectionTrip",
            Event::ControlExecuted { .. } => "ControlExecuted",
            Event::ControlRejected { .. } => "ControlRejected",
            Event::GooseSent { .. } => "GooseSent",
            Event::ScadaAlarm { .. } => "ScadaAlarm",
            Event::ScadaAlarmCleared { .. } => "ScadaAlarmCleared",
            Event::ScadaCommand { .. } => "ScadaCommand",
            Event::PlcControl { .. } => "PlcControl",
            Event::StepOverrun { .. } => "StepOverrun",
            Event::StageStarted { .. } => "StageStarted",
            Event::StageEnded { .. } => "StageEnded",
            Event::ObjectiveResolved { .. } => "ObjectiveResolved",
            Event::AdversaryPlanned { .. } => "AdversaryPlanned",
            Event::AdversaryActionStarted { .. } => "AdversaryActionStarted",
            Event::AdversaryGoalReached { .. } => "AdversaryGoalReached",
            Event::FaultInjected { .. } => "FaultInjected",
            Event::DeviceCrashed { .. } => "DeviceCrashed",
            Event::DeviceRestarted { .. } => "DeviceRestarted",
            Event::MeasurementsHeld { .. } => "MeasurementsHeld",
            Event::MeasurementsRecovered { .. } => "MeasurementsRecovered",
            Event::TagStale { .. } => "TagStale",
            Event::GooseExpired { .. } => "GooseExpired",
            Event::FarmStarted { .. } => "FarmStarted",
            Event::FarmFinished { .. } => "FarmFinished",
            Event::TenantCheckpointed { .. } => "TenantCheckpointed",
            Event::TenantRestarted { .. } => "TenantRestarted",
            Event::TenantGivenUp { .. } => "TenantGivenUp",
            Event::Custom { .. } => "Custom",
        }
    }
}

/// One journal entry: an [`Event`] stamped with simulation time and a
/// monotonic sequence number.
#[derive(Debug, Clone, PartialEq)]
pub struct EventRecord {
    /// Sequence number (monotonic across the journal's lifetime, including
    /// evicted records).
    pub seq: u64,
    /// Simulation time in nanoseconds.
    pub t_ns: u64,
    /// The event.
    pub event: Event,
}

impl EventRecord {
    /// Serializes the record as one JSON object: its line of
    /// [`crate::Telemetry::journal_jsonl`], without the newline.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        write_record(&mut out, self.seq, self.t_ns, self.event.kind(), |m| {
            self.event.write_members(m);
        });
        out
    }
}

/// Appends one record as a JSON object, `seq`, `t_ns` and `type` first,
/// then the event's members: the journal's one writer.
fn write_record(
    out: &mut String,
    seq: u64,
    t_ns: u64,
    kind: &str,
    members: impl FnOnce(&mut Members<'_>),
) {
    let _ = write!(out, "{{\"seq\":{seq},\"t_ns\":{t_ns},\"type\":\"{kind}\"");
    members(&mut Members(out));
    out.push('}');
}

impl Members<'_> {
    // The members of the events a slot can hold inline, written one way for
    // both forms.

    fn packet(&mut self, host: &str, bytes: u64) -> &mut Self {
        self.text("host", host).int("bytes", bytes)
    }

    fn solve(&mut self, iters: u64, seconds: f64) -> &mut Self {
        self.int("iters", iters).float("seconds", seconds)
    }
}

impl Event {
    /// Writes the event's own members (everything after `type`).
    fn write_members(&self, m: &mut Members<'_>) {
        match self {
            Event::PacketSent { host, bytes } | Event::PacketDelivered { host, bytes } => {
                m.packet(host, *bytes);
            }
            Event::PacketDropped {
                host,
                bytes,
                reason,
            } => {
                m.packet(host, *bytes).text("reason", reason);
            }
            Event::SolveCompleted { iters, seconds } => {
                m.solve(*iters, *seconds);
            }
            Event::SolveFailed { detail } | Event::MeasurementsHeld { detail } => {
                m.text("detail", detail);
            }
            Event::ProtectionTrip { ied, detail }
            | Event::ControlExecuted { ied, detail }
            | Event::ControlRejected { ied, detail } => {
                m.text("ied", ied).text("detail", detail);
            }
            Event::GooseSent { ied } => {
                m.text("ied", ied);
            }
            Event::ScadaAlarm { point, message } | Event::ScadaAlarmCleared { point, message } => {
                m.text("point", point).text("message", message);
            }
            Event::ScadaCommand { tag, value } => {
                m.text("tag", tag).float("value", *value);
            }
            Event::PlcControl { variable, value } => {
                m.text("variable", variable).flag("value", *value);
            }
            Event::StepOverrun { step, ratio } => {
                m.int("step", *step).float("ratio", *ratio);
            }
            Event::StageStarted { stage }
            | Event::StageEnded { stage }
            | Event::AdversaryActionStarted { stage } => {
                m.text("stage", stage);
            }
            Event::ObjectiveResolved { objective, passed } => {
                m.text("objective", objective).flag("passed", *passed);
            }
            Event::AdversaryPlanned { goal, seed, stages } => {
                m.text("goal", goal)
                    .int("seed", *seed)
                    .int("stages", *stages);
            }
            Event::AdversaryGoalReached { objective } => {
                m.text("objective", objective);
            }
            Event::FaultInjected { target, detail } => {
                m.text("target", target).text("detail", detail);
            }
            Event::DeviceCrashed { host } | Event::DeviceRestarted { host } => {
                m.text("host", host);
            }
            Event::MeasurementsRecovered { held_steps } => {
                m.int("held_steps", *held_steps);
            }
            Event::TagStale { tag, age_ms } => {
                m.text("tag", tag).int("age_ms", *age_ms);
            }
            Event::GooseExpired { ied, publisher } => {
                m.text("ied", ied).text("publisher", publisher);
            }
            Event::FarmStarted {
                tenants,
                threads,
                sim_seconds,
            } => {
                m.int("tenants", *tenants)
                    .int("threads", *threads)
                    .int("sim_seconds", *sim_seconds);
            }
            Event::FarmFinished {
                tenants_completed,
                tenants_halted,
                tenants_failed,
            } => {
                m.int("tenants_completed", *tenants_completed)
                    .int("tenants_halted", *tenants_halted)
                    .int("tenants_failed", *tenants_failed);
            }
            Event::TenantCheckpointed { tenant, steps } => {
                m.int("tenant", *tenant).int("steps", *steps);
            }
            Event::TenantRestarted {
                tenant,
                restarts,
                from_steps,
            } => {
                m.int("tenant", *tenant)
                    .int("restarts", *restarts)
                    .int("from_steps", *from_steps);
            }
            Event::TenantGivenUp { tenant, restarts } => {
                m.int("tenant", *tenant).int("restarts", *restarts);
            }
            Event::Custom { name, detail } => {
                m.text("name", name).text("detail", detail);
            }
        }
    }
}

/// One journaled record: its time and its event, inline when it is one of
/// the hot events and its count fits a `u32`, boxed otherwise.
#[derive(Debug)]
struct Slot {
    t_ns: u64,
    body: Body,
}

#[derive(Debug)]
enum Body {
    PacketSent { host: Name, bytes: u32 },
    PacketDelivered { host: Name, bytes: u32 },
    GooseSent { ied: Name },
    SolveCompleted { iters: u32, seconds: f64 },
    Boxed(Box<Event>),
}

/// What bounds the journal's memory: 24 bytes per record of capacity, plus
/// the boxes of the rare events.
const _: () = assert!(std::mem::size_of::<Slot>() == 24);

impl Slot {
    fn new(t_ns: u64, event: Event) -> Slot {
        const INLINE_MAX: u64 = u32::MAX as u64;
        let body = match event {
            Event::PacketSent { host, bytes } if bytes <= INLINE_MAX => Body::PacketSent {
                host,
                bytes: bytes as u32,
            },
            Event::PacketDelivered { host, bytes } if bytes <= INLINE_MAX => {
                Body::PacketDelivered {
                    host,
                    bytes: bytes as u32,
                }
            }
            Event::GooseSent { ied } => Body::GooseSent { ied },
            Event::SolveCompleted { iters, seconds } if iters <= INLINE_MAX => {
                Body::SolveCompleted {
                    iters: iters as u32,
                    seconds,
                }
            }
            event => Body::Boxed(Box::new(event)),
        };
        Slot { t_ns, body }
    }

    fn event(&self) -> Event {
        match &self.body {
            Body::PacketSent { host, bytes } => Event::PacketSent {
                host: host.clone(),
                bytes: u64::from(*bytes),
            },
            Body::PacketDelivered { host, bytes } => Event::PacketDelivered {
                host: host.clone(),
                bytes: u64::from(*bytes),
            },
            Body::GooseSent { ied } => Event::GooseSent { ied: ied.clone() },
            Body::SolveCompleted { iters, seconds } => Event::SolveCompleted {
                iters: u64::from(*iters),
                seconds: *seconds,
            },
            Body::Boxed(event) => (**event).clone(),
        }
    }

    fn kind(&self) -> &'static str {
        match &self.body {
            Body::PacketSent { .. } => "PacketSent",
            Body::PacketDelivered { .. } => "PacketDelivered",
            Body::GooseSent { .. } => "GooseSent",
            Body::SolveCompleted { .. } => "SolveCompleted",
            Body::Boxed(event) => event.kind(),
        }
    }

    fn write_members(&self, m: &mut Members<'_>) {
        match &self.body {
            Body::PacketSent { host, bytes } | Body::PacketDelivered { host, bytes } => {
                m.packet(host, u64::from(*bytes));
            }
            Body::GooseSent { ied } => {
                m.text("ied", ied);
            }
            Body::SolveCompleted { iters, seconds } => {
                m.solve(u64::from(*iters), *seconds);
            }
            Body::Boxed(event) => event.write_members(m),
        }
    }
}

/// Bytes to reserve per record when sizing the JSON Lines export: an EPIC
/// journal averages 81 bytes a line, and the margin covers longer names and
/// larger numbers so the buffer is sized once.
const JSONL_BYTES_PER_RECORD: usize = 96;

#[derive(Debug, Default)]
struct JournalState {
    slots: VecDeque<Slot>,
    /// Records ever journaled: the next record's `seq`.
    next_seq: u64,
}

impl JournalState {
    /// The evicted count, which is also the first retained record's `seq`.
    fn evicted(&self) -> u64 {
        self.next_seq - self.slots.len() as u64
    }
}

/// The bounded ring buffer behind an enabled [`crate::Telemetry`].
#[derive(Debug)]
pub(crate) struct Journal {
    capacity: usize,
    state: Mutex<JournalState>,
}

impl Journal {
    pub(crate) fn new(capacity: usize) -> Journal {
        Journal {
            capacity: capacity.max(1),
            state: Mutex::new(JournalState::default()),
        }
    }

    pub(crate) fn push(&self, t_ns: u64, event: Event) {
        let slot = Slot::new(t_ns, event);
        let mut state = self.state.lock();
        state.next_seq += 1;
        if state.slots.len() == self.capacity {
            state.slots.pop_front();
        }
        state.slots.push_back(slot);
    }

    pub(crate) fn records(&self) -> Vec<EventRecord> {
        let state = self.state.lock();
        (state.evicted()..)
            .zip(&state.slots)
            .map(|(seq, slot)| EventRecord {
                seq,
                t_ns: slot.t_ns,
                event: slot.event(),
            })
            .collect()
    }

    pub(crate) fn jsonl(&self) -> String {
        let state = self.state.lock();
        let mut out = String::with_capacity(state.slots.len() * JSONL_BYTES_PER_RECORD);
        for (seq, slot) in (state.evicted()..).zip(&state.slots) {
            write_record(&mut out, seq, slot.t_ns, slot.kind(), |m| {
                slot.write_members(m);
            });
            out.push('\n');
        }
        out
    }

    pub(crate) fn dropped(&self) -> u64 {
        self.state.lock().evicted()
    }
}
