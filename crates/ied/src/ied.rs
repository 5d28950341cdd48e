//! The virtual IED application: process sampling, protection, GOOSE/R-SV
//! exchange, and an MMS server — one `SocketApp` per emulated IED host.

use crate::protection::{
    DifferentialRelay, Interlock, OvercurrentCurve, OvercurrentRelay, RelayEvent, VoltageRelay,
};
use crate::spec::{BreakerMap, GooseEntry, IedSpec, ProtectionSpec};
use parking_lot::Mutex;
use sgcr_faults::{DegradationSignal, SensorFault};
use sgcr_iec61850::{
    ControlDecision, DataModel, DataValue, GooseConfig, GoosePdu, GoosePublisher, GooseSubscriber,
    LeafId, MmsServer, MmsServerApp, ObjectRef, SessionPacket, SessionPayloadType, SessionReceiver,
    SessionSender, SharedModel, SvPdu, SvPublisher, SvSubscriber, RGOOSE_PORT,
};
use sgcr_kvstore::{ProcessStore, Slot, Value};
use sgcr_net::{ethertype, AppPlane, ConnId, EthernetFrame, HostCtx, Ipv4Addr, SimTime, SocketApp};
use sgcr_obs::{Counter, Event as ObsEvent, Name, Plane, Telemetry, TimeNs, TraceCtx};
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::task::Waker;

/// Kinds of events recorded by a virtual IED.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IedEventKind {
    /// A protection element picked up (started timing).
    ProtectionPickup,
    /// A protection element operated and tripped its breaker.
    ProtectionTrip,
    /// A protection element dropped out before operating.
    ProtectionDropout,
    /// An MMS control was executed.
    ControlExecuted,
    /// An MMS control was rejected (interlock).
    ControlRejected,
}

/// One event in the IED's sequence-of-events record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IedEvent {
    /// Simulation time in milliseconds.
    pub time_ms: u64,
    /// Event kind.
    pub kind: IedEventKind,
    /// Human-readable detail (LN, breaker, value).
    pub detail: String,
}

/// The live state of one injected sensor fault.
#[derive(Debug, Clone, Copy)]
struct SensorOverride {
    fault: SensorFault,
    /// Simulation time (ms) the fault engaged; drift accrues from here.
    engaged_ms: u64,
    /// For [`SensorFault::Stuck`]: the value captured at the first faulted
    /// sample, repeated forever after.
    held: Option<f64>,
}

/// The sensor faults engaged on an IED and the waker of its sample tick,
/// shared by the app and its handle.
#[derive(Default)]
struct Sensors {
    /// Engaged faults by process-store key.
    faults: HashMap<String, SensorOverride>,
    /// The waker of the IED's sample tick, once the app has started.
    tick: Option<Waker>,
}

impl Sensors {
    fn wake(&self) {
        if let Some(tick) = &self.tick {
            tick.wake_by_ref();
        }
    }
}

/// Observable handle to a running virtual IED (shared with the experiment
/// harness and SCADA-side assertions).
#[derive(Clone)]
pub struct IedHandle {
    /// The IED's live data model.
    pub model: SharedModel,
    ied: Arc<IedModel>,
    events: Arc<Mutex<Vec<IedEvent>>>,
    sensors: Arc<Mutex<Sensors>>,
    degradation: DegradationSignal,
    full_samples: Arc<AtomicU64>,
}

impl IedHandle {
    /// Snapshot of the sequence-of-events record.
    pub fn events(&self) -> Vec<IedEvent> {
        self.events.lock().clone()
    }

    /// Injects a sensor fault on the process value stored under `key` — a
    /// measurement's process-store key or a relay's input key
    /// ([`IedSpec::sampled_keys`]) — and wakes the IED. The fault engages at
    /// the next sample; the IED itself cannot tell — a stuck transducer
    /// reports quality `good` — which is exactly what makes the fault
    /// dangerous. Returns `false`, and changes nothing, when the IED samples
    /// no value under `key`.
    pub fn set_sensor_fault(&self, key: &str, fault: SensorFault, now_ms: u64) -> bool {
        if !self.ied.spec.sampled_keys().any(|k| k == key) {
            return false;
        }
        let mut sensors = self.sensors.lock();
        let engaged = SensorOverride {
            fault,
            engaged_ms: now_ms,
            held: None,
        };
        sensors.faults.insert(key.to_string(), engaged);
        sensors.wake();
        true
    }

    /// Removes a sensor fault and wakes the IED; returns `false` if none
    /// was set on `key`.
    pub fn clear_sensor_fault(&self, key: &str) -> bool {
        let mut sensors = self.sensors.lock();
        let cleared = sensors.faults.remove(key).is_some();
        if cleared {
            sensors.wake();
        }
        cleared
    }

    /// The degradation signal this IED watches: raising it flips the
    /// quality of every published measurement to `invalid` at the next
    /// sample. In a range it is the range's one signal, which every IED and
    /// the SCADA HMI share; a standalone IED has its own.
    pub fn degradation(&self) -> DegradationSignal {
        self.degradation.clone()
    }

    /// How many samples ran in full: the rest found no input changed since
    /// the last full one and rewrote nothing (see [`VirtualIedApp`]).
    pub fn full_samples(&self) -> u64 {
        self.full_samples.load(Ordering::Relaxed)
    }

    /// Number of protection trips recorded.
    pub fn trip_count(&self) -> usize {
        self.events
            .lock()
            .iter()
            .filter(|e| e.kind == IedEventKind::ProtectionTrip)
            .count()
    }

    /// Events of a given kind.
    pub fn events_of(&self, kind: IedEventKind) -> Vec<IedEvent> {
        self.events
            .lock()
            .iter()
            .filter(|e| e.kind == kind)
            .cloned()
            .collect()
    }
}

/// A protection element's relay.
enum Relay {
    Overcurrent(OvercurrentRelay),
    Voltage(VoltageRelay),
    Differential(DifferentialRelay),
}

impl Relay {
    fn has_operated(&self) -> bool {
        match self {
            Relay::Overcurrent(r) => r.has_operated(),
            Relay::Voltage(r) => r.has_operated(),
            Relay::Differential(r) => r.has_operated(),
        }
    }

    /// Whether the element is picked up and has not operated yet: its next
    /// step may operate on an unchanged value.
    fn is_timing(&self) -> bool {
        let picked_up = match self {
            Relay::Overcurrent(r) => r.is_picked_up(),
            Relay::Voltage(r) => r.is_picked_up(),
            Relay::Differential(r) => r.is_picked_up(),
        };
        picked_up && !self.has_operated()
    }

    /// Steps the element on one sampled value (an overcurrent element sees
    /// its magnitude).
    fn step(&mut self, now: SimTime, value: f64) -> Option<RelayEvent> {
        match self {
            Relay::Overcurrent(r) => r.step(now, value.abs()),
            Relay::Voltage(r) => r.step(now, value),
            Relay::Differential(r) => r.step(now, value),
        }
    }

    /// The sequence-of-events text of a pickup at `value`.
    fn pickup_detail(&self, ln: &str, value: f64) -> String {
        match self {
            Relay::Overcurrent(_) => format!("{ln} pickup at {value:.3}"),
            Relay::Voltage(_) => format!("{ln} pickup at {value:.3} pu"),
            Relay::Differential(_) => format!("{ln} differential pickup"),
        }
    }
}

/// The live state of one protection function, parallel to
/// [`IedSpec::protections`].
enum Function {
    /// A relay sampling one process value: the spec's input key, whose slot
    /// the IED model holds.
    Relay(Relay),
    /// An interlock on remote breaker states received over (R-)GOOSE.
    Cilo(Interlock),
}

impl Function {
    fn has_operated(&self) -> bool {
        match self {
            Function::Relay(relay) => relay.has_operated(),
            Function::Cilo(_) => false,
        }
    }

    fn is_timing(&self) -> bool {
        match self {
            Function::Relay(relay) => relay.is_timing(),
            Function::Cilo(_) => false,
        }
    }
}

/// Where one entry of the IED's own GOOSE dataset comes from.
#[derive(Debug)]
enum GooseSource {
    /// A breaker's position (index into [`IedSpec::breakers`]), or `None`
    /// for a breaker the IED does not map (always published open).
    Breaker(Option<usize>),
    /// Whether any of these protection functions has operated.
    Protection(Vec<usize>),
}

/// The index of the first breaker named `name`: the one every lookup by
/// name resolves to.
fn breaker_named(breakers: &[BreakerMap], name: &str) -> Option<usize> {
    breakers.iter().position(|b| b.name == name)
}

/// The virtual IED application.
///
/// Built from an [`IedModel`]: [`VirtualIedApp::instantiate`] gives the app
/// its own copy of the model's leaf values and shares everything else;
/// [`VirtualIedApp::new`] builds the model from a spec first. Attach the app
/// to an emulated host. The returned [`IedHandle`] exposes the live data
/// model and the sequence-of-events record.
///
/// The IED samples on its host's tick ([`HostCtx::arm_tick`]), one per
/// sample period. A sample opens the `ied.sample` span and runs GOOSE
/// supervision. It then takes a full sample — store → data model, the
/// protection scan, GOOSE and R-SV publication — unless all of these hold,
/// in which case a full sample would change nothing and is skipped:
///
/// - it has taken a full sample before, and none of its input slots
///   (measurements, breaker states, relay inputs, the R-SV current, all
///   resolved by the model) was written since that sample began
///   ([`ProcessStore::written_since`]);
/// - no relay is timing;
/// - since that sample no GOOSE or R-SV receipt reached an interlock or a
///   differential element, and no GOOSE stream newly expired;
/// - no sensor fault is engaged, and none was at that sample;
/// - the degradation signal did not flip;
/// - the IED publishes no R-SV, and no leaf the sample rewrites is one an
///   MMS client may write ([`ObjectRef::client_writable`]).
///
/// A full sample arms the next tick. A skipped one arms it too while the
/// IED subscribes to a GOOSE stream, because TAL supervision runs on time;
/// otherwise the IED parks its tick ([`HostCtx::park_tick`]) and samples
/// again only when something it reads changes. These wake it, at the first
/// instant of its sample grid after the change:
///
/// - a write to one of its input slots, from any writer
///   ([`ProcessStore::watch`]);
/// - [`IedHandle::set_sensor_fault`] and [`IedHandle::clear_sensor_fault`];
/// - a flip of its degradation signal ([`DegradationSignal::watch`]);
/// - a crash of its host, which arms the tick so it is deferred as before.
///
/// An IED that never skips (R-SV, a client-writable leaf, a timing relay,
/// an engaged sensor fault) never parks. A wake runs the same sample, so
/// one that finds nothing changed costs one skipped sample and parks
/// again. Frames, journal, events and data models are the same as if every
/// sample ran in full; only the spans of parked ticks are missing.
/// [`IedHandle::full_samples`] counts the full samples.
pub struct VirtualIedApp {
    /// The IED this app runs: its spec, leaf handles and item ids, shared
    /// with every app built from the same model.
    ied: Arc<IedModel>,
    /// The IED's name for its journal events: this tenant's own, so no
    /// reference count is shared with apps of the same model elsewhere.
    name: Name,
    store: ProcessStore,
    mms: MmsServerApp,
    model: SharedModel,
    /// Indexed like [`IedSpec::protections`].
    protections: Vec<Function>,
    goose_pub: Option<GoosePublisher>,
    goose_subs: Vec<GooseSubscriber>,
    rsv_pub: Option<SvPublisher>,
    rsv_sub: Option<SvSubscriber>,
    session_tx: SessionSender,
    session_rx: HashMap<Ipv4Addr, SessionReceiver>,
    events: Arc<Mutex<Vec<IedEvent>>>,
    /// Close permit per breaker (indexed like [`IedSpec::breakers`]; one
    /// entry per breaker name, at its first index), shared with the control
    /// handler.
    permits: Arc<Mutex<Vec<bool>>>,
    /// The instant (ms) of the IED's latest sample tick, parked ones
    /// included: what the control handler stamps its events with.
    now_ms: Arc<AtomicU64>,
    sensors: Arc<Mutex<Sensors>>,
    degradation: DegradationSignal,
    /// Whether the model's quality items currently read `invalid`; writes
    /// happen only on transition so the healthy path stays free.
    q_invalid: bool,
    /// GOOSE subscriptions whose TAL has already been journaled as expired.
    tal_expired: HashSet<String>,
    /// The store version when the last full sample began; `None` until the
    /// first.
    sampled_at: Option<u64>,
    /// Whether a GOOSE or R-SV receipt touched an interlock or a
    /// differential remote, or a TAL expired, since the last full sample.
    remote_changed: bool,
    /// Whether a sensor fault was engaged at the last full sample.
    faulted_at_sample: bool,
    full_samples: Arc<AtomicU64>,
    telemetry: Telemetry,
    trips_counter: Counter,
    goose_counter: Counter,
    /// Causal parent for the next GOOSE publication: the trip (or sample)
    /// span that changed the dataset. Retransmissions keep chaining to it.
    goose_cause: Option<TraceCtx>,
}

impl VirtualIedApp {
    /// Builds the data model a spec implies, against `store`, and the
    /// application over it, with telemetry disabled.
    ///
    /// # Panics
    ///
    /// Panics if an item of the spec's data model is not an object
    /// reference; [`IedModel::build`] reports that as an error instead.
    pub fn new(spec: IedSpec, store: ProcessStore) -> (VirtualIedApp, IedHandle) {
        let name = Name::from(spec.name.as_str());
        let ied = IedModel::build(spec, &store).unwrap_or_else(|e| panic!("{e}"));
        VirtualIedApp::instantiate(
            &Arc::new(ied),
            name,
            store,
            DegradationSignal::new(),
            Telemetry::disabled(),
        )
    }

    /// Builds the application of a built IED model over a process store,
    /// with a telemetry handle. The app gets its own copy of the model's
    /// leaf values and shares its tree, spec, leaf handles and store slots,
    /// so apps of one model in different ranges change only their own
    /// values. Trips, controls, and GOOSE publications feed the `ied.*`
    /// counters and journal [`ProtectionTrip`](sgcr_obs::Event::ProtectionTrip),
    /// [`ControlExecuted`](sgcr_obs::Event::ControlExecuted),
    /// [`ControlRejected`](sgcr_obs::Event::ControlRejected), and
    /// [`GooseSent`](sgcr_obs::Event::GooseSent) events tagged with `name`,
    /// the IED's name: a range passes its host node's, so the two share one
    /// allocation. The app watches `degradation` and stamps its
    /// measurements `invalid` while it is raised; a range hands every
    /// device the same signal.
    ///
    /// `store` must be the store the model was built against, one of its
    /// clones, or a fork of it ([`ProcessStore::fork`]): the app reads and
    /// writes through the model's slots and resolves no key. Debug builds
    /// check that every key the model resolved has its slot in `store`.
    pub fn instantiate(
        ied: &Arc<IedModel>,
        name: Name,
        store: ProcessStore,
        degradation: DegradationSignal,
        telemetry: Telemetry,
    ) -> (VirtualIedApp, IedHandle) {
        let spec = &ied.spec;
        debug_assert_eq!(&*name, spec.name.as_str(), "an IED journals its own name");
        debug_assert!(
            ied.resolves_in(&store),
            "IED {}: the store is not the one its model was built against, nor a fork of it",
            spec.name
        );
        let model = SharedModel::new(ied.model.clone());
        let events: Arc<Mutex<Vec<IedEvent>>> = Arc::default();
        let permits = Arc::new(Mutex::new(vec![false; spec.breakers.len()]));
        let now_ms = Arc::new(AtomicU64::new(0));

        let mut server = MmsServer::new(model.clone());
        server.identity = (
            "sgcr".to_string(),
            "virtual-ied".to_string(),
            spec.name.clone(),
        );
        // Control handler: map Oper writes onto breaker commands, gated by
        // the interlock permits maintained by the protection scan.
        {
            let ied = ied.clone();
            let name = name.clone();
            let store = store.clone();
            let events = events.clone();
            let permits = permits.clone();
            let now_ms = now_ms.clone();
            let obs = telemetry.clone();
            let controls_counter = telemetry.counter("ied.controls");
            server.set_control_handler(Box::new(move |object_ref, value| {
                let Some(close) = value.as_bool() else {
                    return ControlDecision::Reject;
                };
                let maps = &ied.spec.breakers;
                let Some(index) = maps
                    .iter()
                    .position(|b| object_ref.ln == b.cswi || object_ref.ln == b.xcbr)
                else {
                    return ControlDecision::Reject;
                };
                let breaker = &maps[index];
                let time_ms = now_ms.load(Ordering::Relaxed);
                if close && breaker.interlocked {
                    let permit = breaker_named(maps, &breaker.name).unwrap_or(index);
                    if !permits.lock()[permit] {
                        let detail = format!(
                            "close {} blocked by interlock (substation {})",
                            breaker.name, ied.spec.substation
                        );
                        events.lock().push(IedEvent {
                            time_ms,
                            kind: IedEventKind::ControlRejected,
                            detail: detail.clone(),
                        });
                        obs.record(TimeNs::from_millis(time_ms), || ObsEvent::ControlRejected {
                            ied: name.clone(),
                            detail,
                        });
                        return ControlDecision::Reject;
                    }
                }
                store.set_at(ied.positions[index].cmd, Value::Bool(close));
                controls_counter.inc();
                let detail = format!("{} {}", if close { "close" } else { "open" }, breaker.name);
                events.lock().push(IedEvent {
                    time_ms,
                    kind: IedEventKind::ControlExecuted,
                    detail: detail.clone(),
                });
                obs.record(TimeNs::from_millis(time_ms), || ObsEvent::ControlExecuted {
                    ied: name.clone(),
                    detail,
                });
                ControlDecision::Accept
            }));
        }

        let delay = |ms: &u64| sgcr_net::SimDuration::from_millis(*ms);
        let protections: Vec<Function> = spec
            .protections
            .iter()
            .map(|p| {
                Function::Relay(match p {
                    ProtectionSpec::Ptoc {
                        pickup, delay_ms, ..
                    } => {
                        let curve = OvercurrentCurve::DefiniteTime {
                            delay: delay(delay_ms),
                        };
                        Relay::Overcurrent(OvercurrentRelay::new(*pickup, curve))
                    }
                    ProtectionSpec::Ptov {
                        threshold_pu: t,
                        delay_ms,
                        ..
                    } => Relay::Voltage(VoltageRelay::over(*t, delay(delay_ms))),
                    ProtectionSpec::Ptuv {
                        threshold_pu: t,
                        delay_ms,
                        ..
                    } => Relay::Voltage(VoltageRelay::under(*t, delay(delay_ms))),
                    ProtectionSpec::Pdif {
                        threshold: t,
                        delay_ms,
                        ..
                    } => Relay::Differential(DifferentialRelay::new(*t, delay(delay_ms))),
                    ProtectionSpec::Cilo { monitored, .. } => {
                        let references = monitored.iter().map(|m| m.reference.clone());
                        return Function::Cilo(Interlock::new(references.collect()));
                    }
                })
            })
            .collect();

        // Subscribe to every distinct gocbRef the interlocks reference.
        let mut sub_refs: Vec<&str> = spec
            .protections
            .iter()
            .filter_map(|p| match p {
                ProtectionSpec::Cilo { monitored, .. } => {
                    Some(monitored.iter().map(|m| m.gocb_ref.as_str()))
                }
                _ => None,
            })
            .flatten()
            .collect();
        sub_refs.sort();
        sub_refs.dedup();
        let goose_subs = sub_refs.iter().map(|g| GooseSubscriber::new(g)).collect();

        let goose_pub = spec.goose.as_ref().map(|g| {
            GoosePublisher::new(
                GooseConfig::new(&g.gocb_ref, &g.dataset, &g.gocb_ref, g.appid),
                vec![DataValue::Bool(false); g.entries.len()],
            )
        });

        let rsv_pub = spec
            .rsv
            .as_ref()
            .map(|r| SvPublisher::new(&r.sv_id, 0x4000, spec.sample_period));
        let rsv_sub = spec
            .rsv
            .as_ref()
            .and_then(|r| r.subscribe_sv_id.as_ref())
            .map(|id| SvSubscriber::new(id));

        let sensors: Arc<Mutex<Sensors>> = Arc::default();
        let full_samples = Arc::new(AtomicU64::new(0));
        let app = VirtualIedApp {
            ied: ied.clone(),
            name,
            store,
            mms: MmsServerApp::new(server),
            model: model.clone(),
            protections,
            goose_pub,
            goose_subs,
            rsv_pub,
            rsv_sub,
            session_tx: SessionSender::new(),
            session_rx: HashMap::new(),
            events: events.clone(),
            permits,
            now_ms,
            sensors: sensors.clone(),
            degradation: degradation.clone(),
            q_invalid: false,
            tal_expired: HashSet::new(),
            sampled_at: None,
            remote_changed: false,
            faulted_at_sample: false,
            full_samples: full_samples.clone(),
            trips_counter: telemetry.counter("ied.protection_trips"),
            goose_counter: telemetry.counter("ied.goose_sent"),
            telemetry,
            goose_cause: None,
        };
        (
            app,
            IedHandle {
                model,
                ied: ied.clone(),
                events,
                sensors,
                degradation,
                full_samples,
            },
        )
    }

    fn record(&self, now: SimTime, kind: IedEventKind, detail: String) {
        self.events.lock().push(IedEvent {
            time_ms: now.as_millis(),
            kind,
            detail,
        });
    }

    /// Operates protection function `index`: opens its breaker, raises its
    /// `Op` flag and reports both to every MMS client. A function whose
    /// breaker the IED does not map trips nothing.
    fn trip_breaker(
        &self,
        ctx: &mut HostCtx<'_>,
        index: usize,
        parent: Option<TraceCtx>,
    ) -> Option<TraceCtx> {
        let now = ctx.now();
        let ied = &*self.ied;
        let spec = &ied.spec.protections[index];
        let (ln, breaker_name) = (spec.ln(), spec.breaker());
        let protection = &ied.protections[index];
        let breaker = protection.breaker?;
        let mut span = ctx.tracer().open("ied.trip", Plane::Control, parent, now);
        if span.is_recording() {
            span.attr("ied", ied.spec.name.as_str());
            span.attr("ln", ln);
            span.attr("breaker", breaker_name);
        }
        let trip_ctx = span.ctx();
        self.store
            .set_at(ied.positions[breaker].cmd, Value::Bool(false));
        self.model.set(protection.leaf, DataValue::Bool(true));
        self.record(
            now,
            IedEventKind::ProtectionTrip,
            format!("{ln} tripped {breaker_name}"),
        );
        self.trips_counter.inc();
        self.telemetry
            .record(now.as_nanos(), || ObsEvent::ProtectionTrip {
                ied: self.name.clone(),
                detail: format!("{ln} tripped {breaker_name}"),
            });
        // Spontaneous reporting: push an InformationReport to every
        // associated MMS client (SCADA/PLC learn of the trip immediately,
        // without waiting for their next interrogation cycle).
        let report = sgcr_iec61850::MmsPdu::InformationReport {
            report_name: ied.report_name.clone(),
            entries: vec![
                (protection.item.clone(), DataValue::Bool(true)),
                (
                    ied.positions[breaker].xcbr_item.clone(),
                    DataValue::dbpos_off(),
                ),
            ],
        };
        // Spontaneous reports are caused by the trip: frames they generate
        // chain to the trip span, not to the enclosing sample.
        if trip_ctx.is_some() {
            ctx.set_trace_parent(trip_ctx);
        }
        // A report too long for one TPKT frame (item ids past 64 KiB) is
        // not sent; clients still see the trip at their next read.
        if let Some(wire) = sgcr_iec61850::tpkt_frame(|out| report.write(out)) {
            for conn in self.mms.connections() {
                ctx.tcp_send(conn, &wire);
            }
        }
        span.end(now);
        trip_ctx
    }

    fn sample(&mut self, ctx: &mut HostCtx<'_>) {
        let now = ctx.now();

        // The sample reads process values produced by the most recent
        // power-flow solve: parent it to that solve's span so protection
        // operations triggered by the sampled values join the solve's trace.
        let tracer = ctx.tracer();
        let mut sample_span = tracer.open("ied.sample", Plane::Control, tracer.provenance(), now);
        if sample_span.is_recording() {
            sample_span.attr("ied", self.ied.spec.name.as_str());
        }
        let sample_ctx = sample_span.ctx();
        if sample_ctx.is_some() {
            // Frames emitted while sampling (R-SV, spontaneous reports, …)
            // default to the sample as their causal parent.
            ctx.set_trace_parent(sample_ctx);
        }

        // 0. GOOSE supervision: when a monitored stream's TTL expires, its
        //    interlock inputs degrade to Unknown (fail-safe close blocking),
        //    exactly as a real CILO loses its GOOSE-supervised permissives.
        let expired: Vec<String> = self
            .goose_subs
            .iter()
            .filter(|s| s.is_expired(now))
            .map(|s| s.gocb_ref.clone())
            .collect();
        if !expired.is_empty() {
            for gocb in &expired {
                if self.tal_expired.insert(gocb.clone()) {
                    // Newly expired: its interlock inputs go Unknown below.
                    // While it stays expired they are Unknown already,
                    // unless a receipt, which counts itself, set them.
                    self.remote_changed = true;
                    self.telemetry
                        .record(now.as_nanos(), || ObsEvent::GooseExpired {
                            ied: self.name.clone(),
                            publisher: gocb.clone(),
                        });
                }
            }
            for (p, spec) in self.protections.iter_mut().zip(&self.ied.spec.protections) {
                if let (Function::Cilo(interlock), ProtectionSpec::Cilo { monitored, .. }) =
                    (p, spec)
                {
                    for m in monitored {
                        if expired.contains(&m.gocb_ref) {
                            interlock.set_unknown(&m.reference);
                        }
                    }
                }
            }
        }
        if !self.tal_expired.is_empty() {
            // A publisher that resumed is no longer expired; forget it so a
            // later outage journals again.
            self.tal_expired.retain(|g| expired.contains(g));
        }

        // 1. Measurements: process store → data model, through any injected
        //    sensor faults.
        let now_ms = now.as_millis();
        let mut sensors = self.sensors.lock();
        let faults = &mut sensors.faults;
        let faulted = !faults.is_empty();
        // Quality follows the range-wide degradation signal: while the
        // power plane holds its last-good solution, every published
        // measurement carries quality `invalid`. Written on transition only
        // so healthy samples do no extra work.
        let degraded = self.degradation.is_degraded();
        let requalify = degraded != self.q_invalid;
        self.q_invalid = degraded;

        // A sample none of whose inputs changed since the last full one
        // would rewrite the same leaves, step no relay to an event and
        // change no GOOSE dataset, so it stops here. A timing relay may
        // operate on an unchanged value, a drifting or newly stuck sensor
        // moves on its own, R-SV goes out on every sample, and an MMS client
        // may have overwritten a client-writable leaf.
        let version = self.store.version();
        let quiescent = self.rsv_pub.is_none()
            && !self.ied.client_writable
            && !self.remote_changed
            && !faulted
            && !self.faulted_at_sample
            && !requalify
            && !self.protections.iter().any(Function::is_timing)
            && self
                .sampled_at
                .is_some_and(|since| !self.store.written_since(&self.ied.inputs, since));
        if quiescent {
            sample_span.end(now);
            let period = self.ied.spec.sample_period;
            if self.goose_subs.is_empty() {
                ctx.park_tick(period);
            } else {
                ctx.arm_tick(period);
            }
            return;
        }
        self.sampled_at = Some(version);
        self.remote_changed = false;
        self.faulted_at_sample = faulted;
        self.full_samples.fetch_add(1, Ordering::Relaxed);
        let store = &self.store;
        let ied = &*self.ied;
        self.model.with(|model| {
            let leaves = ied.spec.measurements.iter().zip(&ied.measurements);
            for (m, &([value, _], slot)) in leaves {
                if let Some(v) = store.get_at(slot).and_then(|v| v.as_float()) {
                    let v = apply_sensor_fault(faults, &m.kv_key, v, now_ms);
                    model.set(value, DataValue::Float(v as f32));
                }
            }
            if requalify {
                let q = if degraded { "invalid" } else { "good" };
                for &([_, quality], _) in &ied.measurements {
                    model.set(quality, DataValue::Str(q.to_string()));
                }
            }
            // 2. Breaker positions.
            for position in &ied.positions {
                let closed = store.get_at(position.state).and_then(|v| v.as_bool());
                let pos = if closed.unwrap_or(false) {
                    DataValue::dbpos_on()
                } else {
                    DataValue::dbpos_off()
                };
                model.set(position.leaves[0], pos.clone());
                model.set(position.leaves[1], pos);
            }
        });

        // 3. Protection scan.
        let mut trips: Vec<usize> = Vec::new();
        let functions = self.protections.iter_mut().zip(&ied.spec.protections);
        for (index, (function, spec)) in functions.enumerate() {
            match function {
                Function::Relay(relay) => {
                    let input = ied.protections[index].input;
                    let value = input.and_then(|slot| store.get_at(slot));
                    let value = value.and_then(|v| v.as_float());
                    let (Some(value), Some(key)) = (value, spec.input_key()) else {
                        continue;
                    };
                    let value = apply_sensor_fault(faults, key, value, now_ms);
                    let (kind, detail) = match relay.step(now, value) {
                        Some(RelayEvent::Operate) => {
                            trips.push(index);
                            continue;
                        }
                        Some(RelayEvent::Pickup) => (
                            IedEventKind::ProtectionPickup,
                            relay.pickup_detail(spec.ln(), value),
                        ),
                        Some(RelayEvent::Dropout) if !matches!(relay, Relay::Differential(_)) => (
                            IedEventKind::ProtectionDropout,
                            format!("{} dropout", spec.ln()),
                        ),
                        _ => continue,
                    };
                    self.events.lock().push(IedEvent {
                        time_ms: now_ms,
                        kind,
                        detail,
                    });
                }
                Function::Cilo(interlock) => {
                    let permitted = interlock.close_permitted();
                    let protection = &ied.protections[index];
                    if let Some(breaker) = protection.breaker {
                        self.permits.lock()[breaker] = permitted;
                    }
                    self.model.set(protection.leaf, DataValue::Bool(permitted));
                }
            }
        }
        drop(sensors);
        let mut goose_cause = sample_ctx;
        for index in trips {
            if let Some(trip_ctx) = self.trip_breaker(ctx, index, sample_ctx) {
                goose_cause = Some(trip_ctx);
            }
        }

        // 4. GOOSE publication (update dataset; emit immediately on change).
        if self.goose_pub.is_some() {
            let values: Vec<DataValue> = self
                .ied
                .goose_sources
                .iter()
                .map(|source| {
                    DataValue::Bool(match source {
                        GooseSource::Breaker(breaker) => breaker
                            .and_then(|b| self.store.get_at(self.ied.positions[b].state))
                            .and_then(|v| v.as_bool())
                            .unwrap_or(false),
                        GooseSource::Protection(indices) => {
                            indices.iter().any(|&i| self.protections[i].has_operated())
                        }
                    })
                })
                .collect();
            if let Some(publisher) = &mut self.goose_pub {
                if publisher.update(now, values) {
                    // The dataset changed this sample: the publication (and
                    // its retransmissions) are caused by the trip if one
                    // occurred, else by the sample itself.
                    self.goose_cause = goose_cause;
                    self.emit_goose(ctx);
                }
            }
        }

        // 5. R-SV publication.
        if let (Some(rsv), Some(publisher)) = (&self.ied.spec.rsv, &mut self.rsv_pub) {
            let current = self
                .ied
                .rsv_current
                .and_then(|slot| self.store.get_at(slot))
                .and_then(|v| v.as_float())
                .unwrap_or(0.0) as f32;
            let payload = publisher.emit(vec![current]);
            let wire = self
                .session_tx
                .wrap(SessionPayloadType::Sv, &payload)
                .encode();
            for peer in &rsv.peers {
                ctx.send_udp(*peer, RGOOSE_PORT, RGOOSE_PORT, &wire);
            }
        }

        sample_span.end(now);
        ctx.arm_tick(self.ied.spec.sample_period);
    }

    fn emit_goose(&mut self, ctx: &mut HostCtx<'_>) {
        let now = ctx.now();
        let mac = ctx.mac();
        let mut span = ctx
            .tracer()
            .open("ied.goose_pub", Plane::Control, self.goose_cause, now);
        let Some(publisher) = &mut self.goose_pub else {
            return;
        };
        if span.is_recording() {
            span.attr("ied", self.ied.spec.name.as_str());
            span.attr("gocb", publisher.gocb_ref());
        }
        let pub_ctx = span.ctx();
        if pub_ctx.is_some() {
            // The multicast frame (and its R-GOOSE copies) chain to this
            // publication span as they traverse the network.
            ctx.set_trace_parent(pub_ctx);
        }
        let (frame, wait) = publisher.emit(now, mac);
        // R-GOOSE to inter-substation peers.
        if let Some(goose_spec) = &self.ied.spec.goose {
            if !goose_spec.rgoose_peers.is_empty() {
                let wire = self
                    .session_tx
                    .wrap(SessionPayloadType::Goose, &frame.payload)
                    .encode();
                for peer in &goose_spec.rgoose_peers {
                    ctx.send_udp(*peer, RGOOSE_PORT, RGOOSE_PORT, &wire);
                }
            }
        }
        self.goose_counter.inc();
        self.telemetry
            .record(now.as_nanos(), || ObsEvent::GooseSent {
                ied: self.name.clone(),
            });
        ctx.send_frame(frame);
        span.end(now);
        // The IED's one timer: samples run on its tick.
        ctx.set_timer(wait, 0);
    }

    /// Hands a received GOOSE payload, decoded once, to every subscriber.
    fn handle_goose_payload(&mut self, ctx: &mut HostCtx<'_>, payload: &[u8]) {
        if self.goose_subs.is_empty() {
            return;
        }
        let now = ctx.now();
        let Ok((_, pdu)) = GoosePdu::decode(payload) else {
            return;
        };
        for sub in &mut self.goose_subs {
            if sub.process(now, &pdu).is_some() {
                self.remote_changed = true;
                let mut span =
                    ctx.tracer()
                        .open("ied.goose_rx", Plane::Control, ctx.trace_parent(), now);
                if span.is_recording() {
                    span.attr("ied", self.ied.spec.name.as_str());
                    span.attr("gocb", sub.gocb_ref.as_str());
                }
                span.end(now);
                for (p, spec) in self.protections.iter_mut().zip(&self.ied.spec.protections) {
                    if let (Function::Cilo(interlock), ProtectionSpec::Cilo { monitored, .. }) =
                        (p, spec)
                    {
                        for m in monitored {
                            if m.gocb_ref != sub.gocb_ref {
                                continue;
                            }
                            let closed = sub.data.get(m.dataset_index).and_then(|v| match v {
                                DataValue::Bool(b) => Some(*b),
                                other => other.as_dbpos(),
                            });
                            if let Some(closed) = closed {
                                interlock.update(&m.reference, closed);
                            }
                        }
                    }
                }
            }
        }
    }
}

impl SocketApp for VirtualIedApp {
    fn plane(&self) -> AppPlane {
        AppPlane::Ied
    }

    fn on_start(&mut self, ctx: &mut HostCtx<'_>) {
        self.mms.on_start(ctx);
        ctx.bind_udp(RGOOSE_PORT);
        let waker = ctx.tick_waker();
        self.store.watch(&self.ied.inputs, &waker);
        self.degradation.watch(&waker);
        self.sensors.lock().tick = Some(waker);
        ctx.arm_tick(self.ied.spec.sample_period);
        if self.goose_pub.is_some() {
            self.emit_goose(ctx);
        }
    }

    fn on_tick(&mut self, ctx: &mut HostCtx<'_>) {
        self.sample(ctx);
    }

    fn on_timer(&mut self, ctx: &mut HostCtx<'_>, _token: u64) {
        self.emit_goose(ctx);
    }

    fn on_tcp_accepted(&mut self, ctx: &mut HostCtx<'_>, conn: ConnId, peer: (Ipv4Addr, u16)) {
        self.mms.on_tcp_accepted(ctx, conn, peer);
    }

    fn on_tcp_data(&mut self, ctx: &mut HostCtx<'_>, conn: ConnId, data: &[u8]) {
        self.now_ms
            .store(ctx.last_tick().as_millis(), Ordering::Relaxed);
        self.mms.on_tcp_data(ctx, conn, data);
    }

    fn on_tcp_closed(&mut self, ctx: &mut HostCtx<'_>, conn: ConnId) {
        self.mms.on_tcp_closed(ctx, conn);
    }

    fn on_raw_frame(&mut self, ctx: &mut HostCtx<'_>, frame: &EthernetFrame) {
        if frame.ethertype == ethertype::GOOSE {
            self.handle_goose_payload(ctx, &frame.payload);
        }
    }

    fn on_udp(&mut self, ctx: &mut HostCtx<'_>, src: (Ipv4Addr, u16), dst_port: u16, data: &[u8]) {
        if dst_port != RGOOSE_PORT {
            return;
        }
        let Some(packet) = SessionPacket::decode(data) else {
            return;
        };
        let now = ctx.now();
        let receiver = self.session_rx.entry(src.0).or_default();
        if !receiver.accept(now, &packet) {
            return;
        }
        match packet.payload_type {
            SessionPayloadType::Goose => self.handle_goose_payload(ctx, packet.payload),
            SessionPayloadType::Sv => {
                let Ok((_, pdu)) = SvPdu::decode(packet.payload) else {
                    return;
                };
                if let Some(sub) = &mut self.rsv_sub {
                    if sub.process(now, &pdu) {
                        self.remote_changed = true;
                        let remote = sub.samples.first().copied().unwrap_or(0.0) as f64;
                        for p in &mut self.protections {
                            if let Function::Relay(Relay::Differential(relay)) = p {
                                relay.update_remote(now, remote);
                            }
                        }
                    }
                }
            }
        }
    }
}

/// Derives the IEC 61850 quality item for a measurement item: `q` sits
/// beside the value container (`A$phsA$cVal$mag$f` → `A$phsA$q`,
/// `TotW$mag$f` → `TotW$q`), never below the value leaf — the data model is
/// a tree and a leaf cannot grow children.
pub fn quality_item(item: &str) -> String {
    format!("{}$q", quality_parent(item))
}

/// The data object [`quality_item`] puts `q` under.
fn quality_parent(item: &str) -> &str {
    for suffix in ["$cVal$mag$f", "$mag$f"] {
        if let Some(prefix) = item.strip_suffix(suffix) {
            return prefix;
        }
    }
    match item.rfind('$') {
        Some(i) => &item[..i],
        None => item,
    }
}

/// The fault-application arithmetic behind [`VirtualIedApp`]'s sampling and
/// protection reads; free-standing so the protection scan can call it while
/// the runtime list is mutably borrowed. With no fault engaged (the healthy
/// path) the key is not even hashed.
fn apply_sensor_fault(
    faults: &mut HashMap<String, SensorOverride>,
    key: &str,
    raw: f64,
    now_ms: u64,
) -> f64 {
    if faults.is_empty() {
        return raw;
    }
    let Some(state) = faults.get_mut(key) else {
        return raw;
    };
    match state.fault {
        SensorFault::Stuck => *state.held.get_or_insert(raw),
        SensorFault::Drift { per_sec } => {
            raw + per_sec * now_ms.saturating_sub(state.engaged_ms) as f64 / 1000.0
        }
    }
}

/// The leaf a data-model item fills at runtime, if any.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Role {
    /// Written only through MMS, or never.
    Static,
    /// A measurement's value.
    Value,
    /// A measurement's quality.
    Quality,
    /// A breaker's XCBR position.
    XcbrPos,
    /// A breaker's CSWI position.
    CswiPos,
    /// The leaf a protection function rewrites: `Op$general` for relays,
    /// `EnaCls$stVal` for CILO.
    Protection,
}

/// Every item of the data model a spec implies — its id relative to the LD
/// as a configured part and a fixed suffix, its initial value and its role
/// — in insertion order. Each role occurs once per measurement, breaker or
/// protection function, in spec order. This is the one place the item-id
/// layouts are written out.
fn layout(spec: &IedSpec) -> Vec<(&str, &'static str, DataValue, Role)> {
    let mut items = vec![
        ("", "LLN0$ST$Beh$stVal", DataValue::Int(1), Role::Static),
        (
            "",
            "LPHD1$ST$PhyHealth$stVal",
            DataValue::Int(1),
            Role::Static,
        ),
        (
            "",
            "LPHD1$DC$PhyNam$vendor",
            DataValue::Str("sgcr".to_string()),
            Role::Static,
        ),
    ];
    for m in &spec.measurements {
        items.push((&m.item, "", DataValue::Float(0.0), Role::Value));
        // IEC 61850 quality companion: `good` until the degradation signal
        // (power-plane hold-last-good) flips it to `invalid`.
        items.push((
            quality_parent(&m.item),
            "$q",
            DataValue::Str("good".to_string()),
            Role::Quality,
        ));
    }
    for b in &spec.breakers {
        for (ln, role) in [(&b.xcbr, Role::XcbrPos), (&b.cswi, Role::CswiPos)] {
            items.push((ln, "$ST$Pos$stVal", DataValue::dbpos_off(), role));
            items.push((
                ln,
                "$CO$Pos$Oper$ctlVal",
                DataValue::Bool(false),
                Role::Static,
            ));
        }
    }
    for p in &spec.protections {
        let ln = p.ln();
        let threshold = match p {
            ProtectionSpec::Cilo { .. } => {
                items.push((
                    ln,
                    "$ST$EnaCls$stVal",
                    DataValue::Bool(false),
                    Role::Protection,
                ));
                items.push((ln, "$ST$EnaOpn$stVal", DataValue::Bool(true), Role::Static));
                continue;
            }
            ProtectionSpec::Ptoc { pickup, .. } => *pickup,
            ProtectionSpec::Ptov { threshold_pu, .. }
            | ProtectionSpec::Ptuv { threshold_pu, .. } => *threshold_pu,
            ProtectionSpec::Pdif { threshold, .. } => *threshold,
        };
        items.push((ln, "$ST$Str$general", DataValue::Bool(false), Role::Static));
        items.push((
            ln,
            "$ST$Op$general",
            DataValue::Bool(false),
            Role::Protection,
        ));
        items.push((
            ln,
            "$SP$StrVal$setMag$f",
            DataValue::Float(threshold as f32),
            Role::Static,
        ));
    }
    items
}

/// Walks the data model a spec implies, handing `visit` each item's full id
/// (`<ld>/<relative>`, in one reused buffer), initial value and role.
fn for_each_item(spec: &IedSpec, mut visit: impl FnMut(&str, DataValue, Role)) {
    let mut item = String::new();
    for (part, suffix, value, role) in layout(spec) {
        item.clear();
        item.extend([spec.ld.as_str(), "/", part, suffix]);
        visit(&item, value, role);
    }
}

/// Checks that every item of the data model `spec` implies is an object
/// reference (`LD/LN$FC$DO…`), so building the IED cannot fail. The model
/// compiler runs this on every IED; the error names the IED and the item.
///
/// # Examples
///
/// ```
/// use sgcr_ied::{check_model, IedSpec, MeasurementMap};
///
/// let mut spec = IedSpec::new("GIED1", "S1");
/// spec.measurements.push(MeasurementMap {
///     kv_key: "meas/S1/branch/l1/p_mw".into(),
///     item: "TotW".into(),
/// });
/// let err = check_model(&spec).unwrap_err();
/// assert!(err.contains("GIED1") && err.contains("GIED1LD0/TotW"), "{err}");
/// ```
///
/// # Errors
///
/// Returns a message naming the IED and the first item that does not
/// parse.
pub fn check_model(spec: &IedSpec) -> Result<(), String> {
    let mut result = Ok(());
    for_each_item(spec, |item, _, _| {
        if result.is_ok() {
            result = ObjectRef::validate(item).map_err(|e| {
                format!(
                    "IED {}: item {item:?} is not an object reference: {e}",
                    spec.name
                )
            });
        }
    });
    result
}

/// A breaker's position leaves and process slots.
#[derive(Debug)]
struct PositionLeaves {
    /// XCBR and CSWI `Pos$stVal`.
    leaves: [LeafId; 2],
    /// The XCBR position's item id, quoted in trip reports.
    xcbr_item: String,
    /// The slots of its position feedback, which a sample reads, and of its
    /// command, which a trip or a control writes.
    state: Slot,
    cmd: Slot,
}

/// A protection function's leaf, breaker and input.
#[derive(Debug)]
struct ProtectionLeaf {
    /// The leaf it rewrites: `Op$general` for relays, `EnaCls$stVal` for
    /// CILO.
    leaf: LeafId,
    /// That leaf's item id, quoted in trip reports.
    item: String,
    /// Index in [`IedSpec::breakers`] of the breaker it trips (relays) or
    /// gates (CILO), if the IED maps it.
    breaker: Option<usize>,
    /// The slot of the value a relay samples; `None` for CILO.
    input: Option<Slot>,
}

/// A virtual IED as the model compiler builds it: its spec, the IEC 61850
/// data model the spec implies — attribute tree and initial leaf values —
/// and what the runtime derives from the spec alone: the handle of every
/// leaf a sample rewrites, the item ids trip reports quote, the sources of
/// the GOOSE dataset, and the slot of every process-store key a sample
/// reads or a trip or control writes.
///
/// None of it changes while the IED runs, so one model behind an [`Arc`]
/// serves every range stamped from a compiled model: each
/// [`VirtualIedApp::instantiate`] copies the leaf values and shares the tree
/// (see [`DataModel`]) and the rest. Its slots are valid in the store the
/// model was built against and in that store's forks, which is what every
/// tenant runs. The vectors run parallel to the spec's measurements,
/// breakers and protection functions.
#[derive(Debug)]
pub struct IedModel {
    spec: IedSpec,
    model: DataModel,
    /// Per measurement: the value and quality leaves, and the slot sampled.
    measurements: Vec<([LeafId; 2], Slot)>,
    positions: Vec<PositionLeaves>,
    protections: Vec<ProtectionLeaf>,
    /// The slot of the current the R-SV stream publishes.
    rsv_current: Option<Slot>,
    /// Every slot a sample reads: the measurements, the breaker states, the
    /// relay inputs and the R-SV current.
    inputs: Vec<Slot>,
    /// Where each entry of the IED's own GOOSE dataset comes from.
    goose_sources: Vec<GooseSource>,
    /// The buffered report control block named in trip reports.
    report_name: String,
    /// Whether an MMS client may write a leaf the sample rewrites (a
    /// measurement configured under `SP`, `CF` or `CO`): only a full sample
    /// puts the process value back.
    client_writable: bool,
}

impl IedModel {
    /// Builds the IEC 61850 data model implied by a spec — LLN0/LPHD plus
    /// the LNs for measurements, breakers, and protection functions —
    /// recording the handle of every leaf the runtime rewrites, and
    /// resolves every process-store key the runtime reads or writes to its
    /// slot in `store`, interning the keys it lacks.
    ///
    /// # Examples
    ///
    /// ```
    /// use sgcr_faults::DegradationSignal;
    /// use sgcr_ied::{IedModel, IedSpec, MeasurementMap, VirtualIedApp};
    /// use sgcr_kvstore::ProcessStore;
    /// use sgcr_obs::{Name, Telemetry};
    /// use std::sync::Arc;
    ///
    /// let mut spec = IedSpec::new("GIED1", "S1");
    /// spec.measurements.push(MeasurementMap {
    ///     kv_key: "meas/S1/branch/l1/p_mw".into(),
    ///     item: "MMXU1$MX$TotW$mag$f".into(),
    /// });
    /// let template = ProcessStore::new();
    /// let ied = Arc::new(IedModel::build(spec, &template).unwrap());
    /// // Two ranges of one model: each app owns its values and its store,
    /// // a fork of the template.
    /// let app = || {
    ///     let name = Name::from("GIED1");
    ///     let (store, degradation) = (template.fork(), DegradationSignal::new());
    ///     VirtualIedApp::instantiate(&ied, name, store, degradation, Telemetry::disabled())
    /// };
    /// let ((_a, a), (_b, b)) = (app(), app());
    /// let item = "GIED1LD0/MMXU1$MX$TotW$mag$f";
    /// assert!(a.model.write(item, sgcr_iec61850::DataValue::Float(1.0)));
    /// assert_ne!(a.model.read(item), b.model.read(item));
    /// ```
    ///
    /// # Errors
    ///
    /// Returns [`check_model`]'s message when an item of the model is not an
    /// object reference.
    pub fn build(spec: IedSpec, store: &ProcessStore) -> Result<IedModel, String> {
        check_model(&spec)?;
        let mut model = DataModel::new(&spec.name);
        let (mut values, mut qualities, mut xcbr, mut cswi, mut protections) =
            (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
        let mut client_writable = false;
        for_each_item(&spec, |item, value, role| {
            let leaf = model.insert(item, value);
            client_writable |= role != Role::Static && ObjectRef::client_writable(item);
            match role {
                Role::Static => {}
                Role::Value => values.push(leaf),
                Role::Quality => qualities.push(leaf),
                Role::XcbrPos => xcbr.push((leaf, item.to_string())),
                Role::CswiPos => cswi.push(leaf),
                Role::Protection => protections.push((leaf, item.to_string())),
            }
        });
        let measurements: Vec<([LeafId; 2], Slot)> = values
            .into_iter()
            .zip(qualities)
            .zip(&spec.measurements)
            .map(|((value, quality), m)| ([value, quality], store.slot(&m.kv_key)))
            .collect();
        let positions: Vec<PositionLeaves> = xcbr
            .into_iter()
            .zip(cswi)
            .zip(&spec.breakers)
            .map(|(((x, xcbr_item), c), b)| PositionLeaves {
                leaves: [x, c],
                xcbr_item,
                state: store.slot(&b.state_key),
                cmd: store.slot(&b.cmd_key),
            })
            .collect();
        let protections: Vec<ProtectionLeaf> = spec
            .protections
            .iter()
            .zip(protections)
            .map(|(p, (leaf, item))| ProtectionLeaf {
                leaf,
                item,
                breaker: breaker_named(&spec.breakers, p.breaker()),
                input: p.input_key().map(|key| store.slot(key)),
            })
            .collect();
        let rsv_current = spec.rsv.as_ref().map(|r| store.slot(&r.current_key));
        let inputs = measurements
            .iter()
            .map(|&(_, slot)| slot)
            .chain(positions.iter().map(|p| p.state))
            .chain(protections.iter().filter_map(|p| p.input))
            .chain(rsv_current)
            .collect();
        let goose_sources = spec
            .goose
            .iter()
            .flat_map(|g| &g.entries)
            .map(|e| match e {
                GooseEntry::BreakerState(name) => {
                    GooseSource::Breaker(breaker_named(&spec.breakers, name))
                }
                GooseEntry::ProtectionOp(ln) => GooseSource::Protection(
                    (0..spec.protections.len())
                        .filter(|&i| {
                            let p = &spec.protections[i];
                            p.ln() == ln && !matches!(p, ProtectionSpec::Cilo { .. })
                        })
                        .collect(),
                ),
            })
            .collect();
        Ok(IedModel {
            measurements,
            positions,
            protections,
            rsv_current,
            inputs,
            goose_sources,
            report_name: spec.item("LLN0$BR$brcb01"),
            client_writable,
            model,
            spec,
        })
    }

    /// The spec the model was built from: the one every app built from it
    /// runs.
    pub fn spec(&self) -> &IedSpec {
        &self.spec
    }

    /// Whether every key the model resolved has its slot in `store`: true
    /// in the store it was built against, that store's clones and forks.
    fn resolves_in(&self, store: &ProcessStore) -> bool {
        let spec = &self.spec;
        let inputs = spec.measurements.iter().map(|m| &*m.kv_key);
        let inputs = inputs.chain(spec.breakers.iter().map(|b| &*b.state_key));
        let inputs = inputs.chain(
            spec.protections
                .iter()
                .filter_map(ProtectionSpec::input_key),
        );
        let inputs = inputs.chain(spec.rsv.iter().map(|r| &*r.current_key));
        let cmds = spec.breakers.iter().map(|b| &*b.cmd_key);
        let cmds = cmds.zip(self.positions.iter().map(|p| p.cmd));
        { inputs.zip(self.inputs.iter().copied()).chain(cmds) }
            .all(|(key, slot)| store.interned(key) == Some(slot))
    }
}
