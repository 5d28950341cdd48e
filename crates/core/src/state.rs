//! Per-tenant mutable runtime of one cyber range: a [`RangeState`].
//!
//! Everything that changes while an exercise runs lives here — the emulated
//! network with its attached virtual devices, the process store, the
//! tenant's clone of the power model, step counters, fault plans —
//! while everything derived from the model files stays in the shared
//! immutable [`CompiledModel`](crate::CompiledModel). Instantiation clones
//! the pristine power model and stamps out fresh device instances from the
//! compiled blueprints; no XML or Structured Text is ever re-parsed.

use crate::keymap::{PublishKeys, PublishSlots};
use crate::model::CompiledModel;
use crate::range::RangeError;
use sgcr_faults::{DegradationSignal, LinkFault, SensorFault};
use sgcr_ied::{IedHandle, VirtualIedApp};
use sgcr_kvstore::{ProcessStore, Slot, Value};
use sgcr_net::{AppPlane, Ipv4Addr, LinkSpec, Network, NodeId, SimDuration, SimTime, SocketApp};
use sgcr_obs::{buckets, Counter, Event as ObsEvent, Gauge, Histogram, Plane, Telemetry};
use sgcr_plc::{PlcApp, PlcHandle, PlcRuntime};
use sgcr_powerflow::{
    solve_traced, PowerFlowResult, PowerNetwork, SimulationSchedule, SolveOptions, Solver,
    SolverStats,
};
use sgcr_scada::{ScadaApp, ScadaHandle};
use std::collections::HashMap;
use std::time::Duration;

/// Per-tenant instantiation settings — everything about a range that is
/// *not* derived from the model files. Captured by
/// [`Checkpoint`](crate::Checkpoint) so a resumed range replays
/// byte-identically.
#[derive(Debug, Clone, Default)]
pub struct RangeSettings {
    /// Step-interval override (`None` = the model's interval).
    pub interval: Option<SimDuration>,
    /// Deterministic fault-injection seed (`None` = seed 0).
    pub fault_seed: Option<u64>,
}

/// The mutable simulation state of one tenant's cyber range.
///
/// Constructed through
/// [`RangeBuilder::from_model`](crate::RangeBuilder::from_model) (or
/// [`CyberRange::instantiate`](crate::CyberRange::instantiate));
/// [`CyberRange`](crate::CyberRange) dereferences to this type, so every
/// method here is available on a range directly.
pub struct RangeState {
    /// The emulated network (attach attacker tools, capture traffic, …).
    pub net: Network,
    /// The cyber↔physical process cache.
    pub store: ProcessStore,
    /// This tenant's physical model (cloned from the compiled model).
    pub power: PowerNetwork,
    /// This tenant's simulation schedule (profiles advance per tenant).
    pub schedule: SimulationSchedule,
    /// Power-flow step interval.
    pub interval: SimDuration,
    /// Handles to every virtual IED, by name.
    pub ieds: HashMap<String, IedHandle>,
    /// Handles to every virtual PLC, by name.
    pub plcs: HashMap<String, PlcHandle>,
    /// Handle to the SCADA HMI, when configured.
    pub scada: Option<ScadaHandle>,
    /// The latest power-flow solution.
    pub last_result: PowerFlowResult,
    /// This tenant's power-flow solver: keeps the symbolic work of the
    /// current topology, warm-starts each step from the last solution, and
    /// answers a step whose network did not change from its record.
    solver: Solver,
    /// The store slot of every published measurement: the model's shared
    /// publish keys, resolved in `store`.
    publish_slots: PublishSlots,
    /// Lifetime number of power-flow steps executed.
    steps_total: u64,
    /// Lifetime number of failed re-solves (the range keeps running on the
    /// held last-good solution).
    solve_errors_total: u64,
    /// Wall-clock budget of one step (`None` = the interval).
    step_budget: Option<Duration>,
    /// Lifetime number of steps over their budget.
    overruns: u64,
    /// Lifetime worst step wall time, in seconds.
    max_step_seconds: f64,
    /// Degradation flags shared with every virtual IED and the SCADA HMI;
    /// raised while `last_result` is a held (stale) solution.
    degradation_signals: Vec<DegradationSignal>,
    /// `steps_total` at the moment the current hold began, if holding.
    held_since_step: Option<u64>,
    /// Crashed hosts due to come back: `(node, host name, restart at ms)`.
    restart_plans: Vec<(NodeId, String, u64)>,
    telemetry: Telemetry,
    steps_counter: Counter,
    step_seconds_hist: Histogram,
    overrun_gauge: Gauge,
    overrun_counter: Counter,
    /// Per-plane wall-time attribution histograms (`step.plane.*`); all
    /// detached no-ops when telemetry is off.
    plane_hists: PlaneHists,
    cmd_cursor: u64,
    node_by_name: HashMap<String, NodeId>,
    /// Simulation time of the next due power-flow step.
    next_step_at: SimTime,
    /// Simulation time of the previous power-flow step (profile window start).
    last_step_ms: u64,
}

/// Resolved `step.plane.*` histograms: where one co-simulation step's wall
/// time goes. `power` is the power-flow solve plus the measurement publish,
/// `net` is event-loop dispatch *outside* application code, and
/// `ied`/`plc`/`scada`/`other` attribute time spent inside the device
/// applications by [`AppPlane`]. The timed intervals are disjoint
/// sub-intervals of the step; `unattributed` is the rest of the step's wall
/// time (the command scan, profiles, the watchdog, bookkeeping), so the
/// seven add up to the step.
struct PlaneHists {
    power: Histogram,
    net: Histogram,
    ied: Histogram,
    plc: Histogram,
    scada: Histogram,
    other: Histogram,
    unattributed: Histogram,
}

impl PlaneHists {
    fn resolve(telemetry: &Telemetry) -> PlaneHists {
        let hist = |name: &str| telemetry.histogram(name, &buckets::LATENCY_SECONDS);
        PlaneHists {
            power: hist("step.plane.power_seconds"),
            net: hist("step.plane.net_seconds"),
            ied: hist("step.plane.ied_seconds"),
            plc: hist("step.plane.plc_seconds"),
            scada: hist("step.plane.scada_seconds"),
            other: hist("step.plane.other_seconds"),
            unattributed: hist("step.plane.unattributed_seconds"),
        }
    }
}

impl RangeState {
    /// Instantiates fresh per-tenant state from a compiled model: builds the
    /// emulated network from the plan, stamps out virtual devices from the
    /// blueprints, clones the pristine power model, and solves + publishes
    /// the initial physical state.
    ///
    /// # Errors
    ///
    /// Returns [`RangeError::PowerFlow`] when the initial power flow cannot
    /// be solved. (Model-shaped failures — bad XML, unknown hosts, invalid
    /// programs — are compile-time errors and cannot occur here.)
    pub(crate) fn instantiate(
        model: &CompiledModel,
        settings: &RangeSettings,
        telemetry: Telemetry,
    ) -> Result<RangeState, RangeError> {
        // --- Emulated network from the plan --------------------------------
        let mut net = Network::new();
        net.set_telemetry(telemetry.clone());
        if let Some(seed) = settings.fault_seed {
            net.set_fault_seed(seed);
        }
        let mut node_by_name: HashMap<String, NodeId> = HashMap::new();
        let mut switch_by_name: HashMap<String, NodeId> = HashMap::new();
        let mut wan: Option<NodeId> = None;
        for sw in &model.plan.switches {
            let id = net.add_switch(&sw.name);
            switch_by_name.insert(sw.name.clone(), id);
            if sw.is_wan {
                wan = Some(id);
            }
        }
        if let Some(wan) = wan {
            for sw in &model.plan.switches {
                if !sw.is_wan {
                    net.connect(switch_by_name[&sw.name], wan, LinkSpec::wan());
                }
            }
        }
        for host in &model.plan.hosts {
            let id = match host.mac {
                Some(mac) => net.add_host_with_mac(&host.name, host.ip, mac),
                None => net.add_host(&host.name, host.ip),
            };
            net.connect(id, switch_by_name[&host.switch], LinkSpec::default());
            node_by_name.insert(host.name.clone(), id);
        }

        let store = ProcessStore::new();
        let interval = settings.interval.unwrap_or(model.interval);

        // --- Virtual IEDs from compiled specs ------------------------------
        let mut ieds = HashMap::new();
        for spec in &model.ieds {
            let Some(&node) = node_by_name.get(&spec.name) else {
                return Err(RangeError::UnknownHost {
                    host: spec.name.clone(),
                    referenced_by: "IED Config XML",
                });
            };
            let (app, handle) =
                VirtualIedApp::with_telemetry(spec.clone(), store.clone(), telemetry.clone());
            net.attach_app(node, Box::new(app));
            ieds.insert(spec.name.clone(), handle);
        }

        // --- Virtual PLCs from compiled programs ---------------------------
        let mut plcs = HashMap::new();
        for def in &model.plcs {
            let Some(&node) = node_by_name.get(&def.name) else {
                return Err(RangeError::UnknownHost {
                    host: def.name.clone(),
                    referenced_by: "PLC Config XML",
                });
            };
            let registers = sgcr_modbus::SharedRegisters::with_size(1024);
            let runtime = PlcRuntime::new(def.program.clone(), registers.clone()).map_err(|e| {
                RangeError::Model {
                    what: "PLC program",
                    detail: e.message,
                }
            })?;
            let (mut app, handle) = PlcApp::with_telemetry(
                runtime,
                registers,
                SimDuration::from_millis(def.scan_ms),
                def.reads.clone(),
                def.writes.clone(),
                telemetry.clone(),
            );
            if !def.gooses.is_empty() {
                app.set_goose_bindings(def.gooses.clone());
            }
            net.attach_app(node, Box::new(app));
            plcs.insert(def.name.clone(), handle);
        }

        // --- SCADA HMI ------------------------------------------------------
        let mut scada = None;
        if let Some(blueprint) = &model.scada {
            let Some(&node) = node_by_name.get(&blueprint.host) else {
                return Err(RangeError::UnknownHost {
                    host: blueprint.host.clone(),
                    referenced_by: "SCADA Config XML",
                });
            };
            let (app, handle) =
                ScadaApp::with_telemetry(blueprint.config.clone(), telemetry.clone());
            net.attach_app(node, Box::new(app));
            scada = Some(handle);
        }

        // --- Initial physical state ----------------------------------------
        // Share one degradation flag per consumer: the range raises them all
        // while it is holding a stale solution, IEDs stamp measurement
        // quality `invalid`, SCADA degrades incoming tag quality.
        let mut degradation_signals: Vec<DegradationSignal> =
            ieds.values().map(IedHandle::degradation).collect();
        if let Some(scada) = &scada {
            degradation_signals.push(scada.degradation());
        }
        let publish_slots = model.publish_keys.slots(&store);
        let mut state = RangeState {
            net,
            store,
            power: model.power.clone(),
            schedule: model.schedule.clone(),
            interval,
            ieds,
            plcs,
            scada,
            last_result: PowerFlowResult::default(),
            solver: Solver::new(),
            publish_slots,
            steps_total: 0,
            solve_errors_total: 0,
            step_budget: None,
            overruns: 0,
            max_step_seconds: 0.0,
            degradation_signals,
            held_since_step: None,
            restart_plans: Vec::new(),
            steps_counter: telemetry.counter("range.steps"),
            step_seconds_hist: telemetry.histogram("range.step_seconds", &buckets::LATENCY_SECONDS),
            overrun_gauge: telemetry.gauge("range.step_overrun_ratio"),
            overrun_counter: telemetry.counter("range.step_overruns"),
            plane_hists: PlaneHists::resolve(&telemetry),
            telemetry,
            cmd_cursor: 0,
            node_by_name,
            next_step_at: SimTime::ZERO + interval,
            last_step_ms: 0,
        };
        // Publish the initial switch states and solution before anything runs.
        state.publish_switch_states();
        let tracer = state.telemetry.tracer();
        let init_span = tracer.open("range.init", Plane::Range, None, 0u64);
        let (result, solve_ctx) = solve_traced(
            &mut state.solver,
            &state.power,
            &SolveOptions::default(),
            &state.telemetry,
            0,
            init_span.ctx(),
        );
        let result = result.map_err(RangeError::PowerFlow)?;
        if let Some(solve_ctx) = solve_ctx {
            // Device samples taken before the first step trace to this solve.
            tracer.set_provenance("power.solve", solve_ctx);
        }
        init_span.end(0u64);
        state.publish_measurements(&result);
        state.last_result = result;
        state.cmd_cursor = state.store.version();
        Ok(state)
    }

    /// The node id of a generated host (for captures, link failures, …).
    pub fn node(&self, name: &str) -> Option<NodeId> {
        self.node_by_name.get(name).copied()
    }

    /// Adds an extra host (e.g. an attacker machine) to a named switch.
    ///
    /// # Panics
    ///
    /// Panics if the switch does not exist.
    pub fn add_host(&mut self, name: &str, ip: Ipv4Addr, switch: &str) -> NodeId {
        let switch_id = self
            .net
            .node_by_name(switch)
            .unwrap_or_else(|| panic!("no such switch {switch:?}"));
        let id = self.net.add_host(name, ip);
        self.net.connect(id, switch_id, LinkSpec::default());
        self.node_by_name.insert(name.to_string(), id);
        id
    }

    /// Attaches an application to a generated host.
    ///
    /// # Panics
    ///
    /// Panics if the host does not exist.
    pub fn attach_app(&mut self, host: &str, app: Box<dyn SocketApp>) {
        let node = self
            .node(host)
            .unwrap_or_else(|| panic!("no such host {host:?}"));
        self.net.attach_app(node, app);
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.net.now()
    }

    /// Runs one co-simulation step: advances the cyber side to the next due
    /// step time, then applies profiles/events → commands → solve → publish.
    ///
    /// The step's wall time is attributed per plane into the `step.plane.*`
    /// histograms: power solve and publish, net dispatch, and app execution
    /// by [`AppPlane`] (IED / PLC / SCADA / other). Each timed interval is a
    /// disjoint sub-interval of the step on the same monotonic clock; the
    /// remainder is published as `step.plane.unattributed_seconds`, so the
    /// seven planes add up to the step's total wall time.
    pub fn step(&mut self) {
        let wall_start = std::time::Instant::now();
        let due = self.next_step_at.max(self.net.now());
        // App time accumulated between steps (the trailing remainder of
        // `run_for`) belongs to no step; discard it so plane attribution
        // stays within this step's wall-time envelope.
        let _ = self.net.take_plane_nanos();
        self.net.run_until(due);
        let net_elapsed = wall_start.elapsed().as_secs_f64();
        self.power_step(due, wall_start, net_elapsed);
        self.next_step_at = due + self.interval;
    }

    /// The physical half of one step, executed with the clock at `now`.
    /// `wall_start` is the instant the whole step (including the cyber
    /// advance) began; `net_elapsed` is the wall time `run_until` took.
    fn power_step(&mut self, now: SimTime, wall_start: std::time::Instant, net_elapsed: f64) {
        let t1 = now;
        let t0_ms = self.last_step_ms;
        self.last_step_ms = t1.as_millis();

        // Root span of this step's trace: everything the solve causes —
        // device samples, protection operations, GOOSE, SCADA updates —
        // hangs transitively below it.
        let tracer = self.telemetry.tracer();
        let mut step_span = tracer.open("range.step", Plane::Range, None, t1);
        if step_span.is_recording() {
            step_span.attr("step", (self.steps_total + 1).to_string());
        }

        // Crash watchdog: bring crashed hosts back when their restart is due.
        if !self.restart_plans.is_empty() {
            let now_ms = t1.as_millis();
            let mut i = 0;
            while i < self.restart_plans.len() {
                if self.restart_plans[i].2 <= now_ms {
                    let (node, host, _) = self.restart_plans.swap_remove(i);
                    self.net.set_host_enabled(node, true);
                    self.telemetry
                        .record(t1.as_nanos(), || ObsEvent::DeviceRestarted {
                            host: host.clone(),
                        });
                } else {
                    i += 1;
                }
            }
        }

        // Profiles and scheduled disturbances.
        self.schedule.apply(&mut self.power, t0_ms, t1.as_millis());

        // Commands written by the cyber side since the last step. The cursor
        // moves past this step's own publishes below, so the next step does
        // not read them back.
        for change in self.store.changes_since(self.cmd_cursor) {
            if !change.key.starts_with("cmd/") {
                continue;
            }
            let segments: Vec<&str> = change.key.split('/').collect();
            // cmd/<sub>/<class>/<name>/<field>
            if segments.len() != 5 {
                continue;
            }
            let scoped = format!("{}/{}", segments[1], segments[2 + 1]);
            match (segments[2], segments[4]) {
                ("cb", "close") => {
                    if let Some(closed) = change.value.as_bool() {
                        self.power.set_switch(&scoped, closed);
                    }
                }
                ("load", "p_mw") => {
                    if let (Some(p), Some(id)) =
                        (change.value.as_float(), self.power.load_by_name(&scoped))
                    {
                        self.power.load[id.index()].p_mw = p;
                    }
                }
                ("gen", "p_mw") => {
                    if let Some(p) = change.value.as_float() {
                        if let Some(id) = self.power.gen_by_name(&scoped) {
                            self.power.gen[id.index()].p_mw = p;
                        } else if let Some(id) = self.power.sgen_by_name(&scoped) {
                            self.power.sgen[id.index()].p_mw = p;
                        }
                    }
                }
                _ => {}
            }
        }

        // Solve and publish.
        let solve_start = std::time::Instant::now();
        let (solved, solve_ctx) = solve_traced(
            &mut self.solver,
            &self.power,
            &SolveOptions::default(),
            &self.telemetry,
            t1.as_nanos(),
            step_span.ctx(),
        );
        match solved {
            Ok(result) => {
                if let Some(solve_ctx) = solve_ctx {
                    // Until the next solve, IED samples are caused by this
                    // one: they read the measurements it publishes.
                    tracer.set_provenance("power.solve", solve_ctx);
                }
                self.publish_switch_states();
                self.publish_measurements(&result);
                self.last_result = result;
                if let Some(since) = self.held_since_step.take() {
                    // Recovered: fresh measurements flow again.
                    for signal in &self.degradation_signals {
                        signal.set(false);
                    }
                    let held_steps = self.steps_total - since;
                    self.telemetry
                        .record(t1.as_nanos(), || ObsEvent::MeasurementsRecovered {
                            held_steps,
                        });
                }
            }
            Err(e) => {
                self.solve_errors_total += 1;
                if self.held_since_step.is_none() {
                    // Graceful degradation: keep serving the last-good
                    // solution, but tell every consumer it is stale.
                    self.held_since_step = Some(self.steps_total);
                    for signal in &self.degradation_signals {
                        signal.set(true);
                    }
                    self.telemetry
                        .record(t1.as_nanos(), || ObsEvent::MeasurementsHeld {
                            detail: e.to_string(),
                        });
                }
            }
        }
        // Nothing since the command scan wrote a `cmd/` key.
        self.cmd_cursor = self.store.version();
        let solve_seconds = solve_start.elapsed().as_secs_f64();
        let total_seconds = wall_start.elapsed().as_secs_f64();

        if self.telemetry.is_enabled() {
            let app_nanos = self.net.take_plane_nanos();
            let ied = app_nanos[AppPlane::Ied.index()] as f64 * 1e-9;
            let plc = app_nanos[AppPlane::Plc.index()] as f64 * 1e-9;
            let scada = app_nanos[AppPlane::Scada.index()] as f64 * 1e-9;
            let other = app_nanos[AppPlane::Other.index()] as f64 * 1e-9;
            // Event-loop dispatch outside app code: the cyber advance's wall
            // time minus the time spent inside applications.
            let net_dispatch = (net_elapsed - (ied + plc + scada + other)).max(0.0);
            let attributed = solve_seconds + net_dispatch + ied + plc + scada + other;
            self.plane_hists.power.observe(solve_seconds);
            self.plane_hists.net.observe(net_dispatch);
            self.plane_hists.ied.observe(ied);
            self.plane_hists.plc.observe(plc);
            self.plane_hists.scada.observe(scada);
            self.plane_hists.other.observe(other);
            self.plane_hists
                .unattributed
                .observe((total_seconds - attributed).max(0.0));
        }

        self.steps_total += 1;
        self.max_step_seconds = self.max_step_seconds.max(total_seconds);

        self.steps_counter.inc();
        self.step_seconds_hist.observe(total_seconds);
        // The one overrun rule (see `set_step_budget`). A zero budget
        // overruns on every step; its ratio is taken against 1 ns so the
        // gauge and the journal stay finite.
        let budget = self
            .step_budget
            .map_or(self.interval.as_secs_f64(), |b| b.as_secs_f64());
        let ratio = total_seconds / budget.max(1e-9);
        self.overrun_gauge.set(ratio);
        if budget == 0.0 || total_seconds > budget {
            self.overruns += 1;
            self.overrun_counter.inc();
            let step = self.steps_total;
            self.telemetry
                .record(t1.as_nanos(), || ObsEvent::StepOverrun { step, ratio });
        }
        step_span.end(t1);
    }

    /// Runs the range for a duration. Power-flow steps fire at their due
    /// times on the global schedule (every `interval`), interleaved with the
    /// cyber side; any trailing remainder advances the cyber side alone, and
    /// the pending step fires in a later call — so short durations compose
    /// correctly.
    pub fn run_for(&mut self, duration: SimDuration) {
        let end = self.net.now() + duration;
        while self.next_step_at <= end {
            self.step();
        }
        if self.net.now() < end {
            self.net.run_until(end);
        }
    }

    /// Re-resolves the publish slots from this tenant's own power model if
    /// it no longer has the compiled model's shape.
    fn refresh_publish_slots(&mut self) {
        if !self.publish_slots.fits(&self.power) {
            self.publish_slots = PublishKeys::new(&self.power).slots(&self.store);
        }
    }

    fn publish_switch_states(&mut self) {
        self.refresh_publish_slots();
        let states = self.power.switch.iter().zip(&self.publish_slots.switch);
        self.store
            .set_all(states.map(|(switch, &slot)| (slot, Value::Bool(switch.closed))));
    }

    /// Writes every measurement of `result` to the store, in one batch.
    fn publish_measurements(&mut self, result: &PowerFlowResult) {
        self.refresh_publish_slots();
        let slots = &self.publish_slots;
        let float = |slot: Slot, value: f64| (slot, Value::Float(value));
        let bus = result
            .bus
            .iter()
            .zip(&slots.bus)
            .flat_map(|(r, &[vm, va])| [float(vm, r.vm_pu), float(va, r.va_degree)]);
        let line = result.line.iter().zip(&slots.line);
        let trafo = result.trafo.iter().zip(&slots.trafo);
        let branches = line.chain(trafo).flat_map(|(r, &[p, q, i, loading])| {
            [
                float(p, r.p_from_mw),
                float(q, r.q_from_mvar),
                float(i, r.i_from_ka),
                float(loading, r.loading_percent),
            ]
        });
        let ext_grid = result.ext_grid.iter().zip(&slots.ext_grid);
        let ext_grid = ext_grid.map(|(r, &slot)| float(slot, r.p_mw));
        let gen = result.gen.iter().zip(&slots.gen);
        let gen = gen.map(|(r, &slot)| float(slot, r.p_mw));
        let sgen = self
            .power
            .sgen
            .iter()
            .zip(&slots.sgen)
            .map(|(sgen, &slot)| {
                let p = if sgen.in_service {
                    sgen.p_mw * sgen.scaling
                } else {
                    0.0
                };
                float(slot, p)
            });
        let load = self
            .power
            .load
            .iter()
            .zip(&slots.load)
            .map(|(load, &slot)| {
                let p = if load.in_service {
                    load.p_mw * load.scaling
                } else {
                    0.0
                };
                float(slot, p)
            });
        let step = (slots.sim_step, Value::Int(self.steps_total as i64));
        self.store.set_all(
            bus.chain(branches)
                .chain(ext_grid)
                .chain(gen)
                .chain(sgen)
                .chain(load)
                .chain([step]),
        );
    }

    /// Lifetime number of power-flow steps executed.
    pub fn steps_total(&self) -> u64 {
        self.steps_total
    }

    /// Lifetime number of failed re-solves. The range keeps running on the
    /// held last-good solution after a failure (see
    /// [`measurements_held`](RangeState::measurements_held)).
    pub fn solve_errors_total(&self) -> u64 {
        self.solve_errors_total
    }

    /// Replaces the wall-clock budget of one step, which is the interval
    /// until this is called. A step overruns when its wall time exceeds the
    /// budget, and a zero budget makes every step overrun. Each overrun
    /// counts in [`overruns`](RangeState::overruns), and with telemetry on
    /// in `range.step_overruns` and as a `StepOverrun` event;
    /// `range.step_overrun_ratio` reads each step's wall time over the
    /// budget.
    pub fn set_step_budget(&mut self, budget: Duration) {
        self.step_budget = Some(budget);
    }

    /// Lifetime number of steps whose wall time exceeded the budget in
    /// force when they ran (see [`set_step_budget`](RangeState::set_step_budget)).
    pub fn overruns(&self) -> u64 {
        self.overruns
    }

    /// Lifetime worst step wall time, in seconds (0 before the first step).
    pub fn max_step_seconds(&self) -> f64 {
        self.max_step_seconds
    }

    /// True while the power plane is serving a held (stale) solution because
    /// the solver stopped converging. While held, every virtual IED stamps
    /// its measurements with quality `invalid` and SCADA degrades incoming
    /// tag quality.
    pub fn measurements_held(&self) -> bool {
        self.held_since_step.is_some()
    }

    /// The telemetry handle the range was built with (disabled unless one
    /// was attached through [`RangeBuilder::telemetry`](crate::RangeBuilder::telemetry)).
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// The work this tenant's power-flow solver has done: solves, warm
    /// starts, solves answered from its record, Newton–Raphson iterations,
    /// factorizations and analyses.
    pub fn solver_stats(&self) -> SolverStats {
        self.solver.stats()
    }

    /// The store version up to which cyber-side commands have been consumed
    /// — part of the deterministic replay position a checkpoint verifies.
    pub(crate) fn cmd_cursor(&self) -> u64 {
        self.cmd_cursor
    }

    // --- State probes for exercise evaluation -----------------------------
    //
    // The scenario objective evaluator polls these between steps; they read
    // the live model state (not SCADA's possibly-deceived view) so scoring
    // reflects ground truth.

    /// Whether a named switch (`Substation/Name`) is currently closed, or
    /// `None` if the switch does not exist.
    pub fn switch_is_closed(&self, name: &str) -> Option<bool> {
        let id = self.power.switch_by_name(name)?;
        Some(self.power.switch[id.index()].closed)
    }

    /// A bus's solved voltage magnitude in per-unit (0.0 when de-energized),
    /// or `None` if the connectivity-node path is unknown.
    pub fn bus_voltage_pu(&self, path: &str) -> Option<f64> {
        let id = self.power.bus_by_name(path)?;
        self.last_result.bus.get(id.index()).map(|b| b.vm_pu)
    }

    /// Whether the SCADA HMI currently shows an active alarm on `point`.
    pub fn scada_alarm_active(&self, point: &str) -> bool {
        self.scada
            .as_ref()
            .is_some_and(|s| s.active_alarms().iter().any(|(p, _)| p == point))
    }

    /// The SCADA HMI's current value for a tag (the *displayed* value — a
    /// man-in-the-middle can make this diverge from ground truth).
    pub fn scada_tag(&self, point: &str) -> Option<f64> {
        self.scada.as_ref().and_then(|s| s.tag_value(point))
    }

    /// How many times a named IED's protection has tripped, or `None` if
    /// the IED does not exist.
    pub fn ied_trip_count(&self, name: &str) -> Option<usize> {
        self.ieds.get(name).map(IedHandle::trip_count)
    }

    /// Takes the link between two named nodes up or down (failure
    /// injection). Returns `false` if either name or the link is unknown.
    pub fn set_link_state(&mut self, a: &str, b: &str, up: bool) -> bool {
        match (self.net.node_by_name(a), self.net.node_by_name(b)) {
            (Some(a), Some(b)) => self.net.set_link_state(a, b, up),
            _ => false,
        }
    }

    /// Changes the latency of the link between two named nodes (congestion
    /// or tampering injection). Returns `false` if either name or the link
    /// is unknown.
    pub fn set_link_latency(&mut self, a: &str, b: &str, latency: SimDuration) -> bool {
        match (self.net.node_by_name(a), self.net.node_by_name(b)) {
            (Some(a), Some(b)) => self.net.set_link_latency(a, b, latency),
            _ => false,
        }
    }

    // --- Fault injection ---------------------------------------------------

    /// Re-seeds the deterministic fault generator (see
    /// [`RangeBuilder::fault_seed`](crate::RangeBuilder::fault_seed)).
    /// Applies to all draws made after the call.
    pub fn set_fault_seed(&mut self, seed: u64) {
        self.net.set_fault_seed(seed);
    }

    /// Installs (or, with a no-op profile, clears) an impairment profile on
    /// the link between two named nodes. Returns `false` if either name or
    /// the link is unknown.
    pub fn set_link_fault(&mut self, a: &str, b: &str, fault: LinkFault) -> bool {
        match (self.net.node_by_name(a), self.net.node_by_name(b)) {
            (Some(a), Some(b)) => self.net.set_link_fault(a, b, fault),
            _ => false,
        }
    }

    /// Crashes a named host: its NIC goes silent and its applications stop
    /// until restart. With `restart_after_ms` the range's watchdog brings it
    /// back automatically; with `None` it stays down until
    /// [`restart_host`](RangeState::restart_host). Returns `false` for an
    /// unknown host or a switch.
    pub fn crash_host(&mut self, host: &str, restart_after_ms: Option<u64>) -> bool {
        let Some(node) = self.node(host) else {
            return false;
        };
        if !self.net.set_host_enabled(node, false) {
            return false;
        }
        let now = self.net.now();
        self.telemetry
            .record(now.as_nanos(), || ObsEvent::DeviceCrashed {
                host: host.to_string(),
            });
        if let Some(after) = restart_after_ms {
            self.restart_plans
                .push((node, host.to_string(), now.as_millis() + after));
        }
        true
    }

    /// Restarts a crashed host immediately. Returns `false` for an unknown
    /// host or a switch.
    pub fn restart_host(&mut self, host: &str) -> bool {
        let Some(node) = self.node(host) else {
            return false;
        };
        if !self.net.set_host_enabled(node, true) {
            return false;
        }
        self.restart_plans.retain(|(n, _, _)| *n != node);
        self.telemetry
            .record(self.net.now().as_nanos(), || ObsEvent::DeviceRestarted {
                host: host.to_string(),
            });
        true
    }

    /// Engages a sensor fault on one sampled value (by process-store key)
    /// inside a named IED. The faulted value feeds both published
    /// measurements and the IED's own protection functions. Returns `false`
    /// for an unknown IED.
    pub fn set_sensor_fault(&mut self, ied: &str, key: &str, fault: SensorFault) -> bool {
        let Some(handle) = self.ieds.get(ied) else {
            return false;
        };
        handle.set_sensor_fault(key, fault, self.net.now().as_millis());
        true
    }

    /// Clears a sensor fault. Returns `false` if the IED is unknown or no
    /// fault was engaged on `key`.
    pub fn clear_sensor_fault(&mut self, ied: &str, key: &str) -> bool {
        self.ieds
            .get(ied)
            .is_some_and(|handle| handle.clear_sensor_fault(key))
    }

    /// Configures (or disables, with `None`) the SCADA stale-tag window.
    /// Returns `false` when no SCADA HMI is configured.
    pub fn set_scada_stale_window(&mut self, window_ms: Option<u64>) -> bool {
        match &self.scada {
            Some(scada) => {
                scada.set_stale_window_ms(window_ms);
                true
            }
            None => false,
        }
    }
}
