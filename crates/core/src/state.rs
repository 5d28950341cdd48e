//! Per-tenant mutable runtime of one cyber range: a [`RangeState`].
//!
//! Everything that changes while an exercise runs lives here — the emulated
//! network with its attached virtual devices, the process store, the
//! tenant's clone of the power model, step counters, fault plans —
//! while everything derived from the model files stays in the shared
//! immutable [`CompiledModel`](crate::CompiledModel). Instantiation clones
//! the pristine power model, forks the model's template store and stamps
//! out fresh device instances from the compiled blueprints; no XML or
//! Structured Text is ever re-parsed, and no store key is resolved.

use crate::keymap::Publish;
use crate::model::CompiledModel;
use crate::range::RangeError;
use sgcr_faults::{DegradationSignal, LinkFault, SensorFault};
use sgcr_ied::{IedHandle, VirtualIedApp};
use sgcr_kvstore::{ProcessStore, Slot, Value};
use sgcr_net::{AppPlane, Ipv4Addr, LinkSpec, Network, NodeId, SimDuration, SimTime, SocketApp};
use sgcr_obs::{buckets, Counter, Event as ObsEvent, Gauge, Histogram, Plane, Telemetry};
use sgcr_plc::{PlcApp, PlcHandle, PlcRuntime};
use sgcr_powerflow::{
    solve_traced, PowerFlowResult, SimulationSchedule, SolveOptions, Solver, SolverStats,
    TrackedNetwork,
};
use sgcr_scada::{ScadaApp, ScadaHandle};
use std::collections::HashMap;
use std::sync::Arc;
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
    /// The cyber↔physical process cache: a fork of the compiled model's
    /// template store, so every slot the model resolved is valid in it.
    pub store: ProcessStore,
    /// This tenant's physical model (cloned from the compiled model). Any
    /// mutable access counts as a write, and the next step solves again
    /// (see [`TrackedNetwork`]); reads leave it as it was.
    pub power: TrackedNetwork,
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
    /// This tenant's power-flow solver: keeps the symbolic work of the
    /// current topology, warm-starts each step from the last solution,
    /// replays that solution when `power` was not written since, and holds
    /// the tenant's one copy of it.
    solver: Solver,
    /// The store slot of every published measurement and read command: the
    /// model's, until `power` changes shape and the tenant resolves its own.
    publish: Arc<Publish>,
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
    /// The degradation flag shared by every virtual IED and the SCADA HMI;
    /// raised while the latest solution is a held (stale) one.
    degradation: DegradationSignal,
    /// `steps_total` at the moment the current hold began, if holding.
    held_since_step: Option<u64>,
    /// Crashed hosts due to come back: `(node, restart at ms)`.
    restart_plans: Vec<(NodeId, u64)>,
    telemetry: Telemetry,
    steps_counter: Counter,
    step_seconds_hist: Histogram,
    overrun_gauge: Gauge,
    overrun_counter: Counter,
    /// Per-plane wall-time attribution histograms (`step.plane.*`); all
    /// detached no-ops when telemetry is off.
    plane_hists: PlaneHists,
    /// The store version when the latest step (or instantiation) ended,
    /// after its publish if it solved: commands written since are applied
    /// at the next step. A replayed solve follows a step that solved and
    /// published, so while the version still reads this, every published
    /// value is in the store as that step wrote it.
    cmd_cursor: u64,
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
        }

        let store = model.store.fork();
        let interval = settings.interval.unwrap_or(model.interval);
        // One degradation flag for the whole range: it is raised while the
        // range holds a stale solution, IEDs stamp measurement quality
        // `invalid`, SCADA degrades incoming tag quality.
        let degradation = DegradationSignal::new();

        // --- Virtual IEDs from compiled models -----------------------------
        let mut ieds = HashMap::new();
        for ied in &model.ied_models {
            let name = &ied.spec().name;
            let Some(node) = host_node(&net, name) else {
                return Err(RangeError::UnknownHost {
                    host: name.clone(),
                    referenced_by: "IED Config XML",
                });
            };
            let (app, handle) = VirtualIedApp::instantiate(
                ied,
                net.node_name(node).clone(),
                store.clone(),
                degradation.clone(),
                telemetry.clone(),
            );
            net.attach_app(node, Box::new(app));
            ieds.insert(name.clone(), handle);
        }

        // --- Virtual PLCs from compiled programs ---------------------------
        let mut plcs = HashMap::new();
        for def in &model.plcs {
            let Some(node) = host_node(&net, &def.name) else {
                return Err(RangeError::UnknownHost {
                    host: def.name.clone(),
                    referenced_by: "PLC Config XML",
                });
            };
            let registers = sgcr_modbus::SharedRegisters::with_size(1024);
            let runtime =
                PlcRuntime::new(Arc::clone(&def.program), registers.clone()).map_err(|e| {
                    RangeError::Model {
                        what: "PLC program",
                        detail: e.message,
                    }
                })?;
            let (app, handle) = PlcApp::with_telemetry(
                runtime,
                registers,
                SimDuration::from_millis(def.scan_ms),
                Arc::clone(&def.reads),
                Arc::clone(&def.writes),
                Arc::clone(&def.gooses),
                telemetry.clone(),
            );
            net.attach_app(node, Box::new(app));
            plcs.insert(def.name.clone(), handle);
        }

        // --- SCADA HMI ------------------------------------------------------
        let mut scada = None;
        if let Some(blueprint) = &model.scada {
            let Some(node) = host_node(&net, &blueprint.host) else {
                return Err(RangeError::UnknownHost {
                    host: blueprint.host.clone(),
                    referenced_by: "SCADA Config XML",
                });
            };
            let (app, handle) = ScadaApp::with_telemetry(
                Arc::clone(&blueprint.config),
                degradation.clone(),
                telemetry.clone(),
            );
            net.attach_app(node, Box::new(app));
            scada = Some(handle);
        }

        // --- Initial physical state ----------------------------------------
        let mut state = RangeState {
            net,
            store,
            power: TrackedNetwork::new(model.power.clone()),
            schedule: model.schedule.clone(),
            interval,
            ieds,
            plcs,
            scada,
            solver: Solver::new(),
            publish: model.publish.clone(),
            steps_total: 0,
            solve_errors_total: 0,
            step_budget: None,
            overruns: 0,
            max_step_seconds: 0.0,
            degradation,
            held_since_step: None,
            restart_plans: Vec::new(),
            steps_counter: telemetry.counter("range.steps"),
            step_seconds_hist: telemetry.histogram("range.step_seconds", &buckets::LATENCY_SECONDS),
            overrun_gauge: telemetry.gauge("range.step_overrun_ratio"),
            overrun_counter: telemetry.counter("range.step_overruns"),
            plane_hists: PlaneHists::resolve(&telemetry),
            telemetry,
            cmd_cursor: 0,
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
        result.map_err(RangeError::PowerFlow)?;
        if let Some(solve_ctx) = solve_ctx {
            // Device samples taken before the first step trace to this solve.
            tracer.set_provenance(solve_ctx);
        }
        init_span.end(0u64);
        state.publish_measurements();
        state.cmd_cursor = state.store.version();
        Ok(state)
    }

    /// The node id of a host — generated or added with
    /// [`add_host`](RangeState::add_host) — for captures, link failures, …;
    /// `None` for a switch or an unknown name.
    pub fn node(&self, name: &str) -> Option<NodeId> {
        host_node(&self.net, name)
    }

    /// The latest power-flow solution: the solver's latest converged one,
    /// held while re-solves fail (see
    /// [`measurements_held`](RangeState::measurements_held)).
    pub fn last_result(&self) -> &PowerFlowResult {
        self.solver.last_result()
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
                if self.restart_plans[i].1 <= now_ms {
                    let (node, _) = self.restart_plans.swap_remove(i);
                    self.net.set_host_enabled(node, true);
                    self.telemetry
                        .record(t1.as_nanos(), || ObsEvent::DeviceRestarted {
                            host: self.net.node_name(node).clone(),
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
        self.refresh_publish();
        if self.store.version() > self.cmd_cursor {
            self.apply_commands();
        }

        // Solve and publish.
        let solve_start = std::time::Instant::now();
        let reused = self.solver.stats().reused;
        let (solved, solve_ctx) = solve_traced(
            &mut self.solver,
            &self.power,
            &SolveOptions::default(),
            &self.telemetry,
            t1.as_nanos(),
            step_span.ctx(),
        );
        match solved {
            Ok(_) => {
                if let Some(solve_ctx) = solve_ctx {
                    // Until the next solve, IED samples are caused by this
                    // one: they read the measurements it publishes.
                    tracer.set_provenance(solve_ctx);
                }
                if self.solver.stats().reused > reused && self.store.version() == self.cmd_cursor {
                    // The network is the one the latest publish solved, and
                    // nothing was written since: a full publish would write
                    // only the step counter.
                    let step = Value::Int(self.steps_total as i64);
                    self.store.set_all([(self.publish.sim_step, step)]);
                } else {
                    self.publish_switch_states();
                    self.publish_measurements();
                }
                if let Some(since) = self.held_since_step.take() {
                    // Recovered: fresh measurements flow again.
                    self.degradation.set(false);
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
                    self.degradation.set(true);
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

    /// Applies to its element every command slot written after
    /// `cmd_cursor`, by element index. An element is written only when the
    /// command's bits differ from its own, so a command that repeats an
    /// element's state leaves the step's solve to replay.
    fn apply_commands(&mut self) {
        let (store, since) = (&self.store, self.cmd_cursor);
        let written = |cmd: &Option<Slot>| {
            let entry = store.entry_at((*cmd)?)?;
            (entry.version > since).then_some(entry.value)
        };
        let set_point = |cmd: &Option<Slot>, p_mw: f64| {
            let p = written(cmd)?.as_float()?;
            (p.to_bits() != p_mw.to_bits()).then_some(p)
        };
        let (power, slots) = (&mut self.power, &*self.publish);
        for (i, (_, cmd)) in slots.switch.iter().enumerate() {
            let closed = written(cmd).and_then(|v| v.as_bool());
            if let Some(closed) = closed.filter(|&c| c != power.switch[i].closed) {
                power.switch[i].closed = closed;
            }
        }
        for (i, (_, cmd)) in slots.load.iter().enumerate() {
            if let Some(p) = set_point(cmd, power.load[i].p_mw) {
                power.load[i].p_mw = p;
            }
        }
        for (i, (_, cmd)) in slots.gen.iter().enumerate() {
            if let Some(p) = set_point(cmd, power.gen[i].p_mw) {
                power.gen[i].p_mw = p;
            }
        }
        for (i, (_, cmd)) in slots.sgen.iter().enumerate() {
            if let Some(p) = set_point(cmd, power.sgen[i].p_mw) {
                power.sgen[i].p_mw = p;
            }
        }
    }

    /// Resolves the publish slots of this tenant's own power model in its
    /// store if the model no longer has the shape of the one they were
    /// resolved for: the one path on which a tenant resolves keys. Each
    /// step runs it before it reads a command or publishes.
    fn refresh_publish(&mut self) {
        if !self.publish.fits(&self.power) {
            self.publish = Arc::new(Publish::new(&self.power, &self.store));
        }
    }

    fn publish_switch_states(&mut self) {
        let states = self.power.switch.iter().zip(&self.publish.switch);
        self.store
            .set_all(states.map(|(switch, &(slot, _))| (slot, Value::Bool(switch.closed))));
    }

    /// Writes every measurement of the latest solution to the store, in one
    /// batch.
    fn publish_measurements(&mut self) {
        let (result, slots) = (self.solver.last_result(), &*self.publish);
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
        let gen = gen.map(|(r, &(slot, _))| float(slot, r.p_mw));
        // An out-of-service sgen supplies, and a load draws, nothing.
        let scaled = |in_service: bool, p: f64| if in_service { p } else { 0.0 };
        let sgen = self.power.sgen.iter().zip(&slots.sgen);
        let sgen =
            sgen.map(|(s, &(slot, _))| float(slot, scaled(s.in_service, s.p_mw * s.scaling)));
        let load = self.power.load.iter().zip(&slots.load);
        let load =
            load.map(|(l, &(slot, _))| float(slot, scaled(l.in_service, l.p_mw * l.scaling)));
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
    /// starts, solves answered from its kept result, Newton–Raphson
    /// iterations, factorizations and analyses.
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
        self.last_result().bus.get(id.index()).map(|b| b.vm_pu)
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
                host: self.net.node_name(node).clone(),
            });
        if let Some(after) = restart_after_ms {
            self.restart_plans.push((node, now.as_millis() + after));
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
        self.restart_plans.retain(|(n, _)| *n != node);
        self.telemetry
            .record(self.net.now().as_nanos(), || ObsEvent::DeviceRestarted {
                host: self.net.node_name(node).clone(),
            });
        true
    }

    /// Engages a sensor fault on one sampled value (by process-store key)
    /// inside a named IED. The faulted value feeds both published
    /// measurements and the IED's own protection functions. Returns `false`,
    /// and engages nothing, for an unknown IED or a key the IED does not
    /// sample ([`IedSpec::sampled_keys`](sgcr_ied::IedSpec::sampled_keys)).
    pub fn set_sensor_fault(&mut self, ied: &str, key: &str, fault: SensorFault) -> bool {
        self.ieds
            .get(ied)
            .is_some_and(|handle| handle.set_sensor_fault(key, fault, self.net.now().as_millis()))
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

/// The node of the host named `name`: `None` for a switch or an unknown name.
fn host_node(net: &Network, name: &str) -> Option<NodeId> {
    net.node_by_name(name).filter(|&node| net.is_host(node))
}
