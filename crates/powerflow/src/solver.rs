//! Newton–Raphson AC power flow over the processed topology.
//!
//! The solve is sparse: the admittance matrix and the Jacobian are stored as
//! sorted per-row nonzeros over each island's node graph, each node's (θ, V)
//! unknowns form one 2×2 block, and the blocks are eliminated in
//! minimum-degree order (see [`crate::sparse`]). A [`Solver`] keeps that
//! per-topology work between solves, warm-starts each re-solve on the
//! same topology from its last converged voltages, and answers a call on a
//! network not written since its last converged call from that call's
//! result (see [`TrackedNetwork`]).

use crate::complex::Complex;
use crate::error::PowerFlowError;
use crate::network::{BusId, PowerNetwork, SwitchTarget, TrackedNetwork};
use crate::results::{BranchResult, BusResult, ExtGridResult, GenResult, PowerFlowResult};
use crate::sparse::{BlockLu, Slot};
use crate::topology::{SlackSource, Topology};

#[cfg(test)]
mod dense;

/// Solver options.
#[derive(Debug, Clone, PartialEq)]
pub struct SolveOptions {
    /// Convergence tolerance on the largest power mismatch, in per-unit.
    pub tolerance: f64,
    /// Maximum Newton–Raphson iterations per island.
    pub max_iterations: usize,
}

impl Default for SolveOptions {
    fn default() -> Self {
        SolveOptions {
            tolerance: 1e-8,
            max_iterations: 30,
        }
    }
}

/// Solves the AC power flow with default options.
///
/// # Errors
///
/// Returns [`PowerFlowError`] if an element references a missing bus, line
/// or transformer, an energized island fails to converge, or its Jacobian
/// is singular. De-energized islands are reported with zero voltage, not as
/// errors.
pub fn solve(net: &PowerNetwork) -> Result<PowerFlowResult, PowerFlowError> {
    Solver::new().compute(net, &SolveOptions::default())
}

/// Solves the AC power flow with `solver`, records the outcome into
/// `telemetry`, and opens a `power.solve` span parented to `parent` when
/// tracing is enabled.
///
/// On top of [`Solver::solve`], this counts the solve in
/// `powerflow.solves`, observes the wall-clock solve time in the
/// `powerflow.solve_seconds` histogram and the Newton–Raphson iteration
/// count in `powerflow.nr_iterations`, counts failures in
/// `powerflow.convergence_failures`, and journals a
/// [`SolveCompleted`](sgcr_obs::Event::SolveCompleted) or
/// [`SolveFailed`](sgcr_obs::Event::SolveFailed) event stamped with the
/// simulation time `t_ns`. With disabled telemetry this is exactly
/// [`Solver::solve`] — not even the timer is started.
///
/// The span covers the simulated instant `t_ns` (zero duration: the solve is
/// instantaneous in simulation time) and carries the iteration count and
/// convergence status as attributes. The returned context identifies the
/// solve span so downstream actions (IED measurement sampling) can be
/// parented to it; it is `None` when tracing is off.
///
/// # Errors
///
/// See [`solve`].
pub fn solve_traced<'s>(
    solver: &'s mut Solver,
    net: &TrackedNetwork,
    options: &SolveOptions,
    telemetry: &sgcr_obs::Telemetry,
    t_ns: u64,
    parent: Option<sgcr_obs::TraceCtx>,
) -> (
    Result<&'s PowerFlowResult, PowerFlowError>,
    Option<sgcr_obs::TraceCtx>,
) {
    if !telemetry.is_enabled() {
        return (solver.solve(net, options), None);
    }
    let tracer = telemetry.tracer();
    let mut span = tracer.open("power.solve", sgcr_obs::Plane::Power, parent, t_ns);
    let ctx = span.ctx();
    let start = std::time::Instant::now();
    let result = solver.solve(net, options);
    let seconds = start.elapsed().as_secs_f64();
    telemetry.counter("powerflow.solves").inc();
    telemetry
        .histogram(
            "powerflow.solve_seconds",
            &sgcr_obs::buckets::LATENCY_SECONDS,
        )
        .observe(seconds);
    match &result {
        Ok(r) => {
            telemetry
                .histogram("powerflow.nr_iterations", &sgcr_obs::buckets::ITERATIONS)
                .observe(r.iterations as f64);
            let iters = r.iterations as u64;
            telemetry.record(t_ns, || sgcr_obs::Event::SolveCompleted { iters, seconds });
            if span.is_recording() {
                span.attr("iterations", iters.to_string());
                span.attr("converged", "true");
            }
        }
        Err(e) => {
            telemetry.counter("powerflow.convergence_failures").inc();
            telemetry.record(t_ns, || sgcr_obs::Event::SolveFailed {
                detail: e.to_string(),
            });
            if span.is_recording() {
                span.attr("converged", "false");
            }
        }
    }
    span.end(t_ns);
    (result, ctx)
}

/// Lifetime counters of the work a [`Solver`] has done.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolverStats {
    /// Solves of a valid network, including those answered from the kept
    /// result.
    pub solves: u64,
    /// Solves that started from the previous converged voltages, including
    /// those answered from the kept result (each replaces a warm start).
    pub warm_starts: u64,
    /// Solves answered from the kept result of the last converged call:
    /// the network was not written since that call and the options are
    /// equal, so no iteration, factorization or analysis ran. A write that
    /// left every bit as it was still solves again.
    pub reused: u64,
    /// Warm starts that failed and were repeated from a flat start.
    pub flat_retries: u64,
    /// Newton–Raphson iterations over every island and attempt.
    pub iterations: u64,
    /// Numeric Jacobian factorizations.
    pub factorizations: u64,
    /// Symbolic analyses (elimination order and fill pattern), one per
    /// topology change.
    pub analyses: u64,
}

/// A Newton–Raphson power-flow solver that keeps its work between solves.
///
/// It holds the per-topology work — the elimination order, the L/U fill
/// pattern and the admittance index maps — and redoes it only when the
/// switch topology, the in-service flags or the node kinds change. Branch
/// and injection *values* are read from the network on every solve, so a
/// parameter change needs no invalidation.
///
/// A re-solve on an unchanged topology starts from the last converged
/// voltages, with slack and PV set-points re-applied; after a topology
/// change it starts flat. A warm start that fails is retried once from a
/// flat start, and a failed solve never becomes the next warm start.
///
/// The solver keeps the one copy of its latest converged result, which
/// [`solve`](Solver::solve) returns by reference and
/// [`last_result`](Solver::last_result) reads. A call whose network has the
/// generation of the last converged call's — nothing took it mutably since
/// (see [`TrackedNetwork`]) — and whose options equal that call's returns
/// the kept result without solving or copying it: exactly what the warm
/// re-solve would return, with `iterations` 1 when any energized island has
/// more than one node, else 0. A failed call is never reused, leaves the
/// kept result as it was, and until the next converged call nothing
/// replays.
///
/// ```
/// use sgcr_powerflow::{PowerNetwork, SolveOptions, Solver, TrackedNetwork};
///
/// let mut net = TrackedNetwork::new(PowerNetwork::new("feeder"));
/// let b1 = net.add_bus("b1", 20.0);
/// let b2 = net.add_bus("b2", 20.0);
/// net.add_ext_grid("grid", b1, 1.0, 0.0);
/// net.add_line("l1", b1, b2, 2.0, 0.1, 0.1, 0.0, 0.4);
/// let load = net.add_load("ld", b2, 2.0, 0.5);
///
/// let mut solver = Solver::new();
/// let options = SolveOptions::default();
/// let cold = solver.solve(&net, &options)?.clone();
/// // A new load value is read on the next solve; the topology is unchanged,
/// // so that solve reuses the analysis and starts from `cold`'s voltages.
/// net.load[load.index()].p_mw = 2.1;
/// let warm = solver.solve(&net, &options)?.clone();
/// assert!(warm.bus[b2.index()].vm_pu < cold.bus[b2.index()].vm_pu);
/// // Only read since: answered from the kept result, without solving.
/// assert_eq!(net.load[load.index()].p_mw, 2.1);
/// assert_eq!(solver.solve(&net, &options)?.bus, warm.bus);
/// assert_eq!(solver.last_result().bus, warm.bus);
/// assert_eq!(solver.stats().reused, 1);
/// assert_eq!(solver.stats().analyses, 1);
/// assert_eq!(solver.stats().warm_starts, 2);
/// # Ok::<(), sgcr_powerflow::PowerFlowError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct Solver {
    plan: Option<Plan>,
    /// Whether every island of `plan` holds the voltages of the last
    /// converged solve.
    warm: bool,
    /// The network generation and options of the last call, if it
    /// converged: a call with both the same replays `result`.
    solved: Option<(u64, SolveOptions)>,
    /// The latest converged result, as the call that solved it returned it;
    /// the default result before the first.
    result: PowerFlowResult,
    /// The iteration count a warm re-solve of `result` takes: what a
    /// replayed call reports.
    replay_iterations: usize,
    stats: SolverStats,
}

impl Solver {
    /// A solver with no retained work: its first solve starts flat.
    pub fn new() -> Solver {
        Solver::default()
    }

    /// The work this solver has done so far.
    pub fn stats(&self) -> SolverStats {
        self.stats
    }

    /// Solves the AC power flow of `net`, answering from the kept result
    /// when `net` was not written since the last converged call and the
    /// options are the same, and otherwise reusing this solver's symbolic
    /// work and warm start where the topology allows. Returns the solver's
    /// latest converged result, which a later call replaces.
    ///
    /// # Errors
    ///
    /// See [`solve`].
    pub fn solve(
        &mut self,
        net: &TrackedNetwork,
        options: &SolveOptions,
    ) -> Result<&PowerFlowResult, PowerFlowError> {
        let generation = net.generation();
        if matches!(&self.solved, Some((g, o)) if *g == generation && o == options) {
            self.stats.solves += 1;
            self.stats.warm_starts += 1;
            self.stats.reused += 1;
            self.result.iterations = self.replay_iterations;
        } else {
            self.solved = None;
            self.result = self.compute(net, options)?;
            // A warm re-solve of a converged state converges on its first
            // mismatch evaluation; a one-node island needs none.
            let mut islands = self.plan.iter().flat_map(|plan| &plan.islands);
            self.replay_iterations = usize::from(islands.any(|island| island.nodes.len() > 1));
            self.solved = Some((generation, options.clone()));
        }
        Ok(&self.result)
    }

    /// The latest converged result, as the call that answered with it
    /// returned it: the default (empty) result before the first, and
    /// unchanged by a failed call.
    pub fn last_result(&self) -> &PowerFlowResult {
        &self.result
    }

    /// Solves `net`, neither replaying nor keeping the result.
    fn compute(
        &mut self,
        net: &PowerNetwork,
        options: &SolveOptions,
    ) -> Result<PowerFlowResult, PowerFlowError> {
        validate(net)?;
        let topo = Topology::build(net);
        let branches = branches_pu(net, &topo);
        let kinds = node_kinds(net, &topo);
        self.stats.solves += 1;
        let plan = match &mut self.plan {
            Some(plan) if plan.matches(&topo, &kinds, &branches) => plan,
            slot => {
                self.warm = false;
                self.stats.analyses += 1;
                slot.insert(Plan::analyze(topo.clone(), kinds, &branches, net.bus.len()))
            }
        };
        plan.load_values(net, &topo, &branches);

        let warm = self.warm;
        if warm {
            self.stats.warm_starts += 1;
        }
        let mut iterations = 0;
        for island in &mut plan.islands {
            let mut attempt = island.newton(options, warm, &mut self.stats);
            if warm && attempt.is_err() {
                self.stats.flat_retries += 1;
                attempt = island.newton(options, false, &mut self.stats);
            }
            // A failure keeps the previous converged voltages as the warm
            // start: nothing is committed before every island converged.
            iterations = iterations.max(attempt?);
        }

        let mut voltage = vec![Complex::ZERO; net.bus.len()];
        for island in &mut plan.islands {
            island.commit();
            for (l, &node) in island.nodes.iter().enumerate() {
                voltage[node] = Complex::from_polar(island.vm[l], island.va[l]);
            }
        }
        self.warm = true;
        let state = SolvedState {
            voltage,
            iterations,
        };
        Ok(extract_results(net, &topo, &branches, &state))
    }
}

/// Per-node complex voltages indexed by representative node (zero for
/// de-energized nodes).
struct SolvedState {
    voltage: Vec<Complex>,
    iterations: usize,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum NodeKind {
    Slack,
    Pv,
    Pq,
}

/// The kind of every representative node: slack where an energized
/// island's source sits, PV under an in-service generator, PQ otherwise.
fn node_kinds(net: &PowerNetwork, topo: &Topology) -> Vec<NodeKind> {
    let mut kinds = vec![NodeKind::Pq; net.bus.len()];
    for g in net.gen.iter().filter(|g| g.in_service) {
        if net.bus[g.bus.index()].in_service {
            kinds[topo.bus_to_node[g.bus.index()]] = NodeKind::Pv;
        }
    }
    for island in &topo.islands {
        if let Some(slack) = island.slack {
            kinds[slack_node(net, topo, slack)] = NodeKind::Slack;
        }
    }
    kinds
}

fn slack_node(net: &PowerNetwork, topo: &Topology, slack: SlackSource) -> usize {
    let bus = match slack {
        SlackSource::ExtGrid(eid) => net.ext_grid[eid.index()].bus,
        SlackSource::Gen(gid) => net.gen[gid.index()].bus,
    };
    topo.bus_to_node[bus.index()]
}

fn validate(net: &PowerNetwork) -> Result<(), PowerFlowError> {
    let check = |index: usize, len: usize, what: &str, name: &str| {
        if index >= len {
            Err(PowerFlowError::InvalidReference {
                element: format!("{what} {name:?}"),
            })
        } else {
            Ok(())
        }
    };
    let nb = net.bus.len();
    for l in &net.line {
        check(l.from_bus.index(), nb, "line", &l.name)?;
        check(l.to_bus.index(), nb, "line", &l.name)?;
        if l.length_km <= 0.0 {
            return Err(PowerFlowError::InvalidParameter {
                detail: format!("line {:?} has non-positive length", l.name),
            });
        }
    }
    for t in &net.trafo {
        check(t.hv_bus.index(), nb, "trafo", &t.name)?;
        check(t.lv_bus.index(), nb, "trafo", &t.name)?;
        if t.sn_mva <= 0.0 || t.vk_percent <= 0.0 {
            return Err(PowerFlowError::InvalidParameter {
                detail: format!("trafo {:?} has non-positive rating", t.name),
            });
        }
        if t.vkr_percent > t.vk_percent {
            return Err(PowerFlowError::InvalidParameter {
                detail: format!("trafo {:?} has vkr_percent > vk_percent", t.name),
            });
        }
    }
    for l in &net.load {
        check(l.bus.index(), nb, "load", &l.name)?;
    }
    for s in &net.sgen {
        check(s.bus.index(), nb, "sgen", &s.name)?;
    }
    for g in &net.gen {
        check(g.bus.index(), nb, "gen", &g.name)?;
    }
    for e in &net.ext_grid {
        check(e.bus.index(), nb, "ext_grid", &e.name)?;
    }
    for s in &net.shunt {
        check(s.bus.index(), nb, "shunt", &s.name)?;
    }
    for s in &net.switch {
        check(s.bus.index(), nb, "switch", &s.name)?;
        match s.target {
            SwitchTarget::Bus(b) => check(b.index(), nb, "switch", &s.name)?,
            SwitchTarget::Line(l) => check(l.index(), net.line.len(), "switch", &s.name)?,
            SwitchTarget::Trafo(t) => check(t.index(), net.trafo.len(), "switch", &s.name)?,
        }
    }
    Ok(())
}

/// Branch admittance data in per-unit, for Ybus assembly and flow extraction.
struct BranchPu {
    from_node: usize,
    to_node: usize,
    /// Series admittance.
    ys: Complex,
    /// Total charging susceptance (split half per end). Lines only.
    b_charge: f64,
    /// Off-nominal tap ratio on the from (HV) side. 1.0 for lines.
    tap: f64,
}

fn line_pu(net: &PowerNetwork, lid: usize, topo: &Topology) -> BranchPu {
    let l = &net.line[lid];
    let vn_kv = net.bus[l.from_bus.index()].vn_kv;
    let z_base = vn_kv * vn_kv / net.sn_mva_base;
    let r = l.r_ohm_per_km * l.length_km / z_base;
    let x = l.x_ohm_per_km * l.length_km / z_base;
    let b_siemens = 2.0 * std::f64::consts::PI * net.f_hz * l.c_nf_per_km * 1e-9 * l.length_km;
    let b_charge = b_siemens * z_base;
    BranchPu {
        from_node: topo.bus_to_node[l.from_bus.index()],
        to_node: topo.bus_to_node[l.to_bus.index()],
        ys: Complex::new(r, x).recip(),
        b_charge,
        tap: 1.0,
    }
}

fn trafo_pu(net: &PowerNetwork, tid: usize, topo: &Topology) -> BranchPu {
    let t = &net.trafo[tid];
    // Impedance in per-unit on the system base, referred to the LV side.
    let z = t.vk_percent / 100.0 * net.sn_mva_base / t.sn_mva;
    let r = t.vkr_percent / 100.0 * net.sn_mva_base / t.sn_mva;
    let x = (z * z - r * r).max(0.0).sqrt();
    // Off-nominal ratio: rated voltages vs connected-bus nominals, plus tap.
    let vn_hv_bus = net.bus[t.hv_bus.index()].vn_kv;
    let vn_lv_bus = net.bus[t.lv_bus.index()].vn_kv;
    let ratio_nominal = (t.vn_hv_kv / vn_hv_bus) / (t.vn_lv_kv / vn_lv_bus);
    let tap = ratio_nominal * (1.0 + f64::from(t.tap_pos) * t.tap_step_percent / 100.0);
    BranchPu {
        from_node: topo.bus_to_node[t.hv_bus.index()],
        to_node: topo.bus_to_node[t.lv_bus.index()],
        ys: Complex::new(r, x).recip(),
        b_charge: 0.0,
        tap,
    }
}

/// Every active branch in per-unit: active lines, then active trafos.
fn branches_pu(net: &PowerNetwork, topo: &Topology) -> Vec<BranchPu> {
    let lines = topo
        .active_lines
        .iter()
        .map(|l| line_pu(net, l.index(), topo));
    let trafos = topo
        .active_trafos
        .iter()
        .map(|t| trafo_pu(net, t.index(), topo));
    lines.chain(trafos).collect()
}

/// The per-topology work of one network: the energized islands' index maps
/// and factor patterns, and the key they were derived from.
#[derive(Debug, Clone)]
struct Plan {
    topo: Topology,
    kinds: Vec<NodeKind>,
    /// `(from_node, to_node)` of every active branch, in branch order.
    ends: Vec<(usize, usize)>,
    /// For each representative node: `(island, local index)` in `islands`.
    locate: Vec<Option<(usize, usize)>>,
    islands: Vec<IslandPlan>,
}

impl Plan {
    /// Whether this plan was analysed for exactly this topology, node kinds
    /// and branch endpoints.
    fn matches(&self, topo: &Topology, kinds: &[NodeKind], branches: &[BranchPu]) -> bool {
        self.topo == *topo
            && self.kinds == kinds
            && self.ends.len() == branches.len()
            && self
                .ends
                .iter()
                .zip(branches)
                .all(|(&ends, b)| ends == (b.from_node, b.to_node))
    }

    fn analyze(
        topo: Topology,
        kinds: Vec<NodeKind>,
        branches: &[BranchPu],
        bus_count: usize,
    ) -> Plan {
        let mut locate = vec![None; bus_count];
        let mut energized = Vec::new();
        for (index, island) in topo.islands.iter().enumerate() {
            if island.slack.is_some() {
                for (l, &node) in island.nodes.iter().enumerate() {
                    locate[node] = Some((energized.len(), l));
                }
                energized.push(index);
            }
        }
        let mut members: Vec<Vec<(usize, usize, usize)>> = vec![Vec::new(); energized.len()];
        for (bi, b) in branches.iter().enumerate() {
            if let (Some((p, i)), Some((_, j))) = (locate[b.from_node], locate[b.to_node]) {
                members[p].push((bi, i, j));
            }
        }
        let islands = energized
            .iter()
            .zip(members)
            .map(|(&index, members)| {
                let nodes = topo.islands[index].nodes.clone();
                let node_kinds = nodes.iter().map(|&node| kinds[node]).collect();
                IslandPlan::analyze(index, nodes, node_kinds, &members)
            })
            .collect();
        Plan {
            ends: branches.iter().map(|b| (b.from_node, b.to_node)).collect(),
            topo,
            kinds,
            locate,
            islands,
        }
    }

    /// The energized island holding `bus`, and the bus's local node index.
    fn at(&mut self, topo: &Topology, bus: BusId) -> Option<(&mut IslandPlan, usize)> {
        let (p, l) = self.locate[topo.bus_to_node[bus.index()]]?;
        Some((&mut self.islands[p], l))
    }

    /// Reads this solve's values: Ybus from the branch admittances and
    /// in-service shunts, specified injections and voltage set-points.
    fn load_values(&mut self, net: &PowerNetwork, topo: &Topology, branches: &[BranchPu]) {
        let s_base = net.sn_mva_base;
        for island in &mut self.islands {
            island.y.fill(Complex::ZERO);
            for &(bi, [ii, jj, ij, ji]) in &island.branches {
                let b = &branches[bi];
                let t = b.tap;
                let half_charge = Complex::new(0.0, b.b_charge / 2.0);
                island.y[ii] += b.ys / (t * t) + half_charge;
                island.y[jj] += b.ys + half_charge;
                island.y[ij] += -(b.ys / t);
                island.y[ji] += -(b.ys / t);
            }
            island.p_spec.fill(0.0);
            island.q_spec.fill(0.0);
            island.v_set.fill(1.0);
            island.theta_set.fill(0.0);
        }
        let bus_in = |b: BusId| net.bus[b.index()].in_service;
        for sh in net.shunt.iter().filter(|s| s.in_service && bus_in(s.bus)) {
            if let Some((isl, l)) = self.at(topo, sh.bus) {
                let d = isl.y_diag[l];
                isl.y[d] += Complex::new(sh.p_mw / s_base, -sh.q_mvar / s_base);
            }
        }
        for ld in net.load.iter().filter(|l| l.in_service && bus_in(l.bus)) {
            if let Some((isl, l)) = self.at(topo, ld.bus) {
                isl.p_spec[l] -= ld.p_mw * ld.scaling / s_base;
                isl.q_spec[l] -= ld.q_mvar * ld.scaling / s_base;
            }
        }
        for sg in net.sgen.iter().filter(|s| s.in_service && bus_in(s.bus)) {
            if let Some((isl, l)) = self.at(topo, sg.bus) {
                isl.p_spec[l] += sg.p_mw * sg.scaling / s_base;
                isl.q_spec[l] += sg.q_mvar * sg.scaling / s_base;
            }
        }
        for g in net.gen.iter().filter(|g| g.in_service && bus_in(g.bus)) {
            if let Some((isl, l)) = self.at(topo, g.bus) {
                isl.p_spec[l] += g.p_mw / s_base;
                isl.v_set[l] = g.vm_pu;
            }
        }
        for island in &mut self.islands {
            let (v, theta) = match topo.islands[island.index].slack {
                Some(SlackSource::ExtGrid(eid)) => {
                    let eg = &net.ext_grid[eid.index()];
                    (eg.vm_pu, eg.va_degree.to_radians())
                }
                Some(SlackSource::Gen(gid)) => (net.gen[gid.index()].vm_pu, 0.0),
                None => continue,
            };
            island.v_set[island.slack] = v;
            island.theta_set[island.slack] = theta;
        }
    }
}

/// One energized island: its admittance pattern, Jacobian factor pattern,
/// and the working and warm-start voltages of its nodes.
#[derive(Debug, Clone)]
struct IslandPlan {
    /// Island index in topology order (reported by `SingularJacobian`).
    index: usize,
    /// Representative nodes; local node `l` is `nodes[l]`.
    nodes: Vec<usize>,
    kind: Vec<NodeKind>,
    /// Local index of the slack node.
    slack: usize,
    /// Ybus over local nodes: row `i` holds columns `y_col[y_ptr[i]..y_ptr[i + 1]]`
    /// (sorted, diagonal included) with values in `y`.
    y_ptr: Vec<usize>,
    y_col: Vec<usize>,
    y_diag: Vec<usize>,
    y: Vec<Complex>,
    /// Per member branch: its index in the solve's branch list and its Ybus
    /// entries `(ii, jj, ij, ji)`.
    branches: Vec<(usize, [usize; 4])>,
    /// Per Ybus entry: its Jacobian block, or `None` in the slack row/column.
    j_slot: Vec<Option<Slot>>,
    /// Per local node: elimination position of its unknowns (slack: unused).
    position: Vec<usize>,
    lu: BlockLu,
    p_spec: Vec<f64>,
    q_spec: Vec<f64>,
    v_set: Vec<f64>,
    theta_set: Vec<f64>,
    vm: Vec<f64>,
    va: Vec<f64>,
    /// Voltages of the last converged solve (the warm start).
    last_vm: Vec<f64>,
    last_va: Vec<f64>,
    p_calc: Vec<f64>,
    q_calc: Vec<f64>,
    /// Per Ybus entry `(i, j)`: `G sin θij − B cos θij` and
    /// `G cos θij + B sin θij` at the current iterate.
    t_sin: Vec<f64>,
    t_cos: Vec<f64>,
    /// Mismatch, then Newton step, by elimination position.
    rhs: Vec<[f64; 2]>,
}

impl IslandPlan {
    /// `members` lists `(branch index, from local, to local)`.
    fn analyze(
        index: usize,
        nodes: Vec<usize>,
        kind: Vec<NodeKind>,
        members: &[(usize, usize, usize)],
    ) -> IslandPlan {
        let n = nodes.len();
        let mut rows: Vec<Vec<usize>> = (0..n).map(|i| vec![i]).collect();
        for &(_, i, j) in members {
            rows[i].push(j);
            rows[j].push(i);
        }
        let mut y_ptr = vec![0];
        let mut y_col = Vec::new();
        for mut row in rows {
            row.sort_unstable();
            row.dedup();
            y_col.extend(row);
            y_ptr.push(y_col.len());
        }
        let entry = |i: usize, j: usize| {
            let row = &y_col[y_ptr[i]..y_ptr[i + 1]];
            y_ptr[i] + row.partition_point(|&c| c < j)
        };
        let y_diag: Vec<usize> = (0..n).map(|i| entry(i, i)).collect();
        let branches = members
            .iter()
            .map(|&(bi, i, j)| (bi, [entry(i, i), entry(j, j), entry(i, j), entry(j, i)]))
            .collect();

        // Unknown nodes are the non-slack ones, numbered 0.. in local order.
        let slack = kind
            .iter()
            .position(|&k| k == NodeKind::Slack)
            .expect("an energized island has a slack node");
        let unknown = |l: usize| if l < slack { l } else { l - 1 };
        let lu = BlockLu::analyze(
            n - 1,
            members
                .iter()
                .filter(|&&(_, i, j)| i != slack && j != slack)
                .map(|&(_, i, j)| (unknown(i), unknown(j))),
        );
        let mut j_slot = Vec::with_capacity(y_col.len());
        for i in 0..n {
            for &j in &y_col[y_ptr[i]..y_ptr[i + 1]] {
                j_slot.push((i != slack && j != slack).then(|| lu.slot(unknown(i), unknown(j))));
            }
        }
        let position = (0..n)
            .map(|l| {
                if l == slack {
                    0
                } else {
                    lu.position(unknown(l))
                }
            })
            .collect();
        let entries = y_col.len();
        IslandPlan {
            index,
            nodes,
            kind,
            slack,
            y_ptr,
            y_col,
            y_diag,
            y: vec![Complex::ZERO; entries],
            branches,
            j_slot,
            position,
            rhs: vec![[0.0; 2]; lu.len()],
            lu,
            p_spec: vec![0.0; n],
            q_spec: vec![0.0; n],
            v_set: vec![1.0; n],
            theta_set: vec![0.0; n],
            vm: vec![1.0; n],
            va: vec![0.0; n],
            last_vm: vec![1.0; n],
            last_va: vec![0.0; n],
            p_calc: vec![0.0; n],
            q_calc: vec![0.0; n],
            t_sin: vec![0.0; entries],
            t_cos: vec![0.0; entries],
        }
    }

    /// Runs Newton–Raphson from the last converged voltages (`warm`) or a
    /// flat start, returning the iteration count.
    fn newton(
        &mut self,
        options: &SolveOptions,
        warm: bool,
        stats: &mut SolverStats,
    ) -> Result<usize, PowerFlowError> {
        let n = self.nodes.len();
        if warm {
            self.vm.copy_from_slice(&self.last_vm);
            self.va.copy_from_slice(&self.last_va);
            for l in 0..n {
                match self.kind[l] {
                    NodeKind::Slack => {
                        self.vm[l] = self.v_set[l];
                        self.va[l] = self.theta_set[l];
                    }
                    NodeKind::Pv => self.vm[l] = self.v_set[l],
                    NodeKind::Pq => {}
                }
            }
        } else {
            let theta_slack = self.theta_set[self.slack];
            for l in 0..n {
                (self.vm[l], self.va[l]) = match self.kind[l] {
                    NodeKind::Pq => (1.0, theta_slack),
                    _ => (self.v_set[l], self.theta_set[l]),
                };
            }
        }

        let mut converged = n == 1;
        let mut iterations = 0usize;
        let mut max_mismatch = 0.0f64;
        while !converged && iterations < options.max_iterations {
            iterations += 1;
            stats.iterations += 1;
            max_mismatch = self.mismatch();
            // A non-finite mismatch (NaN injections, runaway divergence) must
            // never count as converged.
            if !max_mismatch.is_finite() {
                max_mismatch = f64::INFINITY;
                break;
            }
            if max_mismatch < options.tolerance {
                converged = true;
                break;
            }
            stats.factorizations += 1;
            if !self.factorize() {
                return Err(PowerFlowError::SingularJacobian { island: self.index });
            }
            self.lu.solve(&mut self.rhs);
            for l in 0..n {
                if l == self.slack {
                    continue;
                }
                let [d_theta, d_v] = self.rhs[self.position[l]];
                self.va[l] += d_theta;
                if self.kind[l] == NodeKind::Pq {
                    self.vm[l] += d_v;
                }
            }
        }
        if !converged {
            return Err(PowerFlowError::DidNotConverge {
                iterations,
                max_mismatch,
            });
        }
        Ok(iterations)
    }

    /// Computes the injections at the current iterate, writes the mismatch
    /// of every unknown into `rhs`, and returns the largest one (NaN when
    /// any is not finite).
    fn mismatch(&mut self) -> f64 {
        let mut max = 0.0f64;
        let mut finite = true;
        for i in 0..self.nodes.len() {
            let (mut p, mut q) = (0.0, 0.0);
            for e in self.y_ptr[i]..self.y_ptr[i + 1] {
                let j = self.y_col[e];
                let Complex { re: g, im: b } = self.y[e];
                let (s, c) = (self.va[i] - self.va[j]).sin_cos();
                let t_sin = g * s - b * c;
                let t_cos = g * c + b * s;
                self.t_sin[e] = t_sin;
                self.t_cos[e] = t_cos;
                p += self.vm[j] * t_cos;
                q += self.vm[j] * t_sin;
            }
            self.p_calc[i] = self.vm[i] * p;
            self.q_calc[i] = self.vm[i] * q;
            if i == self.slack {
                continue;
            }
            let dp = self.p_spec[i] - self.p_calc[i];
            let dq = if self.kind[i] == NodeKind::Pq {
                self.q_spec[i] - self.q_calc[i]
            } else {
                0.0
            };
            finite &= dp.is_finite() && dq.is_finite();
            max = max.max(dp.abs()).max(dq.abs());
            self.rhs[self.position[i]] = [dp, dq];
        }
        if finite {
            max
        } else {
            f64::NAN
        }
    }

    /// Assembles the Jacobian at the current iterate and factorizes it.
    /// A PV node's V unknown is pinned: its row and column hold only the
    /// unit diagonal, and its mismatch is zero. Returns `false` when the
    /// Jacobian is singular.
    fn factorize(&mut self) -> bool {
        let IslandPlan {
            kind,
            y_ptr,
            y_col,
            y,
            j_slot,
            vm,
            p_calc,
            q_calc,
            t_sin,
            t_cos,
            lu,
            ..
        } = self;
        lu.factorize(|a| {
            for i in 0..kind.len() {
                let pq_i = kind[i] == NodeKind::Pq;
                for e in y_ptr[i]..y_ptr[i + 1] {
                    let Some(slot) = j_slot[e] else { continue };
                    let j = y_col[e];
                    let pq_j = kind[j] == NodeKind::Pq;
                    let block = if i == j {
                        let Complex { re: g, im: b } = y[e];
                        let (v, p, q) = (vm[i], p_calc[i], q_calc[i]);
                        if pq_i {
                            [-q - b * v * v, p / v + g * v, p - g * v * v, q / v - b * v]
                        } else {
                            [-q - b * v * v, 0.0, 0.0, 1.0]
                        }
                    } else {
                        let (vi, vj) = (vm[i], vm[j]);
                        [
                            vi * vj * t_sin[e],
                            if pq_j { vi * t_cos[e] } else { 0.0 },
                            if pq_i { -vi * vj * t_cos[e] } else { 0.0 },
                            if pq_i && pq_j { vi * t_sin[e] } else { 0.0 },
                        ]
                    };
                    a.add(slot, block);
                }
            }
        })
    }

    /// Makes the working voltages the next warm start.
    fn commit(&mut self) {
        self.last_vm.copy_from_slice(&self.vm);
        self.last_va.copy_from_slice(&self.va);
    }
}

fn extract_results(
    net: &PowerNetwork,
    topo: &Topology,
    branches: &[BranchPu],
    state: &SolvedState,
) -> PowerFlowResult {
    let s_base = net.sn_mva_base;
    let v_of = |node: usize| state.voltage[node];

    let mut result = PowerFlowResult {
        bus: vec![BusResult::default(); net.bus.len()],
        line: vec![BranchResult::default(); net.line.len()],
        trafo: vec![BranchResult::default(); net.trafo.len()],
        ext_grid: vec![ExtGridResult::default(); net.ext_grid.len()],
        gen: vec![GenResult::default(); net.gen.len()],
        iterations: state.iterations,
        total_losses_mw: 0.0,
    };

    for (bi, bus) in net.bus.iter().enumerate() {
        let v = v_of(topo.bus_to_node[bi]);
        let vm = v.abs();
        result.bus[bi] = BusResult {
            vm_pu: vm,
            va_degree: v.arg().to_degrees(),
            p_mw: 0.0,
            q_mvar: 0.0,
            energized: bus.in_service && vm > 1e-6,
        };
    }

    // Branch flows. Net injection accumulators per node for bus p/q reporting.
    let mut node_p = vec![0.0f64; net.bus.len()];
    let mut node_q = vec![0.0f64; net.bus.len()];

    let mut branch_flow = |bpu: &BranchPu, vn_from_kv: f64, vn_to_kv: f64| -> BranchResult {
        let vf = v_of(bpu.from_node);
        let vt = v_of(bpu.to_node);
        if vf.abs() < 1e-9 || vt.abs() < 1e-9 {
            return BranchResult::default();
        }
        let t = bpu.tap;
        let half_charge = Complex::new(0.0, bpu.b_charge / 2.0);
        // Current leaving the from bus into the branch (pi model with tap).
        let i_from = (vf / t - vt) * (bpu.ys / t) + vf * half_charge;
        let i_to = (vt - vf / t) * bpu.ys + vt * half_charge;
        let s_from = vf * i_from.conj() * s_base;
        let s_to = vt * i_to.conj() * s_base;
        let i_base_from = s_base / (3f64.sqrt() * vn_from_kv);
        let i_base_to = s_base / (3f64.sqrt() * vn_to_kv);
        let pl = s_from.re + s_to.re;
        node_p[bpu.from_node] += s_from.re;
        node_q[bpu.from_node] += s_from.im;
        node_p[bpu.to_node] += s_to.re;
        node_q[bpu.to_node] += s_to.im;
        BranchResult {
            p_from_mw: s_from.re,
            q_from_mvar: s_from.im,
            p_to_mw: s_to.re,
            q_to_mvar: s_to.im,
            pl_mw: pl,
            i_from_ka: i_from.abs() * i_base_from,
            i_to_ka: i_to.abs() * i_base_to,
            loading_percent: 0.0,
            in_service: true,
        }
    };

    let (line_pus, trafo_pus) = branches.split_at(topo.active_lines.len());
    for (&lid, bpu) in topo.active_lines.iter().zip(line_pus) {
        let l = &net.line[lid.index()];
        let vn_from = net.bus[l.from_bus.index()].vn_kv;
        let vn_to = net.bus[l.to_bus.index()].vn_kv;
        let mut br = branch_flow(bpu, vn_from, vn_to);
        if l.max_i_ka > 0.0 {
            br.loading_percent = br.i_from_ka.max(br.i_to_ka) / l.max_i_ka * 100.0;
        }
        result.total_losses_mw += br.pl_mw;
        result.line[lid.index()] = br;
    }
    for (&tid, bpu) in topo.active_trafos.iter().zip(trafo_pus) {
        let t = &net.trafo[tid.index()];
        let vn_hv = net.bus[t.hv_bus.index()].vn_kv;
        let vn_lv = net.bus[t.lv_bus.index()].vn_kv;
        let mut br = branch_flow(bpu, vn_hv, vn_lv);
        // Transformer loading against its MVA rating.
        let s_mva = br.p_from_mw.hypot(br.q_from_mvar);
        if t.sn_mva > 0.0 {
            br.loading_percent = s_mva / t.sn_mva * 100.0;
        }
        result.total_losses_mw += br.pl_mw;
        result.trafo[tid.index()] = br;
    }

    // Shunt power consumption contributes to node injections.
    for sh in net.shunt.iter().filter(|s| s.in_service) {
        let node = topo.bus_to_node[sh.bus.index()];
        let v2 = v_of(node).norm_sqr();
        node_p[node] += sh.p_mw * v2;
        node_q[node] += sh.q_mvar * v2;
    }

    // Bus net injection: sum of powers flowing out into branches/shunts.
    // Report the node totals only on the representative bus to avoid double
    // counting across merged buses.
    for bi in 0..net.bus.len() {
        if topo.bus_to_node[bi] == bi {
            result.bus[bi].p_mw = node_p[bi];
            result.bus[bi].q_mvar = node_q[bi];
        }
    }

    // Source powers. The voltage-controlling units of a node — its
    // in-service external grids and generators — share the Q that holds
    // its voltage equally, so the node's Q is counted once however many
    // units sit there. P is not shared: the island's slack takes the
    // node's P balance, a PV generator its set-point, and an external
    // grid that is not its island's slack none.
    let node_of = |bus: BusId| topo.bus_to_node[bus.index()];
    let mut units = vec![0u32; net.bus.len()];
    let ext_grids = net.ext_grid.iter().filter(|e| e.in_service).map(|e| e.bus);
    let gens = net.gen.iter().filter(|g| g.in_service).map(|g| g.bus);
    for bus in ext_grids.chain(gens) {
        if net.bus[bus.index()].in_service {
            units[node_of(bus)] += 1;
        }
    }
    let q_share = |node: usize, q: f64| q / f64::from(units[node].max(1));

    let (mut slack_gens, mut slack_ext_grids) = (Vec::new(), Vec::new());
    for island in &topo.islands {
        let Some(slack) = island.slack else { continue };
        let node = slack_node(net, topo, slack);
        let slack_gen = match slack {
            SlackSource::Gen(gid) => Some(gid.index()),
            SlackSource::ExtGrid(_) => None,
        };
        let (p, q) = node_balance(net, topo, node, slack_gen, &node_p, &node_q);
        let q = q_share(node, q);
        match slack {
            SlackSource::ExtGrid(eid) => {
                result.ext_grid[eid.index()] = ExtGridResult { p_mw: p, q_mvar: q };
                slack_ext_grids.push(eid.index());
            }
            SlackSource::Gen(gid) => {
                result.gen[gid.index()] = GenResult {
                    p_mw: p,
                    q_mvar: q,
                    vm_pu: v_of(node).abs(),
                };
                slack_gens.push(gid.index());
            }
        }
    }
    // The other external grids of an energized node: their share of Q.
    for (ei, e) in net.ext_grid.iter().enumerate() {
        if !e.in_service || slack_ext_grids.contains(&ei) || !result.bus[e.bus.index()].energized {
            continue;
        }
        let node = node_of(e.bus);
        let (_, q) = node_balance(net, topo, node, None, &node_p, &node_q);
        result.ext_grid[ei].q_mvar = q_share(node, q);
    }
    // PV generators: their share of the Q that holds the set-point.
    for (gi, g) in net.gen.iter().enumerate() {
        if !g.in_service || slack_gens.contains(&gi) {
            continue;
        }
        let node = node_of(g.bus);
        let (_, q) = node_balance(net, topo, node, Some(gi), &node_p, &node_q);
        result.gen[gi] = GenResult {
            p_mw: g.p_mw,
            q_mvar: q_share(node, q),
            vm_pu: v_of(node).abs(),
        };
    }

    result
}

/// Power that must be injected at `node` by its voltage-controlling units
/// (generator `source_gen`, or an external grid): branch outflow at the node
/// plus local load, minus local sgen injection and the active-power
/// set-points of the node's other in-service generators. The Q is the
/// node's whole; [`extract_results`] shares it among the units.
fn node_balance(
    net: &PowerNetwork,
    topo: &Topology,
    node: usize,
    source_gen: Option<usize>,
    node_p: &[f64],
    node_q: &[f64],
) -> (f64, f64) {
    let mut p = node_p[node];
    let mut q = node_q[node];
    for (gi, g) in net.gen.iter().enumerate() {
        if g.in_service && Some(gi) != source_gen && topo.bus_to_node[g.bus.index()] == node {
            p -= g.p_mw;
        }
    }
    for l in net.load.iter().filter(|l| l.in_service) {
        if topo.bus_to_node[l.bus.index()] == node {
            p += l.p_mw * l.scaling;
            q += l.q_mvar * l.scaling;
        }
    }
    for s in net.sgen.iter().filter(|s| s.in_service) {
        if topo.bus_to_node[s.bus.index()] == node {
            p -= s.p_mw * s.scaling;
            q -= s.q_mvar * s.scaling;
        }
    }
    (p, q)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::SwitchTarget;

    /// Two-bus network with a known analytic solution region.
    fn two_bus() -> PowerNetwork {
        let mut net = PowerNetwork::new("two-bus");
        let b1 = net.add_bus("b1", 110.0);
        let b2 = net.add_bus("b2", 110.0);
        net.add_ext_grid("grid", b1, 1.0, 0.0);
        net.add_line("l1", b1, b2, 10.0, 0.06, 0.12, 0.0, 1.0);
        net.add_load("load", b2, 30.0, 10.0);
        net
    }

    #[test]
    fn two_bus_converges_and_balances() {
        let net = two_bus();
        let res = solve(&net).unwrap();
        assert!(res.iterations <= 10);
        // Voltage drops below the slack under load.
        assert!(res.bus[1].vm_pu < 1.0);
        assert!(res.bus[1].vm_pu > 0.9);
        // Slack supplies load + losses.
        let supplied = res.total_ext_grid_p_mw();
        assert!(supplied > 30.0);
        assert!((supplied - 30.0 - res.total_losses_mw).abs() < 1e-6);
    }

    #[test]
    fn no_load_means_flat_voltage() {
        let mut net = two_bus();
        net.load[0].in_service = false;
        let res = solve(&net).unwrap();
        assert!((res.bus[1].vm_pu - 1.0).abs() < 1e-9);
        assert!(res.total_losses_mw.abs() < 1e-9);
    }

    #[test]
    fn nan_load_is_nonconvergence_not_success() {
        let mut net = two_bus();
        net.load[0].p_mw = f64::NAN;
        // NaN poisons the mismatch vector; `f64::max` would silently fold it
        // to 0.0 and report a NaN voltage profile as converged.
        match solve(&net) {
            Err(PowerFlowError::DidNotConverge { max_mismatch, .. }) => {
                assert!(!max_mismatch.is_finite());
            }
            other => panic!("expected DidNotConverge, got {other:?}"),
        }
    }

    #[test]
    fn heavier_load_lower_voltage() {
        let mut net = two_bus();
        let res1 = solve(&net).unwrap();
        net.load[0].p_mw = 60.0;
        let res2 = solve(&net).unwrap();
        assert!(res2.bus[1].vm_pu < res1.bus[1].vm_pu);
        assert!(res2.line[0].loading_percent > res1.line[0].loading_percent);
    }

    #[test]
    fn open_breaker_deenergizes_load_bus() {
        let mut net = two_bus();
        let b1 = net.bus_by_name("b1").unwrap();
        net.add_switch(
            "cb",
            b1,
            SwitchTarget::Line(crate::network::LineId(0)),
            true,
        );
        let res = solve(&net).unwrap();
        assert!(res.bus[1].energized);
        net.set_switch("cb", false);
        let res = solve(&net).unwrap();
        assert!(!res.bus[1].energized);
        assert_eq!(res.bus[1].vm_pu, 0.0);
        assert!(!res.line[0].in_service);
        assert!(res.total_ext_grid_p_mw().abs() < 1e-9);
    }

    #[test]
    fn pv_generator_holds_voltage() {
        let mut net = two_bus();
        let b2 = net.bus_by_name("b2").unwrap();
        net.add_gen("g1", b2, 10.0, 1.02);
        let res = solve(&net).unwrap();
        assert!((res.bus[1].vm_pu - 1.02).abs() < 1e-6);
        // Generator absorbs/produces Q to hold the set-point.
        assert!(res.gen[0].q_mvar.abs() > 0.0);
    }

    #[test]
    fn units_at_one_node_share_its_q() {
        // b1 holds the slack grid and g1, b2 holds g2; `extra` adds a second
        // grid at b1 and a second generator at b2, which move no voltage.
        let solve_with = |extra: bool| {
            let mut net = two_bus();
            let b1 = net.bus_by_name("b1").unwrap();
            let b2 = net.bus_by_name("b2").unwrap();
            net.add_gen("g1", b1, 5.0, 1.0);
            net.add_gen("g2", b2, 10.0, 1.02);
            if extra {
                net.add_ext_grid("grid2", b1, 1.0, 0.0);
                net.add_gen("g3", b2, 0.0, 1.02);
            }
            solve(&net).unwrap()
        };
        let (two, three) = (solve_with(false), solve_with(true));
        assert_eq!(two.bus, three.bus);
        let close = |a: f64, b: f64| (a - b).abs() < 1e-9;
        // b1: two units, then three, share the same node Q.
        let b1_two = [two.ext_grid[0].q_mvar, two.gen[0].q_mvar];
        let b1_three = [
            three.ext_grid[0].q_mvar,
            three.ext_grid[1].q_mvar,
            three.gen[0].q_mvar,
        ];
        assert!(b1_two[0] != 0.0 && b1_two[0] == b1_two[1], "{b1_two:?}");
        assert!(b1_three.iter().all(|&q| q == b1_three[0]), "{b1_three:?}");
        assert!(close(3.0 * b1_three[0], 2.0 * b1_two[0]));
        // b2: one generator holds the set-point alone, then two share it.
        assert_eq!(three.gen[1].q_mvar, three.gen[2].q_mvar);
        assert!(close(2.0 * three.gen[1].q_mvar, two.gen[1].q_mvar));
        // P is not shared: the slack takes the balance, a second grid none.
        assert_eq!(three.ext_grid[0].p_mw, two.ext_grid[0].p_mw);
        assert_eq!(three.ext_grid[1].p_mw, 0.0);
    }

    #[test]
    fn trafo_network_converges() {
        let mut net = PowerNetwork::new("hv-lv");
        let hv = net.add_bus("hv", 110.0);
        let lv = net.add_bus("lv", 20.0);
        net.add_ext_grid("grid", hv, 1.0, 0.0);
        net.add_trafo("t1", hv, lv, 25.0, 110.0, 20.0, 12.0, 0.6);
        net.add_load("load", lv, 15.0, 5.0);
        let res = solve(&net).unwrap();
        assert!(res.bus[1].vm_pu < 1.0 && res.bus[1].vm_pu > 0.85);
        assert!(res.trafo[0].loading_percent > 50.0);
        assert!(res.trafo[0].pl_mw > 0.0);
    }

    #[test]
    fn sgen_reduces_grid_supply() {
        let mut net = two_bus();
        let b2 = net.bus_by_name("b2").unwrap();
        let base = solve(&net).unwrap().total_ext_grid_p_mw();
        net.add_sgen("pv", b2, 10.0, 0.0);
        let with_pv = solve(&net).unwrap().total_ext_grid_p_mw();
        assert!(with_pv < base - 9.0, "PV injection offsets grid supply");
    }

    #[test]
    fn shunt_consumes_reactive_power() {
        let mut net = two_bus();
        let b2 = net.bus_by_name("b2").unwrap();
        let base_q = solve(&net).unwrap().ext_grid[0].q_mvar;
        net.add_shunt("reactor", b2, 0.0, 5.0);
        let with_shunt_q = solve(&net).unwrap().ext_grid[0].q_mvar;
        assert!(with_shunt_q > base_q + 3.0);
    }

    #[test]
    fn meshed_network_converges() {
        // Triangle grid with two loads.
        let mut net = PowerNetwork::new("mesh");
        let b1 = net.add_bus("b1", 110.0);
        let b2 = net.add_bus("b2", 110.0);
        let b3 = net.add_bus("b3", 110.0);
        net.add_ext_grid("grid", b1, 1.01, 0.0);
        net.add_line("l12", b1, b2, 15.0, 0.06, 0.12, 250.0, 0.6);
        net.add_line("l23", b2, b3, 10.0, 0.06, 0.12, 250.0, 0.6);
        net.add_line("l13", b1, b3, 20.0, 0.06, 0.12, 250.0, 0.6);
        net.add_load("ld2", b2, 25.0, 8.0);
        net.add_load("ld3", b3, 15.0, 4.0);
        let res = solve(&net).unwrap();
        assert!(res.iterations < 10);
        let supplied = res.total_ext_grid_p_mw();
        assert!((supplied - 40.0 - res.total_losses_mw).abs() < 1e-6);
        // Kirchhoff check at b2: line flows into b2 equal load.
        let into_b2 = -res.line[0].p_to_mw - res.line[1].p_from_mw;
        assert!((into_b2 - 25.0).abs() < 1e-6);
    }

    #[test]
    fn invalid_reference_rejected() {
        let mut net = PowerNetwork::new("bad");
        let b1 = net.add_bus("b1", 110.0);
        net.add_ext_grid("grid", b1, 1.0, 0.0);
        net.add_load("ld", crate::network::BusId(7), 1.0, 0.0);
        assert!(matches!(
            solve(&net),
            Err(PowerFlowError::InvalidReference { .. })
        ));
    }

    #[test]
    fn invalid_switch_reference_rejected() {
        use crate::network::{BusId, LineId, TrafoId};
        let targets = [
            (BusId(0), SwitchTarget::Bus(BusId(9))),
            (BusId(0), SwitchTarget::Line(LineId(9))),
            (BusId(0), SwitchTarget::Trafo(TrafoId(0))),
            (BusId(9), SwitchTarget::Line(LineId(0))),
        ];
        for (bus, target) in targets {
            let mut net = two_bus();
            net.add_switch("cb", bus, target, false);
            assert!(
                matches!(solve(&net), Err(PowerFlowError::InvalidReference { .. })),
                "{target:?} at {bus:?}"
            );
        }
    }

    #[test]
    fn overload_does_not_converge_or_collapses() {
        let mut net = two_bus();
        net.load[0].p_mw = 5000.0; // far beyond the line's transfer capacity
        match solve(&net) {
            Err(PowerFlowError::DidNotConverge { .. }) => {}
            Ok(res) => {
                assert!(res.bus[1].vm_pu < 0.5, "voltage collapse expected");
            }
            Err(other) => panic!("unexpected error: {other}"),
        }
    }

    /// A radial feeder with `n` load buses.
    fn feeder(n: usize) -> PowerNetwork {
        let mut net = PowerNetwork::new("feeder");
        let mut prev = net.add_bus("b0", 110.0);
        net.add_ext_grid("grid", prev, 1.0, 0.0);
        for i in 1..=n {
            let bus = net.add_bus(&format!("b{i}"), 110.0);
            net.add_line(&format!("l{i}"), prev, bus, 2.0, 0.06, 0.12, 0.0, 1.0);
            net.add_load(&format!("ld{i}"), bus, 0.8, 0.2);
            prev = bus;
        }
        net
    }

    /// Star feeders per substation; substations chained by tie lines in
    /// runs of up to eight, each run starting at the first substation.
    fn multisub(substations: usize, feeders: usize) -> PowerNetwork {
        let mut net = PowerNetwork::new("multisub");
        let mut mains = Vec::new();
        for s in 0..substations {
            let main = net.add_bus(&format!("s{s}main"), 22.0);
            if s == 0 {
                net.add_ext_grid("grid", main, 1.0, 0.0);
            } else {
                let upstream = mains[if s % 8 == 0 { 0 } else { s - 1 }];
                net.add_line(
                    &format!("tie{s}"),
                    upstream,
                    main,
                    5.0,
                    0.08,
                    0.25,
                    0.0,
                    0.8,
                );
            }
            for f in 0..feeders {
                let bus = net.add_bus(&format!("s{s}f{f}"), 22.0);
                net.add_line(&format!("s{s}lf{f}"), main, bus, 1.0, 0.15, 0.12, 0.0, 0.3);
                net.add_load(&format!("s{s}ld{f}"), bus, 0.1, 0.02);
            }
            mains.push(main);
        }
        net
    }

    fn meshed() -> PowerNetwork {
        let mut net = PowerNetwork::new("mesh");
        let b1 = net.add_bus("b1", 110.0);
        let b2 = net.add_bus("b2", 110.0);
        let b3 = net.add_bus("b3", 110.0);
        net.add_ext_grid("grid", b1, 1.01, 0.0);
        net.add_line("l12", b1, b2, 15.0, 0.06, 0.12, 250.0, 0.6);
        net.add_line("l23", b2, b3, 10.0, 0.06, 0.12, 250.0, 0.6);
        net.add_line("l13", b1, b3, 20.0, 0.06, 0.12, 250.0, 0.6);
        net.add_load("ld2", b2, 25.0, 8.0);
        net.add_load("ld3", b3, 15.0, 4.0);
        net
    }

    fn with_pv() -> PowerNetwork {
        let mut net = meshed();
        let b3 = net.bus_by_name("b3").unwrap();
        net.add_gen("g3", b3, 10.0, 1.02);
        net
    }

    fn with_trafo() -> PowerNetwork {
        let mut net = PowerNetwork::new("hv-lv");
        let hv = net.add_bus("hv", 110.0);
        let lv = net.add_bus("lv", 20.0);
        let lv2 = net.add_bus("lv2", 20.0);
        net.add_ext_grid("grid", hv, 1.0, 0.0);
        net.add_trafo("t1", hv, lv, 25.0, 110.0, 20.0, 12.0, 0.6);
        net.add_line("l1", lv, lv2, 3.0, 0.2, 0.3, 10.0, 0.4);
        net.add_load("load", lv, 10.0, 3.0);
        net.add_load("load2", lv2, 5.0, 1.0);
        net.trafo[0].tap_pos = 2;
        net.trafo[0].tap_step_percent = 1.25;
        net
    }

    fn with_shunt() -> PowerNetwork {
        let mut net = meshed();
        let b2 = net.bus_by_name("b2").unwrap();
        net.add_shunt("reactor", b2, 0.5, 5.0);
        net
    }

    /// Two energized islands — the feeder cut after b2, its tail fed by a
    /// generator promoted to slack — with a parallel line, and a closed
    /// coupler that merges b4 and b5 so the line between them is a
    /// self-loop of the merged node.
    fn islands() -> PowerNetwork {
        use crate::network::{BusId, LineId};
        let mut net = feeder(5);
        net.add_gen("g3", BusId(3), 1.0, 1.01);
        net.line[LineId(2).index()].in_service = false;
        net.add_line("l34b", BusId(3), BusId(4), 1.0, 0.06, 0.12, 10.0, 1.0);
        net.add_switch("coupler", BusId(4), SwitchTarget::Bus(BusId(5)), true);
        net
    }

    /// Asserts two results agree to the oracle tolerances: 1e-9 pu in
    /// magnitude and 1e-7 degrees in angle at every bus.
    fn assert_agree(a: &PowerFlowResult, b: &PowerFlowResult, what: &str) {
        assert_eq!(a.bus.len(), b.bus.len());
        for (i, (x, y)) in a.bus.iter().zip(&b.bus).enumerate() {
            assert!(
                (x.vm_pu - y.vm_pu).abs() <= 1e-9,
                "{what}: vm at bus {i}: {x:?} vs {y:?}"
            );
            assert!(
                (x.va_degree - y.va_degree).abs() <= 1e-7,
                "{what}: va at bus {i}: {x:?} vs {y:?}"
            );
            assert_eq!(x.energized, y.energized, "{what}: bus {i}");
        }
    }

    #[test]
    fn sparse_agrees_with_the_dense_oracle() {
        let mut cases: Vec<(String, PowerNetwork)> = Vec::new();
        for n in [5, 20, 50, 100] {
            cases.push((format!("radial {n}"), feeder(n)));
        }
        for subs in [1, 3, 5, 8, 16, 32] {
            cases.push((format!("multisub {subs}x21"), multisub(subs, 21)));
        }
        cases.push(("meshed".into(), meshed()));
        cases.push(("pv".into(), with_pv()));
        cases.push(("trafo".into(), with_trafo()));
        cases.push(("shunt".into(), with_shunt()));
        cases.push(("two-bus".into(), two_bus()));
        cases.push(("islands".into(), islands()));
        for (what, net) in cases {
            let sparse = solve(&net).unwrap_or_else(|e| panic!("{what}: {e}"));
            let dense = dense::solve(&net, &SolveOptions::default())
                .unwrap_or_else(|e| panic!("{what}: {e}"));
            assert_agree(&sparse, &dense, &what);
            assert_eq!(sparse.iterations, dense.iterations, "{what}");
        }
    }

    #[test]
    fn sparse_and_dense_agree_on_failures() {
        let mut nan = two_bus();
        nan.load[0].p_mw = f64::NAN;
        let options = SolveOptions::default();
        assert_eq!(solve(&nan), dense::solve(&nan, &options));
        let mut tight = feeder(20);
        tight.load[19].p_mw = 40.0;
        let capped = SolveOptions {
            max_iterations: 2,
            ..SolveOptions::default()
        };
        let sparse = Solver::new().compute(&tight, &capped);
        assert!(matches!(
            sparse,
            Err(PowerFlowError::DidNotConverge { iterations: 2, .. })
        ));
        assert!(matches!(
            dense::solve(&tight, &capped),
            Err(PowerFlowError::DidNotConverge { iterations: 2, .. })
        ));
    }

    /// Bit-exact rendering of the result tables (floats print shortest
    /// round-trip), without the iteration count.
    fn tables(r: &PowerFlowResult) -> String {
        format!(
            "{:?}{:?}{:?}{:?}{:?}{:?}",
            r.bus, r.line, r.trafo, r.ext_grid, r.gen, r.total_losses_mw
        )
    }

    #[test]
    fn unchanged_network_resolves_in_one_iteration_without_factorizing() {
        let net = TrackedNetwork::new(multisub(5, 21));
        let options = SolveOptions::default();
        let mut solver = Solver::new();
        let first = solver.solve(&net, &options).unwrap().clone();
        assert_eq!(first.iterations, 4);
        let before = solver.stats();
        let again = solver.solve(&net, &options).unwrap().clone();
        let after = solver.stats();
        assert_eq!(again.iterations, 1);
        assert_eq!(after.factorizations, before.factorizations);
        assert_eq!(after.analyses, 1);
        assert_eq!(after.warm_starts, 1);
        assert_eq!(tables(&again), tables(&first));
    }

    /// Drives a solver that replays its kept result and one that always
    /// solves through one script: every answer, iteration count and error
    /// included, is the same, and the kept result serves exactly the calls
    /// on a network not written since a converged call with equal options.
    #[test]
    fn recorded_calls_match_solving_again_bit_for_bit() {
        type Change = fn(&mut TrackedNetwork, &mut SolveOptions);
        let same: Change = |_, _| {};
        let script: [(&str, Change); 16] = [
            ("first", same),
            ("unchanged", same),
            ("unchanged again", same),
            ("same bits written", |net, _| {
                net.load[0].p_mw = f64::from_bits(net.load[0].p_mw.to_bits())
            }),
            ("load moved", |net, _| net.load[3].p_mw *= 1.01),
            ("unchanged after the move", same),
            ("reverted to the first", |net, _| net.load[3].p_mw = 0.1),
            ("switch opened", |net, _| {
                net.set_switch("cb-tie3", false);
            }),
            ("unchanged after the switch", same),
            ("NaN load", |net, _| net.load[0].p_mw = f64::NAN),
            ("NaN load again", same),
            ("NaN restored", |net, _| net.load[0].p_mw = 0.1),
            ("tolerance changed", |_, options| options.tolerance = 1e-9),
            ("slack at -0.0 degrees", |net, _| {
                net.ext_grid[0].va_degree = -0.0
            }),
            ("every line out", |net, _| {
                net.line.iter_mut().for_each(|l| l.in_service = false);
            }),
            ("unchanged with every line out", same),
        ];
        let mut net = TrackedNetwork::new(multisub(5, 21));
        let s2 = net.bus_by_name("s2main").unwrap();
        let tie = net.line_by_name("tie3").unwrap();
        net.add_switch("cb-tie3", s2, SwitchTarget::Line(tie), true);
        let mut options = SolveOptions::default();
        let (mut recorded, mut solving) = (Solver::new(), Solver::new());
        let mut answers = Vec::new();
        let mut served = Vec::new();
        for (what, change) in script {
            change(&mut net, &mut options);
            let reused = recorded.stats().reused;
            let answer = format!("{:?}", recorded.solve(&net, &options));
            let solved = format!("{:?}", solving.compute(&net, &options));
            assert_eq!(answer, solved, "{what}");
            if recorded.stats().reused > reused {
                served.push(what);
            }
            answers.push((what, answer));
        }
        assert_eq!(
            served,
            [
                "unchanged",
                "unchanged again",
                "unchanged after the move",
                "unchanged after the switch",
                "unchanged with every line out",
            ]
        );
        let answer = |what: &str| &answers.iter().find(|(w, _)| *w == what).unwrap().1;
        assert!(answer("unchanged").contains("iterations: 1,"));
        assert_eq!(answer("same bits written"), answer("unchanged again"));
        assert!(answer("NaN load again").starts_with("Err(DidNotConverge"));
        assert!(answer("slack at -0.0 degrees").contains("va_degree: -0.0,"));
        assert!(answer("every line out").contains("iterations: 0,"));
        assert!(answer("unchanged with every line out").contains("iterations: 0,"));
        let (stats, solving) = (recorded.stats(), solving.stats());
        assert_eq!(stats.reused, 5);
        assert_eq!(
            (stats.solves, stats.warm_starts, stats.analyses),
            (solving.solves, solving.warm_starts, solving.analyses)
        );
        assert!(stats.iterations < solving.iterations);
    }

    #[test]
    fn warm_start_follows_parameter_changes() {
        let mut net = TrackedNetwork::new(with_pv());
        let options = SolveOptions::default();
        let mut solver = Solver::new();
        let cold = solver.solve(&net, &options).unwrap().clone();
        // New injections: no re-analysis, fewer iterations.
        net.load[0].p_mw *= 1.01;
        let warm = solver.solve(&net, &options).unwrap();
        assert!(warm.iterations < cold.iterations);
        assert_agree(warm, &solve(&net).unwrap(), "load");
        // New set-points: the warm start re-applies them.
        net.gen[0].vm_pu = 1.03;
        net.ext_grid[0].vm_pu = 1.02;
        let warm = solver.solve(&net, &options).unwrap();
        assert!((warm.bus[2].vm_pu - 1.03).abs() < 1e-12);
        assert!((warm.bus[0].vm_pu - 1.02).abs() < 1e-12);
        assert_agree(warm, &solve(&net).unwrap(), "set-points");
        assert_eq!(solver.stats().analyses, 1);
        assert_eq!(solver.stats().warm_starts, 2);
    }

    #[test]
    fn switch_events_re_analyse_and_match_a_fresh_solve() {
        let mut net = TrackedNetwork::new(multisub(5, 21));
        let s2 = net.bus_by_name("s2main").unwrap();
        let tie = net.line_by_name("tie3").unwrap();
        net.add_switch("cb-tie3", s2, SwitchTarget::Line(tie), true);
        let coupler = net.bus_by_name("s4f0").unwrap();
        let other = net.bus_by_name("s4f1").unwrap();
        net.add_switch("coupler", coupler, SwitchTarget::Bus(other), false);
        let options = SolveOptions::default();
        let mut solver = Solver::new();
        solver.solve(&net, &options).unwrap();
        for (name, closed) in [
            ("cb-tie3", false),
            ("coupler", true),
            ("cb-tie3", true),
            ("coupler", false),
        ] {
            net.set_switch(name, closed);
            let persistent = solver.solve(&net, &options).unwrap();
            let fresh = solve(&net).unwrap();
            assert_agree(persistent, &fresh, name);
            assert_eq!(
                persistent.iterations, fresh.iterations,
                "{name}: flat start after the event"
            );
        }
        let stats = solver.stats();
        assert_eq!(stats.analyses, 5);
        assert_eq!(stats.warm_starts, 0);
        // Taking a load out of service changes no topology: warm again.
        net.load[7].in_service = false;
        let persistent = solver.solve(&net, &options).unwrap();
        assert_agree(persistent, &solve(&net).unwrap(), "load out");
        assert_eq!(solver.stats().warm_starts, 1);
        // A generator going in service turns its node PV: re-analysed.
        let s1 = net.bus_by_name("s1f3").unwrap();
        net.add_gen("g", s1, 0.5, 1.0);
        let persistent = solver.solve(&net, &options).unwrap();
        assert_agree(persistent, &solve(&net).unwrap(), "gen in");
        assert_eq!(solver.stats().analyses, 6);
    }

    #[test]
    fn failed_solve_is_not_the_next_warm_start() {
        let mut net = TrackedNetwork::new(two_bus());
        let options = SolveOptions::default();
        let mut solver = Solver::new();
        let good = solver.solve(&net, &options).unwrap().clone();
        net.load[0].p_mw = f64::NAN;
        match solver.solve(&net, &options) {
            Err(PowerFlowError::DidNotConverge { max_mismatch, .. }) => {
                assert!(!max_mismatch.is_finite());
            }
            other => panic!("expected DidNotConverge, got {other:?}"),
        }
        assert_eq!(solver.stats().flat_retries, 1);
        net.load[0].p_mw = 30.0;
        let again = solver.solve(&net, &options).unwrap();
        // Warm-started from the last *converged* voltages: already solved.
        assert_eq!(again.iterations, 1);
        assert_eq!(tables(again), tables(&good));
    }

    #[test]
    fn failed_warm_start_is_retried_flat() {
        let mut net = TrackedNetwork::new(feeder(5));
        for load in &mut net.load {
            load.p_mw = 12.0;
        }
        let mut solver = Solver::new();
        solver.solve(&net, &SolveOptions::default()).unwrap();
        // Unloaded, the flat start is the exact solution; the warm start
        // from the sagging profile cannot get there in one iteration.
        for load in &mut net.load {
            load.in_service = false;
        }
        let one = SolveOptions {
            max_iterations: 1,
            ..SolveOptions::default()
        };
        let res = solver.solve(&net, &one).unwrap().clone();
        assert_eq!(res.iterations, 1);
        assert_eq!(solver.stats().flat_retries, 1);
        assert!((res.bus[5].vm_pu - 1.0).abs() < 1e-12);
    }
}
