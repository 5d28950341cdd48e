//! The three workloads, driven through the public API: `sgcr_models` →
//! `CompiledModel::shared` → `CyberRange` / `run_farm`.
//!
//! Each run first holds a few tenants alive at their horizon (RSS per
//! tenant), then repeats *rounds* until `--seconds` have passed and every
//! minimum sample count is met. A round interleaves one slice of each
//! measurement — compile (+ instantiate) repetitions, checkpoint resumes, a
//! benchmark-driven tenant, and the main work (a slice of the paper tenant's
//! steps, or one farm round) — so a transient slowdown of the shared host
//! lands on a few samples of every metric instead of on all samples of one.

use crate::cputime::{self, time_ms};
use crate::hostspeed::{HostSpeed, Kernel};
use crate::outcome::{combine, over_campaigns, state_digest, TenantOutcome};
use crate::probes;
use crate::spans::Spans;
use crate::stats::{median, nearest_rank, samples_beyond, samples_for_tail};
use crate::{Metric, RunResult, Tally};
use sgcr_core::{fnv1a_64, Checkpoint, CompiledModel, CyberRange, RangeBuilder, SgmlBundle};
use sgcr_farm::{run_farm, FarmConfig};
use sgcr_models::{epic_bundle, multisub_bundle, MultiSubParams};
use sgcr_net::SimTime;
use sgcr_obs::{json, Telemetry};
use sgcr_scenario::{run_exercise, ExerciseReport, Scenario};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The exercise every tenant of `epic-adversary-farm` runs; its `seed=`
/// attribute is replaced by the run's seed class.
const ADVERSARY_SCENARIO: &str =
    include_str!("../../examples/scenarios/epic_adversary.scenario.xml");

/// The workload seed selects one of this many adversary campaigns (seed
/// modulo this), so every campaign a run can draw has a recorded digest.
pub const ADVERSARY_SEED_CLASSES: u64 = 64;

/// Farm worker threads: the benchmark host has two cores, and the farm also
/// runs its (mostly idle) collector thread.
const FARM_THREADS: usize = 2;

/// Supervisor checkpoint cadence of the farm workloads, so a soak tenant
/// (about 150 ms of wall time) is checkpointed about once per run.
const FARM_COLLECT_MS: u64 = 100;

/// Timed checkpoint captures behind `core.checkpoint_capture_ms`.
const CAPTURE_REPS: usize = 5;

/// paper-5x104: main-tenant steps between host-speed reference ticks.
const TICK_STEPS: usize = 4;

/// The `step.plane.*` planes, in report order, with their metric names.
const PLANES: [(&str, &str); 6] = [
    ("power", "step.plane.power_ms"),
    ("net", "step.plane.net_ms"),
    ("ied", "step.plane.ied_ms"),
    ("plc", "step.plane.plc_ms"),
    ("scada", "step.plane.scada_ms"),
    ("other", "step.plane.other_ms"),
];

/// A workload the benchmark runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    Paper,
    EpicFarm,
    AdversaryFarm,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::Paper, Workload::EpicFarm, Workload::AdversaryFarm];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Paper => "paper-5x104",
            Workload::EpicFarm => "epic-farm",
            Workload::AdversaryFarm => "epic-adversary-farm",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The host-speed reference kernel the workload's timings are scaled
    /// by: the one like its hot path.
    pub fn kernel(self) -> Kernel {
        match self {
            Workload::Paper => Kernel::Dense,
            Workload::EpicFarm | Workload::AdversaryFarm => Kernel::Objects,
        }
    }

    /// Runs the workload.
    pub fn run(self, ctx: &mut Ctx) -> RunResult {
        match self {
            Workload::Paper => paper(ctx),
            Workload::EpicFarm => epic(ctx, false),
            Workload::AdversaryFarm => epic(ctx, true),
        }
    }
}

/// How much work a run does. [`Sizes::full`] is what the benchmark runs.
/// The digest depends only on the horizons (`digest_steps`, `held_steps`,
/// `soak_seconds`) and the seed, never on the counts.
#[derive(Clone, Copy, Debug)]
pub struct Sizes {
    /// Tenants held alive at their horizon for `rss_mb_per_tenant`.
    pub held: usize,
    /// Rounds at least.
    pub min_rounds: usize,
    /// Compile (+ instantiate) repetitions per round, behind `setup_s`.
    pub setup_per_round: usize,
    /// Checkpoint resumes per round, behind `resume_s`.
    pub resume_per_round: usize,
    /// paper-5x104: timed main-tenant steps at least (p99 needs 1000).
    pub min_steps: usize,
    /// paper-5x104: main-tenant steps per round.
    pub slice_steps: usize,
    /// paper-5x104: the main tenant's digest is taken after this many steps.
    pub digest_steps: u64,
    /// paper-5x104: the held and driven tenants' horizon, in steps.
    pub held_steps: u64,
    /// paper-5x104: age of the resumed checkpoint, in steps.
    pub resume_age: u64,
    /// epic-farm: each soak tenant's horizon, simulated seconds.
    pub soak_seconds: u64,
    /// Tenants per farm round.
    pub farm_tenants: usize,
    /// Farm tenants (exercises) at least, over all rounds.
    pub min_tenants: usize,
    /// epic-adversary-farm: adversary campaign classes a run cycles
    /// through, from the run's seed on; rounds run in whole cycles.
    pub campaigns: usize,
}

impl Sizes {
    /// The benchmark's sizes.
    pub fn full(workload: Workload) -> Sizes {
        let base = Sizes {
            held: 8,
            min_rounds: 4,
            setup_per_round: 8,
            resume_per_round: 1,
            min_steps: samples_for_tail(99),
            slice_steps: 100,
            digest_steps: 1000,
            held_steps: 10,
            // Old enough that replay, not the fixed cost of decoding and
            // verifying the checkpoint, dominates the resume.
            resume_age: 100,
            soak_seconds: 120,
            farm_tenants: 8,
            min_tenants: 0,
            campaigns: 1,
        };
        match workload {
            Workload::Paper => Sizes {
                setup_per_round: 1,
                farm_tenants: 2,
                ..base
            },
            Workload::EpicFarm => base,
            // Every run plays all campaign classes, so its inputs differ
            // from another seed's only in order and fault seeds.
            Workload::AdversaryFarm => Sizes {
                held: 16,
                setup_per_round: 1,
                farm_tenants: 16,
                min_tenants: samples_for_tail(99),
                campaigns: ADVERSARY_SEED_CLASSES as usize,
                ..base
            },
        }
    }

    /// The least work that still yields the full-size digest: what
    /// `--record-digests` runs.
    pub fn record(workload: Workload) -> Sizes {
        Sizes {
            held: 1,
            min_rounds: 1,
            setup_per_round: 1,
            min_steps: 1,
            farm_tenants: 2,
            min_tenants: 0,
            campaigns: 1,
            ..Sizes::full(workload)
        }
    }

    /// A smoke-test profile with short horizons. Its digests differ from the
    /// recorded full-size ones, except on the adversary workload, whose
    /// horizon is the scenario's own.
    #[cfg(test)]
    pub fn tiny(workload: Workload) -> Sizes {
        Sizes {
            held: 2,
            min_rounds: 2,
            min_steps: 4,
            slice_steps: 2,
            digest_steps: 3,
            held_steps: 2,
            resume_age: 2,
            soak_seconds: 1,
            farm_tenants: 3,
            campaigns: if workload == Workload::AdversaryFarm {
                2
            } else {
                1
            },
            ..Sizes::record(workload)
        }
    }
}

/// The campaign class of round (or held tenant) `i`: the run's classes are
/// `seed, seed + 1, …` (modulo [`ADVERSARY_SEED_CLASSES`]), taken in turn.
fn campaign_class(ctx: &Ctx, i: usize) -> u64 {
    let offset = (i % ctx.sizes.campaigns.max(1)) as u64;
    (ctx.seed % ADVERSARY_SEED_CLASSES + offset) % ADVERSARY_SEED_CLASSES
}

/// One run's settings and scratch space.
pub struct Ctx {
    pub seed: u64,
    /// How long the rounds run, at least.
    pub budget: Duration,
    /// Traced run: record spans and compute the per-layer metrics.
    pub trace: bool,
    pub spans: Spans,
    /// Scratch directory for farm sinks; created and removed by the caller.
    pub work: PathBuf,
    pub sizes: Sizes,
    /// The reference every gated timing is scaled by.
    pub speed: HostSpeed,
}

impl Ctx {
    pub fn new(
        seed: u64,
        budget: Duration,
        trace: bool,
        work: PathBuf,
        sizes: Sizes,
        kernel: Kernel,
    ) -> Ctx {
        Ctx {
            seed,
            budget,
            trace,
            spans: Spans::new(trace),
            work,
            sizes,
            speed: HostSpeed::new(kernel),
        }
    }
}

/// Multiplies every sample from index `from` on by `scale`.
fn scale_from(samples: &mut [f64], from: usize, scale: f64) {
    for sample in &mut samples[from..] {
        *sample *= scale;
    }
}

fn telemetry(on: bool) -> Telemetry {
    if on {
        Telemetry::new()
    } else {
        Telemetry::disabled()
    }
}

/// Compiles the bundle under a `core.compile` span.
fn compile(ctx: &mut Ctx, bundle: &SgmlBundle, tally: &mut Tally) -> Option<Arc<CompiledModel>> {
    let model = ctx
        .spans
        .time("core.compile", || CompiledModel::shared(bundle));
    tally.result(model.map_err(|e| format!("compile: {e}")))
}

/// Instantiates a tenant under a `core.instantiate` span.
fn instantiate(
    ctx: &mut Ctx,
    model: &Arc<CompiledModel>,
    telemetry: Telemetry,
    fault_seed: u64,
) -> Result<CyberRange, String> {
    ctx.spans.time("core.instantiate", || {
        RangeBuilder::from_model(model.clone())
            .telemetry(telemetry)
            .fault_seed(fault_seed)
            .build()
            .map_err(|e| format!("instantiate: {e}"))
    })
}

/// Timings of the compile (+ instantiate) repetitions behind `setup_s`.
#[derive(Default)]
struct Setup {
    total_s: Vec<f64>,
    compile_ms: Vec<f64>,
    instantiate_ms: Vec<f64>,
}

impl Setup {
    /// One timed repetition: compile the bundle and, with `fault_seed`,
    /// instantiate the tenant the benchmark drives itself.
    fn rep(
        &mut self,
        ctx: &mut Ctx,
        bundle: &SgmlBundle,
        fault_seed: Option<u64>,
        tally: &mut Tally,
    ) -> Option<(Arc<CompiledModel>, Option<CyberRange>)> {
        ctx.speed.tick();
        let (model, compile_ms) = time_ms(|| compile(ctx, bundle, tally));
        let model = model?;
        let (range, instantiate_ms) = time_ms(|| {
            fault_seed.map(|seed| instantiate(ctx, &model, Telemetry::disabled(), seed))
        });
        let range = match range {
            Some(range) => Some(tally.result(range)?),
            None => None,
        };
        let scale = ctx.speed.scale();
        self.total_s
            .push((compile_ms + instantiate_ms) * scale / 1e3);
        self.compile_ms.push(compile_ms * scale);
        if range.is_some() {
            self.instantiate_ms.push(instantiate_ms * scale);
        }
        Some((model, range))
    }
}

/// What driving a tenant returns: its exercise report, when it ran one.
type Driven = Result<Option<ExerciseReport>, String>;

/// Drives a fresh tenant to its horizon (running campaign class `class`,
/// on the adversary workload), appending per-step wall times in ms.
type Drive<'a> = dyn FnMut(&mut CyberRange, &mut Vec<f64>, u64) -> Driven + 'a;

/// Benchmark-driven tenants: the held ones and one per round.
#[derive(Default)]
struct Tenants {
    driven: u64,
    /// Instantiate-to-horizon CPU time per tenant, in ms.
    run_ms: Vec<f64>,
    instantiate_ms: Vec<f64>,
    step_ms: Vec<f64>,
    reports: Vec<ExerciseReport>,
    /// Per campaign class, the `(state, telemetry)` digests every tenant of
    /// that class must reproduce.
    digests: BTreeMap<u64, (u64, u64)>,
}

impl Tenants {
    /// Instantiates tenant number `driven` under fault seed `seed + driven`
    /// (as the farm seeds its tenants), drives it through campaign `class`,
    /// checks its digests against the first tenant of the class, and
    /// returns it.
    fn drive(
        &mut self,
        ctx: &mut Ctx,
        model: &Arc<CompiledModel>,
        telemetry_on: bool,
        class: u64,
        tally: &mut Tally,
        drive: &mut Drive<'_>,
    ) -> Option<(CyberRange, Telemetry)> {
        let i = self.driven;
        self.driven += 1;
        let telemetry = telemetry(telemetry_on);
        let (range, instantiate_ms) =
            time_ms(|| instantiate(ctx, model, telemetry.clone(), ctx.seed.wrapping_add(i)));
        let mut range = tally.result(range)?;
        let first_step = self.step_ms.len();
        let (report, run_ms) = time_ms(|| {
            ctx.spans
                .time("tenant.run", || drive(&mut range, &mut self.step_ms, class))
        });
        ctx.speed.tick();
        let scale = ctx.speed.scale();
        scale_from(&mut self.step_ms, first_step, scale);
        let report = tally.result(report)?;
        self.instantiate_ms.push(instantiate_ms * scale);
        self.run_ms.push((instantiate_ms + run_ms) * scale);
        tally.check(range.solve_errors_total() == 0, || {
            format!(
                "tenant {i}: {} non-converged solves",
                range.solve_errors_total()
            )
        });
        let mut state = state_digest(&range);
        if let Some(report) = &report {
            state = combine(&[
                ("state", state),
                ("report", fnv1a_64(report.to_json().as_bytes())),
            ]);
        }
        let score = report.as_ref().map(|r| (r.score().earned, r.score().total));
        let outcome =
            TenantOutcome::from_telemetry(range.steps_total(), score, &telemetry).digest();
        let first = *self.digests.entry(class).or_insert((state, outcome));
        tally.check(first == (state, outcome), || {
            format!("tenant {i}: digests differ from the first tenant of campaign {class}")
        });
        self.reports.extend(report);
        Some((range, telemetry))
    }

    /// The telemetry-visible outcome digest of campaign `class`.
    fn outcome(&self, class: u64) -> Option<u64> {
        self.digests.get(&class).map(|d| d.1)
    }

    /// The run's `sim_digest`: per campaign class, the tenant outcome and
    /// range state combined; over several classes, those in class order.
    fn digest(&self) -> u64 {
        let per_class: Vec<u64> = self
            .digests
            .values()
            .map(|&(state, outcome)| combine(&[("tenant", outcome), ("held", state)]))
            .collect();
        over_campaigns(&per_class)
    }
}

/// Tenants kept alive at their horizon, and the RSS they added.
struct Held {
    ranges: Vec<(CyberRange, Telemetry)>,
    count: usize,
    rss_mb_per_tenant: f64,
}

/// Drives `ctx.sizes.held` tenants one after another (through the run's
/// campaigns in turn) and keeps them all alive to measure RSS growth per
/// tenant.
fn hold(
    ctx: &mut Ctx,
    model: &Arc<CompiledModel>,
    telemetry_on: bool,
    tenants: &mut Tenants,
    tally: &mut Tally,
    drive: &mut Drive<'_>,
) -> Held {
    let rss = || sgcr_obs::agg::rss_bytes().unwrap_or(0) as f64;
    let before = rss();
    let ranges: Vec<_> = (0..ctx.sizes.held.max(1))
        .filter_map(|i| {
            let class = campaign_class(ctx, i);
            tenants.drive(ctx, model, telemetry_on, class, tally, drive)
        })
        .collect();
    let count = ranges.len();
    Held {
        rss_mb_per_tenant: (rss() - before) / count.max(1) as f64 / 1e6,
        ranges,
        count,
    }
}

/// A serialized checkpoint and the timings of capturing and resuming it.
struct Resume {
    json: String,
    age: u64,
    capture_ms: Vec<f64>,
    resume_s: Vec<f64>,
}

impl Resume {
    /// Checkpoints `range` (timing [`CAPTURE_REPS`] captures).
    fn capture(ctx: &mut Ctx, range: &CyberRange) -> Resume {
        let mut out = Resume {
            json: String::new(),
            age: range.steps_total(),
            capture_ms: Vec::new(),
            resume_s: Vec::new(),
        };
        for _ in 0..CAPTURE_REPS {
            let (checkpoint, capture_ms) = time_ms(|| {
                ctx.spans
                    .time("core.checkpoint_capture", || range.checkpoint())
            });
            out.capture_ms.push(capture_ms * ctx.speed.scale());
            out.json = checkpoint.to_json();
        }
        out
    }

    /// One timed `Checkpoint::from_json` + `resume`, which must return `Ok`
    /// (digest-verified by `resume` itself) at the checkpointed step.
    fn rep(
        &mut self,
        ctx: &mut Ctx,
        model: &Arc<CompiledModel>,
        telemetry_on: bool,
        tally: &mut Tally,
    ) {
        let telemetry = telemetry(telemetry_on);
        let (resumed, resume_ms) = time_ms(|| {
            ctx.spans.time("core.resume", || {
                Checkpoint::from_json(&self.json).and_then(|c| c.resume(model.clone(), telemetry))
            })
        });
        match resumed {
            Ok(range) => {
                let age = self.age;
                tally.check(range.steps_total() == age, || {
                    format!("resume reached step {} not {age}", range.steps_total())
                });
                self.resume_s.push(resume_ms * ctx.speed.scale() / 1e3);
            }
            Err(e) => tally.check(false, || format!("resume: {e}")),
        }
    }
}

/// Where step wall time went, summed from the exact histogram sums of one
/// or more tenants' metrics.
#[derive(Default)]
struct Attribution {
    steps: u64,
    step_s: f64,
    planes_s: [f64; 6],
    frames: u64,
    events: u64,
    dropped: u64,
}

impl Attribution {
    /// Adds one tenant's metrics (the `metrics.json` schema) and journal size.
    fn add(&mut self, metrics: &json::Value, events: u64) {
        let hist = |name: &str| metrics.get("histograms").and_then(|h| h.get(name));
        let sum = |name: &str| {
            hist(name)
                .and_then(|h| h.get("sum"))
                .and_then(json::Value::as_f64)
                .unwrap_or(0.0)
        };
        self.steps += hist("range.step_seconds")
            .and_then(|h| h.get("count"))
            .and_then(json::Value::as_u64)
            .unwrap_or(0);
        self.step_s += sum("range.step_seconds");
        for (slot, (plane, _)) in self.planes_s.iter_mut().zip(PLANES) {
            *slot += sum(&format!("step.plane.{plane}_seconds"));
        }
        self.frames += metrics
            .get("counters")
            .and_then(|c| c.get("net.frames_delivered"))
            .and_then(json::Value::as_u64)
            .unwrap_or(0);
        self.dropped += metrics
            .get("journal_dropped")
            .and_then(json::Value::as_u64)
            .unwrap_or(0);
        self.events += events;
    }

    fn add_telemetry(&mut self, telemetry: &Telemetry) {
        if let Ok(metrics) = json::parse(&telemetry.snapshot().to_json()) {
            self.add(&metrics, telemetry.events().len() as u64);
        }
    }

    /// `core.step_ms`, the plane split plus its unattributed remainder (they
    /// add up to `core.step_ms`), and the net and journal rates.
    fn metrics(&self) -> Vec<Metric> {
        let steps = self.steps.max(1) as f64;
        let n = self.steps as usize;
        let per_step_ms = |s: f64| s / steps * 1e3;
        let step_ms = per_step_ms(self.step_s);
        let mut out = vec![Metric::new("core.step_ms", "ms", step_ms, n)];
        for ((_, name), s) in PLANES.iter().zip(self.planes_s) {
            out.push(Metric::new(name, "ms", per_step_ms(s), n));
        }
        let attributed: f64 = self.planes_s.iter().map(|&s| per_step_ms(s)).sum();
        out.extend([
            Metric::new("step.unattributed_ms", "ms", step_ms - attributed, n),
            Metric::new(
                "net.frames_per_step",
                "frames/step",
                self.frames as f64 / steps,
                n,
            ),
            Metric::new(
                "net.dispatch_us_per_frame",
                "us",
                self.planes_s[1] / self.frames.max(1) as f64 * 1e6,
                self.frames as usize,
            ),
            Metric::new(
                "obs.journal_events_per_step",
                "events/step",
                self.events as f64 / steps,
                n,
            ),
            Metric::new("obs.journal_dropped", "count", self.dropped as f64, n),
        ]);
        out
    }
}

/// Farm-level accounting over the rounds of a run.
#[derive(Default)]
struct FarmPhase {
    rounds: usize,
    /// Simulated tenant-seconds per CPU second of the whole process, per
    /// round.
    rate: Vec<f64>,
    /// Simulated tenant-seconds per wall second, per round.
    wall_rate: Vec<f64>,
    /// Per-tenant `TenantReport::wall_seconds`, in ms.
    tenant_wall_ms: Vec<f64>,
    tenant_wall_s: f64,
    farm_wall_s: f64,
    journal_write_s: f64,
    journal_bytes: u64,
    checkpoints: u64,
    attribution: Attribution,
}

impl FarmPhase {
    /// Runs one farm round with per-tenant sinks in a fresh directory,
    /// checks every tenant — each must complete and reach the outcome
    /// digest `expect` (the benchmark-driven tenants'), or with `None` the
    /// round's first tenant's — and folds the round into the phase.
    fn round(
        &mut self,
        ctx: &mut Ctx,
        model: &Arc<CompiledModel>,
        sim_seconds: u64,
        scenario: Option<&Scenario>,
        mut expect: Option<u64>,
        tally: &mut Tally,
    ) {
        let dir = ctx.work.join(format!("round-{}", self.rounds));
        let config = FarmConfig {
            tenants: ctx.sizes.farm_tenants,
            threads: FARM_THREADS,
            sim_seconds,
            base_fault_seed: ctx.seed,
            scenario: scenario.cloned(),
            out_dir: Some(dir.clone()),
            collect_interval_ms: FARM_COLLECT_MS,
            ..FarmConfig::default()
        };
        ctx.speed.tick();
        let (t, cpu) = (Instant::now(), cputime::process_seconds());
        let report = ctx
            .spans
            .time("farm.run", || run_farm(model.clone(), &config));
        let (wall, cpu) = (t.elapsed().as_secs_f64(), cputime::process_seconds() - cpu);
        ctx.speed.tick();
        let scale = ctx.speed.scale();
        let interval_s = model.interval.as_secs_f64();
        let mut sim_s = 0.0;
        for tenant in &report.per_tenant {
            let i = tenant.tenant;
            let ok =
                tenant.error.is_none() && !tenant.halted && !tenant.given_up && !tenant.drained;
            tally.check(ok, || {
                format!("farm tenant {i}: did not complete ({:?})", tenant.error)
            });
            if !ok {
                continue;
            }
            tally.check(tenant.solve_errors == 0, || {
                format!(
                    "farm tenant {i}: {} non-converged solves",
                    tenant.solve_errors
                )
            });
            sim_s += tenant.steps as f64 * interval_s;
            self.tenant_wall_ms.push(tenant.wall_seconds * 1e3);
            self.tenant_wall_s += tenant.wall_seconds;
            let read =
                |ext: &str| std::fs::read_to_string(dir.join(format!("tenant-{i:04}.{ext}")));
            let (Ok(metrics), Ok(journal)) = (read("metrics.json"), read("journal.jsonl")) else {
                tally.check(false, || format!("farm tenant {i}: sink files missing"));
                continue;
            };
            match TenantOutcome::from_sinks(tenant.steps, tenant.score, &metrics, &journal) {
                Ok(outcome) => {
                    tally.check(outcome.journal_dropped == 0, || {
                        format!(
                            "farm tenant {i}: {} journal events over the cap",
                            outcome.journal_dropped
                        )
                    });
                    let digest = outcome.digest();
                    let expected = *expect.get_or_insert(digest);
                    tally.check(expected == digest, || {
                        format!(
                            "farm tenant {i}: outcome differs from the benchmark-driven tenants'"
                        )
                    });
                }
                Err(e) => tally.check(false, || format!("farm tenant {i}: bad sinks: {e}")),
            }
            if let Ok(parsed) = json::parse(&metrics) {
                self.attribution
                    .add(&parsed, journal.lines().count() as u64);
            }
        }
        self.rate.push(sim_s / (cpu * scale));
        self.wall_rate.push(sim_s / wall);
        self.farm_wall_s += wall;
        self.journal_write_s += report.journal_write_seconds;
        self.journal_bytes += report.journal_bytes_written;
        self.checkpoints += std::fs::read_to_string(dir.join("farm.journal.jsonl"))
            .map_or(0, |j| {
                j.matches("\"type\":\"TenantCheckpointed\"").count() as u64
            });
        self.rounds += 1;
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn metrics(&self) -> Vec<Metric> {
        let rounds = self.rounds.max(1) as f64;
        vec![
            Metric::new(
                "farm.worker_busy_frac",
                "ratio",
                self.tenant_wall_s / (FARM_THREADS as f64 * self.farm_wall_s.max(1e-9)),
                self.rounds,
            ),
            Metric::new(
                "farm.in_step_frac",
                "ratio",
                self.attribution.step_s / self.tenant_wall_s.max(1e-9),
                self.tenant_wall_ms.len(),
            ),
            Metric::new(
                "farm.journal_write_s",
                "s",
                self.journal_write_s / rounds,
                self.rounds,
            ),
            Metric::new(
                "farm.journal_mb",
                "MB",
                self.journal_bytes as f64 / rounds / 1e6,
                self.rounds,
            ),
            Metric::new(
                "farm.checkpoints",
                "count",
                self.checkpoints as f64 / rounds,
                self.rounds,
            ),
        ]
    }
}

/// Steps a tenant until its clock reaches `horizon`, appending each step's
/// thread CPU time in ms.
fn step_to(range: &mut CyberRange, horizon: SimTime, step_ms: &mut Vec<f64>) {
    let mut last = cputime::thread_seconds();
    while range.now() < horizon {
        range.step();
        let now = cputime::thread_seconds();
        step_ms.push((now - last) * 1e3);
        last = now;
    }
}

/// The adversary exercise of campaign class `class`: its `seed=` attribute
/// replaced by the class.
pub fn adversary_scenario(class: u64) -> Result<Scenario, String> {
    let mut scenario = Scenario::parse(ADVERSARY_SCENARIO).map_err(|e| e.to_string())?;
    let adversary = scenario
        .adversary
        .as_mut()
        .ok_or("scenario declares no adversary")?;
    adversary.seed = class % ADVERSARY_SEED_CLASSES;
    Ok(scenario)
}

/// `obs.overhead_frac`: wall time of driving a fresh tenant with metrics,
/// journal and spans on, over the same with telemetry off, minus one (three
/// alternating pairs, medians).
fn overhead(ctx: &mut Ctx, model: &Arc<CompiledModel>, drive: &mut Drive<'_>) -> Metric {
    let span = ctx.spans.open("obs.overhead");
    let (mut on, mut off) = (Vec::new(), Vec::new());
    for _ in 0..3 {
        for (telemetry, out) in [
            (Telemetry::disabled(), &mut off),
            (Telemetry::with_tracing(), &mut on),
        ] {
            let ((), cpu_ms) = time_ms(|| {
                let built = RangeBuilder::from_model(model.clone())
                    .telemetry(telemetry)
                    .fault_seed(ctx.seed)
                    .build();
                if let Ok(mut range) = built {
                    let _ = drive(
                        &mut range,
                        &mut Vec::new(),
                        ctx.seed % ADVERSARY_SEED_CLASSES,
                    );
                }
            });
            out.push(cpu_ms);
        }
    }
    ctx.spans.close(span);
    let ratio = median(&on).unwrap_or(0.0) / median(&off).unwrap_or(1.0) - 1.0;
    Metric::new("obs.overhead_frac", "ratio", ratio, on.len())
}

/// `obs.journal_export_mb_s`: rendering journals as JSON Lines.
fn export_rate(ctx: &mut Ctx, telemetries: &[&Telemetry]) -> Metric {
    let span = ctx.spans.open("obs.journal_export");
    let (bytes, cpu_ms) = time_ms(|| {
        telemetries
            .iter()
            .map(|t| t.journal_jsonl().len())
            .sum::<usize>()
    });
    ctx.spans.close(span);
    Metric::new(
        "obs.journal_export_mb_s",
        "MB/s",
        bytes as f64 / 1e3 / cpu_ms.max(1e-6),
        telemetries.len(),
    )
}

/// The end-to-end metrics, in `BENCHMARK.json` order. Every timing is CPU
/// time (see [`cputime`]).
fn end_to_end(
    setup: &Setup,
    rate: &[f64],
    step_ms: &[f64],
    resume: &Resume,
    tenants: &Tenants,
    held: &Held,
) -> Vec<Metric> {
    let pct = |xs: &[f64], p| nearest_rank(xs, p).unwrap_or(0.0);
    let (resume_s, run_ms) = (&resume.resume_s, &tenants.run_ms);
    vec![
        Metric::new("setup_s", "s", pct(&setup.total_s, 50), setup.total_s.len()),
        Metric::new("sim_s_per_cpu_s", "s/s", pct(rate, 50), rate.len()),
        Metric::new("step_p50_ms", "ms", pct(step_ms, 50), step_ms.len()),
        Metric::new("resume_s", "s", pct(resume_s, 50), resume_s.len()),
        Metric::new("exercise_p50_ms", "ms", pct(run_ms, 50), run_ms.len()),
        Metric::new(
            "rss_mb_per_tenant",
            "MB",
            held.rss_mb_per_tenant,
            held.count,
        ),
    ]
}

/// `step_p99_ms`, reported but not gated: a step's tail is host interrupts
/// and cache misses more than simulation, and spreads by a third between
/// runs of the same build.
fn step_p99(step_ms: &[f64]) -> Metric {
    let p99 = nearest_rank(step_ms, 99).unwrap_or(0.0);
    Metric::new("step_p99_ms", "ms", p99, step_ms.len())
}

/// Per-layer metrics every traced run shares: setup timings, the checkpoint
/// layer, scenario counts, and the crate probes (power flow on the
/// workload's own model; PLC, codecs and planner on the EPIC model).
fn common_layers(
    ctx: &mut Ctx,
    setup: &Setup,
    tenants: &Tenants,
    resume: &Resume,
    model: &CompiledModel,
    epic: &CompiledModel,
) -> Vec<Metric> {
    let instantiate_ms: Vec<f64> = setup
        .instantiate_ms
        .iter()
        .chain(&tenants.instantiate_ms)
        .copied()
        .collect();
    let resume_ms = median(&resume.resume_s).unwrap_or(0.0) * 1e3;
    let reports = &tenants.reports;
    let per_exercise = |count: fn(&ExerciseReport) -> usize| {
        reports.iter().map(count).sum::<usize>() as f64 / reports.len().max(1) as f64
    };
    let mut out = vec![
        Metric::new(
            "core.compile_ms",
            "ms",
            median(&setup.compile_ms).unwrap_or(0.0),
            setup.compile_ms.len(),
        ),
        Metric::new(
            "core.instantiate_ms",
            "ms",
            median(&instantiate_ms).unwrap_or(0.0),
            instantiate_ms.len(),
        ),
        Metric::new(
            "core.checkpoint_capture_ms",
            "ms",
            median(&resume.capture_ms).unwrap_or(0.0),
            resume.capture_ms.len(),
        ),
        Metric::new(
            "core.checkpoint_kb",
            "KiB",
            resume.json.len() as f64 / 1024.0,
            1,
        ),
        Metric::new(
            "core.resume_ms_per_kstep",
            "ms/kstep",
            resume_ms / (resume.age.max(1) as f64 / 1000.0),
            resume.resume_s.len(),
        ),
        Metric::new(
            "scenario.stages_run",
            "count/exercise",
            per_exercise(|r| r.stages.iter().filter(|s| s.started_ms.is_some()).count()),
            reports.len(),
        ),
        Metric::new(
            "scenario.objectives_resolved",
            "count/exercise",
            per_exercise(|r| r.objectives.len()),
            reports.len(),
        ),
    ];
    out.extend(probes::powerflow(&mut ctx.spans, model));
    out.extend(probes::plc(&mut ctx.spans, epic));
    out.extend(probes::codecs(&mut ctx.spans, epic));
    if let Ok(Some(adv)) = adversary_scenario(ctx.seed).map(|s| s.adversary) {
        out.extend(probes::adversary(
            &mut ctx.spans,
            epic,
            &adv.goal,
            adv.budget,
            adv.seed,
        ));
    }
    out
}

/// `paper-5x104`: the paper's operating point — one tenant of the
/// 5-substation / 104-IED profile at a 100 ms interval, telemetry off, every
/// `step()` timed by the benchmark.
fn paper(ctx: &mut Ctx) -> RunResult {
    let mut tally = Tally::default();
    let bundle = multisub_bundle(&MultiSubParams::paper_profile());
    let Some(model) = compile(ctx, &bundle, &mut tally) else {
        return RunResult::failed(tally);
    };
    let held_steps = ctx.sizes.held_steps;
    let mut drive = |range: &mut CyberRange, step_ms: &mut Vec<f64>, _: u64| -> Driven {
        let horizon = SimTime::from_nanos(range.interval.as_nanos() * held_steps);
        step_to(range, horizon, step_ms);
        Ok(None)
    };
    let mut tenants = Tenants::default();
    let mut held = hold(ctx, &model, false, &mut tenants, &mut tally, &mut drive);
    held.ranges.clear();

    let mut setup = Setup::default();
    let Some((model, Some(mut range))) = setup.rep(ctx, &bundle, Some(ctx.seed), &mut tally) else {
        return RunResult::failed(tally);
    };
    if ctx.trace {
        // The traced run turns telemetry on for the plane split; the
        // untraced run measures the telemetry-off operating point.
        range = match instantiate(ctx, &model, Telemetry::new(), ctx.seed) {
            Ok(r) => r,
            Err(e) => return RunResult::failed(tally.with_failure(e)),
        };
    }

    let min_steps = ctx
        .sizes
        .min_steps
        .max(ctx.sizes.digest_steps as usize)
        .max(ctx.sizes.resume_age as usize);
    let interval_ms = model.interval.as_secs_f64() * 1e3;
    let mut step_ms = Vec::with_capacity(min_steps * 2);
    // Simulated seconds per scaled CPU second of each round's slice.
    let mut slice_rates = Vec::new();
    let mut main_state = None;
    let mut resume: Option<Resume> = None;
    let mut rounds = 0;
    let start = Instant::now();
    while rounds < ctx.sizes.min_rounds || step_ms.len() < min_steps || start.elapsed() < ctx.budget
    {
        let slice_start = step_ms.len();
        for i in 0..ctx.sizes.slice_steps.max(1) {
            if i % TICK_STEPS == 0 {
                ctx.speed.tick();
            }
            let span = ctx.spans.open("core.step");
            let ((), cpu_ms) = time_ms(|| range.step());
            step_ms.push(cpu_ms * ctx.speed.scale());
            ctx.spans.close(span);
            let steps = range.steps_total();
            if steps == ctx.sizes.resume_age {
                resume = Some(Resume::capture(ctx, &range));
            }
            if steps == ctx.sizes.digest_steps {
                main_state = Some(state_digest(&range));
            }
        }
        let slice = &step_ms[slice_start..];
        slice_rates.push(slice.len() as f64 * interval_ms / slice.iter().sum::<f64>());
        for _ in 0..ctx.sizes.setup_per_round {
            setup.rep(ctx, &bundle, Some(ctx.seed), &mut tally);
        }
        if let Some(resume) = &mut resume {
            for _ in 0..ctx.sizes.resume_per_round {
                resume.rep(ctx, &model, false, &mut tally);
            }
        }
        let class = campaign_class(ctx, rounds);
        tenants.drive(ctx, &model, false, class, &mut tally, &mut drive);
        rounds += 1;
    }
    tally.attempted += step_ms.len() as u64;
    let solve_errors = range.solve_errors_total();
    tally.failed += solve_errors;
    if solve_errors > 0 {
        tally.note(format!("main tenant: {solve_errors} non-converged solves"));
    }
    let Some(resume) = resume else {
        return RunResult::failed(
            tally.with_failure("the tenant never reached the resume age".into()),
        );
    };
    let misses = step_ms.iter().filter(|&&s| s > interval_ms).count();

    let e2e = end_to_end(&setup, &slice_rates, &step_ms, &resume, &tenants, &held);
    let held_state = tenants.digests.values().next().map_or(0, |d| d.0);
    let digest = combine(&[("main", main_state.unwrap_or(0)), ("held", held_state)]);
    let mut result = RunResult::new(tally, digest, e2e);
    result.extra.push(step_p99(&step_ms));
    result.extra.push(Metric::new(
        "budget_miss_frac",
        "ratio",
        misses as f64 / step_ms.len().max(1) as f64,
        step_ms.len(),
    ));
    if ctx.trace {
        let mut attribution = Attribution::default();
        attribution.add_telemetry(range.telemetry());
        let mut layers = attribution.metrics();
        layers.push(export_rate(ctx, &[range.telemetry()]));
        // The farm layer on the paper-scale model: one small farm round.
        let mut farm = FarmPhase::default();
        let farm_seconds = ctx.sizes.soak_seconds.min(2);
        farm.round(ctx, &model, farm_seconds, None, None, &mut result.tally);
        layers.extend(farm.metrics());
        layers.push(overhead(ctx, &model, &mut drive));
        match CompiledModel::shared(&epic_bundle()) {
            Ok(epic) => layers.extend(common_layers(ctx, &setup, &tenants, &resume, &model, &epic)),
            Err(e) => result.tally.check(false, || format!("compile EPIC: {e}")),
        }
        result.layers = layers;
    }
    result
}

/// The two EPIC farm workloads: `epic-farm` (plain soak tenants) and
/// `epic-adversary-farm` (every tenant runs an adversary exercise; each
/// round's farm and driven tenant run the round's campaign class).
fn epic(ctx: &mut Ctx, adversary: bool) -> RunResult {
    let mut tally = Tally::default();
    let bundle = epic_bundle();
    let Some(model) = compile(ctx, &bundle, &mut tally) else {
        return RunResult::failed(tally);
    };
    let mut campaigns = BTreeMap::new();
    if adversary {
        for i in 0..ctx.sizes.campaigns.max(1) {
            let class = campaign_class(ctx, i);
            match adversary_scenario(class) {
                Ok(scenario) => campaigns.insert(class, scenario),
                Err(e) => return RunResult::failed(tally.with_failure(format!("scenario: {e}"))),
            };
        }
    }
    let soak = SimTime::from_secs(ctx.sizes.soak_seconds);
    let mut drive = |range: &mut CyberRange, step_ms: &mut Vec<f64>, class: u64| -> Driven {
        match campaigns.get(&class) {
            None => {
                step_to(range, soak, step_ms);
                Ok(None)
            }
            Some(scenario) => {
                let report = run_exercise(range, scenario).map_err(|e| format!("exercise: {e}"))?;
                Ok(Some(report))
            }
        }
    };
    let mut tenants = Tenants::default();
    let mut held = hold(ctx, &model, true, &mut tenants, &mut tally, &mut drive);
    let export = ctx.trace.then(|| {
        let telemetries: Vec<&Telemetry> = held.ranges.iter().map(|(_, t)| t).collect();
        export_rate(ctx, &telemetries)
    });

    // Resume a soak tenant checkpointed at the horizon. Exercise tenants
    // carry planner-added attacker hosts a checkpoint does not record, so
    // the adversary workload resumes a plain tenant of the exercise length.
    // `run_exercise` steps its tenant itself, so that workload also takes
    // its step latencies from a plain tenant of the exercise length.
    let Some((first, _)) = held.ranges.first() else {
        return RunResult::failed(tally);
    };
    let horizon = first.now();
    let plain_steps = |ctx: &mut Ctx, step_ms: &mut Vec<f64>| -> Option<CyberRange> {
        let mut plain = instantiate(ctx, &model, Telemetry::new(), ctx.seed).ok()?;
        step_to(&mut plain, horizon, step_ms);
        Some(plain)
    };
    let plain = adversary
        .then(|| plain_steps(ctx, &mut Vec::new()))
        .flatten();
    let mut resume = Resume::capture(ctx, plain.as_ref().unwrap_or(first));
    held.ranges.clear();

    let mut setup = Setup::default();
    let mut farm = FarmPhase::default();
    let cycle = ctx.sizes.campaigns.max(1);
    let start = Instant::now();
    while farm.rounds < ctx.sizes.min_rounds
        || farm.rounds % cycle != 0
        || farm.tenant_wall_ms.len() < ctx.sizes.min_tenants
        || start.elapsed() < ctx.budget
    {
        for _ in 0..ctx.sizes.setup_per_round.max(1) {
            setup.rep(ctx, &bundle, None, &mut tally);
        }
        for _ in 0..ctx.sizes.resume_per_round {
            resume.rep(ctx, &model, true, &mut tally);
        }
        let class = campaign_class(ctx, farm.rounds);
        tenants.drive(ctx, &model, true, class, &mut tally, &mut drive);
        if adversary {
            let first_step = tenants.step_ms.len();
            let plain = plain_steps(ctx, &mut tenants.step_ms);
            ctx.speed.tick();
            scale_from(&mut tenants.step_ms, first_step, ctx.speed.scale());
            tally.check(plain.is_some(), || {
                "plain tenant failed to instantiate".to_string()
            });
        }
        let (scenario, expect) = (campaigns.get(&class), tenants.outcome(class));
        farm.round(
            ctx,
            &model,
            ctx.sizes.soak_seconds,
            scenario,
            expect,
            &mut tally,
        );
        if farm.tenant_wall_ms.is_empty() {
            break;
        }
    }

    let e2e = end_to_end(
        &setup,
        &farm.rate,
        &tenants.step_ms,
        &resume,
        &tenants,
        &held,
    );
    let mut result = RunResult::new(tally, tenants.digest(), e2e);
    let wall_ms = &farm.tenant_wall_ms;
    result.extra.extend([
        step_p99(&tenants.step_ms),
        Metric::new(
            "sim_s_per_wall_s",
            "s/s",
            median(&farm.wall_rate).unwrap_or(0.0),
            farm.wall_rate.len(),
        ),
        Metric::new(
            "farm_tenant_p50_ms",
            "ms",
            median(wall_ms).unwrap_or(0.0),
            wall_ms.len(),
        ),
    ]);
    if samples_beyond(wall_ms.len(), 99) >= 10 {
        result.extra.push(Metric::new(
            "farm_tenant_p99_ms",
            "ms",
            nearest_rank(wall_ms, 99).unwrap_or(0.0),
            wall_ms.len(),
        ));
    }
    if ctx.trace {
        let mut layers = farm.attribution.metrics();
        layers.extend(farm.metrics());
        layers.extend(export);
        layers.push(overhead(ctx, &model, &mut drive));
        layers.extend(common_layers(
            ctx, &setup, &tenants, &resume, &model, &model,
        ));
        result.layers = layers;
    }
    result
}
