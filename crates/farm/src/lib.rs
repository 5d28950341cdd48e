#![warn(missing_docs)]

//! # sgcr-farm
//!
//! The multi-tenant **range farm**: one `Arc`-shared
//! [`CompiledModel`] multiplexed into N independent cyber ranges (or full
//! scored exercises) across a worker thread pool — the paper's "generated
//! once, exercised many times" vision at server scale.
//!
//! Each tenant gets its own [`CyberRange`] instantiated from the shared
//! model (no XML or Structured Text is re-parsed per tenant), its own
//! [`Telemetry`] journal/metrics, and a deterministic fault seed
//! (`base_fault_seed + tenant index`), so every tenant's run is
//! byte-replayable in isolation while the farm as a whole scales across
//! cores. Because each range's co-simulation is single-threaded and
//! deterministic, per-tenant outputs are independent of worker-thread
//! scheduling.
//!
//! [`run_farm`] drives the whole fleet and returns a [`FarmReport`] with
//! farm-level throughput (ranges/sec, steps/sec) and latency aggregates
//! (p50/p99/max step wall time) plus per-tenant detail; the benchmark
//! ledger that tracks these numbers is `BENCH_range.jsonl`, appended by
//! `scripts/bench_pairs.sh`. With an output directory configured, every
//! tenant streams `tenant-NNNN.journal.jsonl` and `tenant-NNNN.metrics.json`
//! files as it finishes, and the farm itself writes a `farm.journal.jsonl`
//! with its `FarmStarted`/`FarmFinished` lifecycle events.
//!
//! ## Supervision, checkpoints, and dynamic tenants
//!
//! Long-lived farms are *supervised*: workers pull jobs from a shared work
//! queue instead of a fixed tenant counter, each soak tenant is periodically
//! [checkpointed](sgcr_core::Checkpoint) on the collector cadence, and a
//! restart policy ([`FarmConfig::restart_max`]) requeues halted or panicked
//! tenants from their last checkpoint with bounded exponential backoff until
//! a circuit breaker gives up. The status endpoint doubles as a lifecycle
//! API: `POST /tenants` admits a new tenant mid-run (up to
//! [`FarmConfig::admit_max`] beyond the initial fleet; over capacity sheds
//! load with 429) and `DELETE /tenants/<id>` drains one gracefully — the
//! tenant finishes its step, leaves a final `tenant-NNNN.checkpoint.json`,
//! flushes its sinks, and is evicted from the live aggregate so `/metrics`
//! stays bounded by the live population. Sink write failures are retried
//! with backoff and then *degrade* the farm (journal event + gauge) instead
//! of failing the tenant.
//!
//! ## Live observability
//!
//! While the farm runs, a collector thread periodically folds every live
//! tenant's metric snapshot into a farm-level [`FarmAggregator`] (counters
//! summed, gauges last-write, histograms bucket-merged) — memory bounded by
//! O(buckets × tenants), never by step count — and samples the process RSS.
//! With [`FarmConfig::status_addr`] set (CLI: `serve --status-addr`), a
//! zero-dependency HTTP endpoint serves the aggregate as `/metrics`
//! (Prometheus text exposition), `/status` (per-tenant JSON state), and
//! `/healthz`. The final p50/p99 step latencies are estimated from the
//! merged histograms, replacing the raw per-step sample vectors earlier
//! versions held in memory.
//!
//! ```no_run
//! use sgcr_core::{CompiledModel, SgmlBundle};
//! use sgcr_farm::{run_farm, FarmConfig};
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let bundle = SgmlBundle::from_dir("examples/epic_bundle")?;
//! let model = CompiledModel::shared(&bundle)?;
//! let report = run_farm(
//!     model,
//!     &FarmConfig {
//!         tenants: 128,
//!         sim_seconds: 2,
//!         status_addr: Some("127.0.0.1:9644".to_string()),
//!         ..FarmConfig::default()
//!     },
//! );
//! println!("{}", report.to_text());
//! # Ok(())
//! # }
//! ```

mod status;

pub use status::{http_get, http_request, StatusServer};

use parking_lot::Mutex;
use sgcr_core::{Checkpoint, CompiledModel, CyberRange, RangeBuilder};
use sgcr_net::{SimDuration, SimTime};
use sgcr_obs::agg::{histogram_quantile, rss_bytes};
use sgcr_obs::json::{self, Members};
use sgcr_obs::{
    prom, Counter, Event as ObsEvent, FarmAggregator, Gauge, Histogram, HistogramSnapshot,
    MetricsSnapshot, Telemetry,
};
use sgcr_scenario::{run_exercise, Scenario};
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::{mpsc, Arc, OnceLock};
use std::time::{Duration, Instant};

/// The aggregator key the farm's own telemetry (lifecycle counters, RSS
/// gauges, sink-writer instruments) is folded under — outside any real
/// tenant's index range.
const FARM_SELF: usize = usize::MAX;

/// Ceiling on the supervisor's exponential restart backoff.
const RESTART_BACKOFF_CAP: Duration = Duration::from_secs(5);

/// `(p50, p99)` step-latency estimates from a bucketed step-seconds
/// histogram, clamped by the true observed maximum.
///
/// [`histogram_quantile`] interpolates linearly inside the holding bucket,
/// so an estimate can overshoot every recorded sample by up to one bucket's
/// width; clamping with the exactly-tracked max restores the invariant
/// `p50 ≤ p99 ≤ max`. A missing or empty histogram reports `(0.0, 0.0)`.
fn clamped_step_quantiles(h: Option<&HistogramSnapshot>, max_step_seconds: f64) -> (f64, f64) {
    h.map_or((0.0, 0.0), |h| {
        (
            histogram_quantile(h, 0.50).min(max_step_seconds),
            histogram_quantile(h, 0.99).min(max_step_seconds),
        )
    })
}

/// Configuration of one farm run.
#[derive(Debug, Clone, PartialEq)]
pub struct FarmConfig {
    /// Number of independent tenant ranges to instantiate and run.
    pub tenants: usize,
    /// Worker threads (0 = one per available core).
    pub threads: usize,
    /// Co-simulated seconds each tenant runs.
    pub sim_seconds: u64,
    /// Per-tenant wall-clock budget for one co-simulation step, in
    /// milliseconds, handed to each tenant's range
    /// ([`RangeState::set_step_budget`](sgcr_core::RangeState::set_step_budget)).
    /// Steps over it count as budget overruns. Steps replayed on resume,
    /// and every step without a budget, are judged against the interval
    /// and count toward no budget: without one, `budget_overruns` is 0.
    pub step_budget_ms: Option<u64>,
    /// Halt a soak tenant once it accumulates this many budget overruns
    /// in one attempt (0 = never halt). Scenario tenants count overruns
    /// but are never halted: the exercise engine owns their step loop.
    pub max_overruns: u64,
    /// Tenant `i` runs under fault seed `base_fault_seed + i`.
    pub base_fault_seed: u64,
    /// Step-interval override for every tenant (`None` = the model's).
    pub interval: Option<SimDuration>,
    /// Run this scored exercise per tenant instead of a plain soak.
    pub scenario: Option<Scenario>,
    /// Directory for per-tenant `tenant-NNNN.journal.jsonl` /
    /// `tenant-NNNN.metrics.json` files, written by workers as each tenant
    /// finishes, plus the farm-level `farm.journal.jsonl` (`None` = keep
    /// everything in memory only).
    pub out_dir: Option<PathBuf>,
    /// Bind address for the live `/metrics` + `/status` + `/healthz` HTTP
    /// endpoint (e.g. `127.0.0.1:9644`); `None` = no endpoint. A bind
    /// failure fails the farm up front, like an unwritable `out_dir`.
    pub status_addr: Option<String>,
    /// How often the collector thread folds live tenant snapshots into the
    /// farm aggregate and samples RSS, in milliseconds (0 = default 250).
    /// Soak tenants are also checkpointed on this cadence.
    pub collect_interval_ms: u64,
    /// Supervisor restart budget per tenant: a halted or panicked soak
    /// tenant is restarted from its last checkpoint up to this many times
    /// before the circuit breaker gives it up (0 = supervision off; halted
    /// tenants stay halted, the pre-supervision behavior).
    pub restart_max: u64,
    /// Base supervisor backoff before a restart, in milliseconds; doubles
    /// per restart of the same tenant, capped at 5 s (0 = default 100).
    pub restart_backoff_ms: u64,
    /// Admission-control headroom: how many tenants beyond the initial
    /// `tenants` fleet `POST /tenants` may admit mid-run. 0 = no headroom
    /// (every admission request sheds load with 429).
    pub admit_max: usize,
}

impl Default for FarmConfig {
    fn default() -> FarmConfig {
        FarmConfig {
            tenants: 1,
            threads: 0,
            sim_seconds: 10,
            step_budget_ms: None,
            max_overruns: 0,
            base_fault_seed: 0,
            interval: None,
            scenario: None,
            out_dir: None,
            status_addr: None,
            collect_interval_ms: 0,
            restart_max: 0,
            restart_backoff_ms: 0,
            admit_max: 0,
        }
    }
}

impl FarmConfig {
    /// The collector/checkpoint cadence with the default applied.
    fn collect_interval(&self) -> Duration {
        millis_or(self.collect_interval_ms, 250)
    }
}

/// `ms` milliseconds, or `default` milliseconds when `ms` is 0.
fn millis_or(ms: u64, default: u64) -> Duration {
    Duration::from_millis(if ms == 0 { default } else { ms })
}

/// One tenant's outcome.
#[derive(Debug, Clone, Default)]
pub struct TenantReport {
    /// Tenant index (also its journal file number and fault-seed offset).
    pub tenant: usize,
    /// Power-flow steps executed.
    pub steps: u64,
    /// Wall-clock seconds the tenant's whole run took (the final attempt
    /// only, for a supervised tenant that restarted).
    pub wall_seconds: f64,
    /// Median step wall time in seconds, estimated from the tenant's
    /// `range.step_seconds` histogram.
    pub p50_step_seconds: f64,
    /// 99th-percentile step wall time in seconds, estimated from the
    /// tenant's `range.step_seconds` histogram.
    pub p99_step_seconds: f64,
    /// Worst step wall time in seconds, from the range: over every step
    /// of the final attempt's range, steps replayed on resume included.
    pub max_step_seconds: f64,
    /// Steps that blew the configured budget in the final attempt (0
    /// without a budget).
    pub budget_overruns: u64,
    /// True when the tenant was halted early for exceeding `max_overruns`.
    pub halted: bool,
    /// Failed re-solves over the run (the range degrades gracefully).
    pub solve_errors: u64,
    /// Times the supervisor restarted this tenant from a checkpoint.
    pub restarts: u64,
    /// True when the supervisor's circuit breaker abandoned the tenant
    /// after exhausting its restart budget.
    pub given_up: bool,
    /// True when the tenant was drained gracefully (`DELETE /tenants/<id>`).
    pub drained: bool,
    /// `(earned, total)` exercise score, scenario mode only.
    pub score: Option<(u32, u32)>,
    /// Journal file path, when an output directory was configured.
    pub journal_path: Option<String>,
    /// Instantiation or exercise error, if the tenant never ran.
    pub error: Option<String>,
}

/// The farm-level after-action report: throughput and latency aggregates
/// over every tenant, plus per-tenant detail.
#[derive(Debug, Clone, Default)]
pub struct FarmReport {
    /// Tenants initially requested (dynamically admitted tenants appear in
    /// [`FarmReport::per_tenant`] beyond this count).
    pub tenants: usize,
    /// Worker threads actually used.
    pub threads: usize,
    /// Co-simulated seconds per tenant.
    pub sim_seconds: u64,
    /// Wall-clock seconds for the whole farm run.
    pub wall_seconds: f64,
    /// Tenant ranges completed per wall-clock second.
    pub ranges_per_sec: f64,
    /// Power-flow steps executed across all tenants.
    pub steps_total: u64,
    /// Steps per wall-clock second across the farm.
    pub steps_per_sec: f64,
    /// Median step wall time across every tenant's steps, seconds —
    /// estimated from the bucket-merged farm histogram.
    pub p50_step_seconds: f64,
    /// 99th-percentile step wall time across every tenant's steps, seconds —
    /// estimated from the bucket-merged farm histogram.
    pub p99_step_seconds: f64,
    /// Worst step wall time across the farm, seconds.
    pub max_step_seconds: f64,
    /// Median supervisor checkpoint capture time, seconds — estimated from
    /// the farm's `farm.checkpoint_seconds` histogram.
    pub checkpoint_p50_seconds: f64,
    /// 99th-percentile supervisor checkpoint capture time, seconds.
    pub checkpoint_p99_seconds: f64,
    /// The configured per-step budget, if any.
    pub step_budget_ms: Option<u64>,
    /// Budget overruns across all tenants.
    pub budget_overruns: u64,
    /// Tenants halted for exceeding `max_overruns`.
    pub tenants_halted: usize,
    /// Tenants that failed to instantiate or run.
    pub tenants_failed: usize,
    /// Tenants the supervisor's circuit breaker gave up on.
    pub tenants_given_up: usize,
    /// Tenants drained gracefully via the lifecycle API.
    pub tenants_drained: usize,
    /// Supervisor restarts across all tenants.
    pub restarts_total: u64,
    /// Journal records evicted across every tenant's bounded ring buffer.
    pub journal_dropped: u64,
    /// Spans evicted across every tenant's bounded span buffer.
    pub spans_dropped: u64,
    /// Peak process resident set size observed during the run, in bytes
    /// (0 when the platform has no procfs).
    pub rss_peak_bytes: u64,
    /// Bytes of per-tenant journal/metrics sink files written.
    pub journal_bytes_written: u64,
    /// Wall-clock seconds workers spent rendering and writing sink files —
    /// the JSONL writer backpressure signal.
    pub journal_write_seconds: f64,
    /// One-line inventory of the shared compiled model.
    pub model_summary: String,
    /// Per-tenant outcomes, ordered by tenant index.
    pub per_tenant: Vec<TenantReport>,
}

impl FarmReport {
    /// Human-readable multi-line summary.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "farm: {} tenants x {} s sim on {} threads | {}\n",
            self.tenants, self.sim_seconds, self.threads, self.model_summary
        ));
        out.push_str(&format!(
            "wall {:.2} s | {:.1} ranges/sec | {} steps ({:.0} steps/sec)\n",
            self.wall_seconds, self.ranges_per_sec, self.steps_total, self.steps_per_sec
        ));
        out.push_str(&format!(
            "step latency p50 {:.3} ms, p99 {:.3} ms, max {:.3} ms\n",
            self.p50_step_seconds * 1e3,
            self.p99_step_seconds * 1e3,
            self.max_step_seconds * 1e3
        ));
        match self.step_budget_ms {
            Some(budget) => out.push_str(&format!(
                "budget {budget} ms/step: {} overruns, {} tenants halted, {} failed\n",
                self.budget_overruns, self.tenants_halted, self.tenants_failed
            )),
            None => out.push_str(&format!(
                "no step budget | {} tenants failed\n",
                self.tenants_failed
            )),
        }
        out.push_str(&format!(
            "supervisor: {} restarts, {} given up, {} drained | checkpoint p50 {:.3} ms, p99 {:.3} ms\n",
            self.restarts_total,
            self.tenants_given_up,
            self.tenants_drained,
            self.checkpoint_p50_seconds * 1e3,
            self.checkpoint_p99_seconds * 1e3
        ));
        out.push_str(&format!(
            "rss peak {:.1} MiB | sinks {} B in {:.3} s | {} journal / {} span records dropped\n",
            self.rss_peak_bytes as f64 / (1024.0 * 1024.0),
            self.journal_bytes_written,
            self.journal_write_seconds,
            self.journal_dropped,
            self.spans_dropped
        ));
        out
    }

    /// JSON form (stable key order), as `serve --report` writes it.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        json::object(&mut out, |m| {
            m.int("tenants", self.tenants as u64)
                .int("threads", self.threads as u64)
                .int("sim_seconds", self.sim_seconds)
                .float("wall_seconds", self.wall_seconds)
                .float("ranges_per_sec", self.ranges_per_sec)
                .int("steps_total", self.steps_total)
                .float("steps_per_sec", self.steps_per_sec)
                .float("p50_step_seconds", self.p50_step_seconds)
                .float("p99_step_seconds", self.p99_step_seconds)
                .float("max_step_seconds", self.max_step_seconds)
                .float("checkpoint_p50_seconds", self.checkpoint_p50_seconds)
                .float("checkpoint_p99_seconds", self.checkpoint_p99_seconds)
                .or_null("step_budget_ms", self.step_budget_ms, Members::int)
                .int("budget_overruns", self.budget_overruns)
                .int("tenants_halted", self.tenants_halted as u64)
                .int("tenants_failed", self.tenants_failed as u64)
                .int("tenants_given_up", self.tenants_given_up as u64)
                .int("tenants_drained", self.tenants_drained as u64)
                .int("restarts_total", self.restarts_total)
                .int("journal_dropped", self.journal_dropped)
                .int("spans_dropped", self.spans_dropped)
                .int("rss_peak_bytes", self.rss_peak_bytes)
                .int("journal_bytes_written", self.journal_bytes_written)
                .float("journal_write_seconds", self.journal_write_seconds)
                .text("model_summary", &self.model_summary)
                .objects("per_tenant", &self.per_tenant, |m, t| {
                    m.int("tenant", t.tenant as u64)
                        .int("steps", t.steps)
                        .float("wall_seconds", t.wall_seconds)
                        .float("p50_step_seconds", t.p50_step_seconds)
                        .float("p99_step_seconds", t.p99_step_seconds)
                        .float("max_step_seconds", t.max_step_seconds)
                        .int("budget_overruns", t.budget_overruns)
                        .flag("halted", t.halted)
                        .int("solve_errors", t.solve_errors)
                        .int("restarts", t.restarts)
                        .flag("given_up", t.given_up)
                        .flag("drained", t.drained)
                        .or_null("score", t.score, score)
                        .or_null("journal", t.journal_path.as_deref(), Members::text)
                        .or_null("error", t.error.as_deref(), Members::text);
                });
        });
        out
    }
}

/// An exercise score member, `{"earned":…,"total":…}`.
fn score<'m, 'a>(
    m: &'m mut Members<'a>,
    key: &str,
    (earned, total): (u32, u32),
) -> &'m mut Members<'a> {
    m.object(key, |m| {
        m.int("earned", earned.into()).int("total", total.into());
    })
}

/// A tenant's live lifecycle state, as reported on `/status`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
enum TenantState {
    Pending = 0,
    Running = 1,
    Completed = 2,
    Halted = 3,
    Failed = 4,
    GivenUp = 5,
    Drained = 6,
}

impl TenantState {
    fn from_u8(v: u8) -> TenantState {
        match v {
            1 => TenantState::Running,
            2 => TenantState::Completed,
            3 => TenantState::Halted,
            4 => TenantState::Failed,
            5 => TenantState::GivenUp,
            6 => TenantState::Drained,
            _ => TenantState::Pending,
        }
    }

    fn name(self) -> &'static str {
        match self {
            TenantState::Pending => "pending",
            TenantState::Running => "running",
            TenantState::Completed => "completed",
            TenantState::Halted => "halted",
            TenantState::Failed => "failed",
            TenantState::GivenUp => "given-up",
            TenantState::Drained => "drained",
        }
    }

    /// Whether the tenant can still make progress (and so can be drained).
    fn is_live(self) -> bool {
        matches!(self, TenantState::Pending | TenantState::Running)
    }
}

/// The states the farm counts, each with the name of its count on
/// `/status` and, as `farm.<name>`, of its gauge on `/metrics`.
const COUNTED: [(TenantState, &str); 6] = [
    (TenantState::Running, "tenants_running"),
    (TenantState::Completed, "tenants_completed"),
    (TenantState::Halted, "tenants_halted"),
    (TenantState::Failed, "tenants_failed"),
    (TenantState::GivenUp, "tenants_given_up"),
    (TenantState::Drained, "tenants_drained"),
];

/// How many tenants of `registry` are in each state, indexed by the state.
fn counts(registry: &[Arc<TenantLive>]) -> [usize; 7] {
    let mut counts = [0; 7];
    for live in registry {
        counts[live.state() as usize] += 1;
    }
    counts
}

/// A tenant's one record: the lock-free live counters behind `/status`,
/// its supervision state (drain flag, last checkpoint), and its running
/// attempt's telemetry.
#[derive(Default)]
struct TenantLive {
    state: AtomicU8,
    steps: AtomicU64,
    overruns: AtomicU64,
    solve_errors: AtomicU64,
    restarts: AtomicU64,
    /// Raised by `DELETE /tenants/<id>`; the soak loop drains at the next
    /// step boundary.
    drain: AtomicBool,
    /// The exercise score, published with the terminal state (scenario
    /// mode only).
    score: OnceLock<(u32, u32)>,
    /// The tenant's most recent supervisor checkpoint — what a restart
    /// resumes from and what a drain persists.
    checkpoint: Mutex<Option<Checkpoint>>,
    /// The running attempt's telemetry: the collector folds it into the
    /// aggregate while the attempt runs, and the attempt's end takes it.
    telemetry: Mutex<Option<Telemetry>>,
}

impl TenantLive {
    fn state(&self) -> TenantState {
        TenantState::from_u8(self.state.load(Ordering::Relaxed))
    }

    fn set_state(&self, state: TenantState) {
        self.state.store(state as u8, Ordering::Relaxed);
    }
}

/// One unit of work: run tenant `tenant` (from its last checkpoint, if any)
/// no earlier than `not_before`.
struct Job {
    tenant: usize,
    restarts: u64,
    not_before: Instant,
}

/// The supervised work queue. The farm is done when the queue is empty and
/// no worker holds an outstanding job — at which point it closes and new
/// admissions are rejected.
struct WorkQueue {
    jobs: VecDeque<Job>,
    outstanding: usize,
    closed: bool,
}

/// Why an admission request was rejected.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum AdmitRejected {
    /// The farm has finished (or is finishing) its work; nothing can run.
    Closed,
    /// The admission-control cap (`tenants + admit_max`) is reached.
    AtCapacity,
}

/// State shared between the workers, the collector thread, and the status
/// endpoint for one farm run.
pub(crate) struct FarmShared {
    /// The configuration the farm was built from.
    config: FarmConfig,
    threads: usize,
    aggregator: FarmAggregator,
    per_tenant: Mutex<Vec<Arc<TenantLive>>>,
    queue: Mutex<WorkQueue>,
    shutdown: AtomicBool,
    rss_peak: AtomicU64,
    farm_telemetry: Telemetry,
    ranges_total: Counter,
    restarts_total: Counter,
    /// One gauge per [`COUNTED`] state, in its order.
    state_gauges: [Gauge; 6],
    sink_degraded_gauge: Gauge,
    rss_gauge: Gauge,
    rss_peak_gauge: Gauge,
    journal_bytes: Counter,
    journal_write_hist: Histogram,
    checkpoint_hist: Histogram,
}

impl FarmShared {
    fn new(config: &FarmConfig, threads: usize) -> FarmShared {
        let farm_telemetry = Telemetry::new();
        let now = Instant::now();
        FarmShared {
            config: config.clone(),
            threads,
            aggregator: FarmAggregator::new(),
            per_tenant: Mutex::new((0..config.tenants).map(|_| Arc::default()).collect()),
            queue: Mutex::new(WorkQueue {
                jobs: (0..config.tenants)
                    .map(|tenant| Job {
                        tenant,
                        restarts: 0,
                        not_before: now,
                    })
                    .collect(),
                outstanding: 0,
                closed: false,
            }),
            shutdown: AtomicBool::new(false),
            rss_peak: AtomicU64::new(0),
            ranges_total: farm_telemetry.counter("farm.ranges_total"),
            restarts_total: farm_telemetry.counter("farm.restarts_total"),
            state_gauges: COUNTED.map(|(_, name)| farm_telemetry.gauge(&format!("farm.{name}"))),
            sink_degraded_gauge: farm_telemetry.gauge("farm.sink_degraded"),
            rss_gauge: farm_telemetry.gauge("farm.rss_bytes"),
            rss_peak_gauge: farm_telemetry.gauge("farm.rss_peak_bytes"),
            journal_bytes: farm_telemetry.counter("farm.journal_bytes_written"),
            journal_write_hist: farm_telemetry.histogram(
                "farm.journal_write_seconds",
                &sgcr_obs::buckets::LATENCY_SECONDS,
            ),
            checkpoint_hist: farm_telemetry.histogram(
                "farm.checkpoint_seconds",
                &sgcr_obs::buckets::LATENCY_SECONDS,
            ),
            farm_telemetry,
        }
    }

    /// The live record of `tenant`, if it was ever admitted.
    fn live_of(&self, tenant: usize) -> Option<Arc<TenantLive>> {
        self.per_tenant.lock().get(tenant).cloned()
    }

    /// Every admitted tenant's record, by index.
    fn registry(&self) -> Vec<Arc<TenantLive>> {
        self.per_tenant.lock().clone()
    }

    /// Blocks until a runnable job is available; `None` means the farm's
    /// work is exhausted (queue empty, nothing outstanding) and the worker
    /// should exit.
    fn next_job(&self) -> Option<Job> {
        loop {
            let wait = {
                let mut q = self.queue.lock();
                if q.closed && q.jobs.is_empty() {
                    return None;
                }
                let now = Instant::now();
                if let Some(pos) = q.jobs.iter().position(|j| j.not_before <= now) {
                    let job = q.jobs.remove(pos)?;
                    q.outstanding += 1;
                    return Some(job);
                }
                if q.jobs.is_empty() && q.outstanding == 0 {
                    q.closed = true;
                    return None;
                }
                // Everything queued is backing off (or other workers hold
                // the outstanding jobs); poll again at the earliest due
                // time, re-checking often enough to notice admissions.
                q.jobs
                    .iter()
                    .map(|j| j.not_before)
                    .min()
                    .map(|t| t.saturating_duration_since(now))
                    .unwrap_or(Duration::from_millis(10))
                    .min(Duration::from_millis(10))
                    .max(Duration::from_millis(1))
            };
            std::thread::sleep(wait);
        }
    }

    /// Marks the worker's current job finished (terminal outcome). Closes
    /// the queue when it was the last one.
    fn complete_job(&self) {
        let mut q = self.queue.lock();
        q.outstanding = q.outstanding.saturating_sub(1);
        if q.jobs.is_empty() && q.outstanding == 0 {
            q.closed = true;
        }
    }

    /// Requeues the worker's current job as restart number `restarts` of
    /// `tenant`, due after `backoff`.
    fn requeue(&self, tenant: usize, restarts: u64, backoff: Duration) {
        let mut q = self.queue.lock();
        q.outstanding = q.outstanding.saturating_sub(1);
        q.jobs.push_back(Job {
            tenant,
            restarts,
            not_before: Instant::now() + backoff,
        });
    }

    /// The supervisor's exponential backoff before restart number
    /// `restarts` (1-based), capped at [`RESTART_BACKOFF_CAP`].
    fn backoff_for(&self, restarts: u64) -> Duration {
        let shift = u32::try_from(restarts.saturating_sub(1).min(6)).unwrap_or(6);
        millis_or(self.config.restart_backoff_ms, 100)
            .saturating_mul(1u32 << shift)
            .min(RESTART_BACKOFF_CAP)
    }

    /// Admits one new tenant mid-run: registers its live record, queues its
    /// job, and returns its index. Rejected when the farm has finished
    /// ([`AdmitRejected::Closed`]) or the `tenants + admit_max` cap is
    /// reached ([`AdmitRejected::AtCapacity`]).
    pub(crate) fn admit(&self) -> Result<usize, AdmitRejected> {
        let mut q = self.queue.lock();
        if q.closed {
            return Err(AdmitRejected::Closed);
        }
        let mut registry = self.per_tenant.lock();
        if registry.len() >= self.config.tenants.saturating_add(self.config.admit_max) {
            return Err(AdmitRejected::AtCapacity);
        }
        let tenant = registry.len();
        registry.push(Arc::default());
        drop(registry);
        q.jobs.push_back(Job {
            tenant,
            restarts: 0,
            not_before: Instant::now(),
        });
        Ok(tenant)
    }

    /// Flags `tenant` for graceful drain. Returns false when the tenant is
    /// unknown or already terminal.
    pub(crate) fn drain(&self, tenant: usize) -> bool {
        let Some(live) = self.live_of(tenant) else {
            return false;
        };
        if !live.state().is_live() {
            return false;
        }
        live.drain.store(true, Ordering::Relaxed);
        true
    }

    fn tenant_progress(&self, live: &TenantLive, steps: u64, overruns: u64) {
        live.steps.store(steps, Ordering::Relaxed);
        live.overruns.store(overruns, Ordering::Relaxed);
    }

    /// Captures a supervisor checkpoint of a running tenant: observes the
    /// capture latency, journals the event, and stores the checkpoint as
    /// the tenant's restart/drain anchor.
    fn capture_checkpoint(&self, live: &TenantLive, tenant: usize, range: &CyberRange) {
        let capture_start = Instant::now();
        let checkpoint = range.checkpoint();
        self.checkpoint_hist
            .observe(capture_start.elapsed().as_secs_f64());
        let (t_ns, steps) = (checkpoint.sim_time_ns(), checkpoint.steps());
        self.farm_telemetry
            .record(t_ns, || ObsEvent::TenantCheckpointed {
                tenant: tenant as u64,
                steps,
            });
        *live.checkpoint.lock() = Some(checkpoint);
    }

    /// Ends one attempt at the pool boundary and returns the report of a
    /// tenant that ended. A caught panic ends the attempt failed, with what
    /// its record holds: its telemetry and its last progress. With
    /// supervision on, a halted or panicked attempt is restarted from the
    /// last checkpoint with backoff until the restart budget is spent, and
    /// then the circuit breaker gives the tenant up; every other end is
    /// terminal.
    fn end_attempt(
        &self,
        job: Job,
        live: &TenantLive,
        attempt: std::thread::Result<(TenantReport, TenantState)>,
    ) -> Option<TenantReport> {
        let tenant = job.tenant;
        let (mut report, mut state, restartable) = match attempt {
            Ok((report, state)) => (report, state, state == TenantState::Halted),
            Err(panic) => {
                let report = TenantReport {
                    tenant,
                    steps: live.steps.load(Ordering::Relaxed),
                    budget_overruns: live.overruns.load(Ordering::Relaxed),
                    restarts: job.restarts,
                    error: Some(format!("worker panic: {}", panic_message(panic.as_ref()))),
                    ..TenantReport::default()
                };
                (report, TenantState::Failed, true)
            }
        };
        if restartable && self.config.restart_max > 0 {
            let (t_ns, from_steps) = live
                .checkpoint
                .lock()
                .as_ref()
                .map_or((0, 0), |c| (c.sim_time_ns(), c.steps()));
            if job.restarts < self.config.restart_max {
                // The attempt's snapshot stays in the aggregate until the
                // next attempt's replaces it.
                let restarts = job.restarts + 1;
                if let Some(telemetry) = live.telemetry.lock().take() {
                    self.aggregator.submit(tenant, telemetry.snapshot());
                }
                live.set_state(TenantState::Pending);
                live.restarts.store(restarts, Ordering::Relaxed);
                self.restarts_total.inc();
                self.farm_telemetry
                    .record(t_ns, || ObsEvent::TenantRestarted {
                        tenant: tenant as u64,
                        restarts,
                        from_steps,
                    });
                self.requeue(tenant, restarts, self.backoff_for(restarts));
                return None;
            }
            // Circuit breaker: the final attempt's sinks are the tenant's
            // record; earlier attempts wrote none.
            self.farm_telemetry
                .record(t_ns, || ObsEvent::TenantGivenUp {
                    tenant: tenant as u64,
                    restarts: job.restarts,
                });
            report.given_up = true;
            state = TenantState::GivenUp;
        }
        let report = self.tenant_finished(live, report, state);
        self.complete_job();
        Some(report)
    }

    /// Publishes a tenant's terminal state: the one way a tenant ends.
    ///
    /// One snapshot of the final attempt's telemetry (none for a tenant
    /// drained before its attempt ran) gives the report its step quantiles,
    /// becomes the tenant's metrics sink beside its journal unless the
    /// tenant failed, and stays its contribution to the aggregate. A drained
    /// tenant persists its last checkpoint and is evicted from the
    /// aggregate instead. The live counters then take the report's values,
    /// and `farm.ranges_total` counts every end but a failure or a give-up.
    fn tenant_finished(
        &self,
        live: &TenantLive,
        mut report: TenantReport,
        state: TenantState,
    ) -> TenantReport {
        let tenant = report.tenant;
        if state == TenantState::Drained {
            if let Some(checkpoint) = live.checkpoint.lock().as_ref() {
                self.persist_checkpoint(tenant, checkpoint);
            }
        }
        let telemetry = live.telemetry.lock().take();
        if let Some(telemetry) = telemetry {
            // The range's true max clamps the interpolated quantile
            // estimates so p50 ≤ p99 ≤ max always holds.
            let snapshot = telemetry.snapshot();
            (report.p50_step_seconds, report.p99_step_seconds) = clamped_step_quantiles(
                snapshot.histogram("range.step_seconds"),
                report.max_step_seconds,
            );
            if state != TenantState::Failed {
                report.journal_path = self.write_sinks(tenant, &telemetry, &snapshot);
            }
            self.aggregator.submit(tenant, snapshot);
        }
        if state == TenantState::Drained {
            // Drained tenants leave the live population entirely: their
            // contribution is evicted so `/metrics` and aggregator memory
            // stay bounded under dynamic churn.
            self.aggregator.evict(tenant);
        }
        self.tenant_progress(live, report.steps, report.budget_overruns);
        live.solve_errors
            .store(report.solve_errors, Ordering::Relaxed);
        if let Some(score) = report.score {
            let _ = live.score.set(score);
        }
        live.set_state(state);
        if !matches!(state, TenantState::Failed | TenantState::GivenUp) {
            self.ranges_total.inc();
        }
        report
    }

    /// Streams one finished tenant's journal and metrics to the output
    /// directory; returns the journal path written (if any). Write volume and
    /// the time spent rendering and writing feed the farm's sink-backpressure
    /// instruments. Persistent write failures (after retry with backoff) raise
    /// the farm's degradation signal and are journaled — the tenant is *not*
    /// failed over durability.
    fn write_sinks(
        &self,
        tenant: usize,
        telemetry: &Telemetry,
        metrics: &MetricsSnapshot,
    ) -> Option<String> {
        let dir = self.config.out_dir.as_ref()?;
        let write_start = Instant::now();
        let journal_text = telemetry.journal_jsonl();
        let metrics_text = metrics.to_json();
        let bytes = (journal_text.len() + metrics_text.len()) as u64;
        let journal = dir.join(format!("tenant-{tenant:04}.journal.jsonl"));
        if let Err(e) = write_with_retry(&journal, &journal_text) {
            self.sink_degraded(tenant, &format!("journal sink: {e}"));
            return None;
        }
        let metrics = dir.join(format!("tenant-{tenant:04}.metrics.json"));
        if let Err(e) = write_with_retry(&metrics, &metrics_text) {
            self.sink_degraded(tenant, &format!("metrics sink: {e}"));
            return Some(journal.to_string_lossy().into_owned());
        }
        self.journal_bytes.add(bytes);
        self.journal_write_hist
            .observe(write_start.elapsed().as_secs_f64());
        Some(journal.to_string_lossy().into_owned())
    }

    /// Persists a drained tenant's final checkpoint next to its journal sinks
    /// (`tenant-NNNN.checkpoint.json`). Failures degrade, never fail the drain.
    fn persist_checkpoint(&self, tenant: usize, checkpoint: &Checkpoint) {
        let Some(dir) = &self.config.out_dir else {
            return;
        };
        let path = dir.join(format!("tenant-{tenant:04}.checkpoint.json"));
        if let Err(e) = write_with_retry(&path, &checkpoint.to_json()) {
            self.sink_degraded(tenant, &format!("checkpoint sink: {e}"));
        }
    }

    /// Journals persistent sink-write failure and raises the
    /// `farm.sink_degraded` gauge — the tenant keeps running; only
    /// durability is degraded.
    fn sink_degraded(&self, tenant: usize, detail: &str) {
        self.sink_degraded_gauge.set(1.0);
        let detail = format!("tenant {tenant}: {detail}");
        self.farm_telemetry.record(0u64, || ObsEvent::Custom {
            name: "SinkDegraded".to_string(),
            detail,
        });
    }

    /// One collector pass: folds every running attempt's snapshot plus the
    /// farm's own instruments into the aggregator, and samples RSS.
    pub(crate) fn collect(&self) {
        let registry = self.registry();
        for (tenant, live) in registry.iter().enumerate() {
            // Under the record's lock, so an attempt's end, which takes the
            // telemetry, is never overwritten by an older snapshot.
            if let Some(telemetry) = live.telemetry.lock().as_ref() {
                self.aggregator.submit(tenant, telemetry.snapshot());
            }
        }
        if let Some(rss) = rss_bytes() {
            self.rss_gauge.set(rss as f64);
            let peak = self.rss_peak.fetch_max(rss, Ordering::Relaxed).max(rss);
            self.rss_peak_gauge.set(peak as f64);
        }
        let counts = counts(&registry);
        for ((state, _), gauge) in COUNTED.iter().zip(&self.state_gauges) {
            gauge.set(counts[*state as usize] as f64);
        }
        self.aggregator
            .submit(FARM_SELF, self.farm_telemetry.snapshot());
    }

    fn finish(&self) {
        self.collect();
        self.shutdown.store(true, Ordering::Release);
    }

    pub(crate) fn is_shutdown(&self) -> bool {
        self.shutdown.load(Ordering::Acquire)
    }

    /// The `/metrics` body: a fresh collect pass, then the merged farm
    /// registry rendered as Prometheus text exposition.
    pub(crate) fn metrics_text(&self) -> String {
        self.collect();
        prom::render(&self.aggregator.aggregate())
    }

    /// The `/status` body: deterministic-key JSON of farm and per-tenant
    /// live state.
    pub(crate) fn status_json(&self) -> String {
        let registry = self.registry();
        let counts = counts(&registry);
        let config = &self.config;
        let mut out = String::with_capacity(256 + registry.len() * 96);
        json::object(&mut out, |m| {
            m.int("tenants", registry.len() as u64)
                .int("threads", self.threads as u64)
                .int("sim_seconds", config.sim_seconds)
                .flag("scenario", config.scenario.is_some())
                .or_null("step_budget_ms", config.step_budget_ms, Members::int)
                .int("admit_max", config.admit_max as u64);
            for (state, name) in COUNTED {
                m.int(name, counts[state as usize] as u64);
            }
            m.objects(
                "per_tenant",
                registry.iter().enumerate(),
                |m, (tenant, live)| {
                    let state = live.state();
                    m.int("tenant", tenant as u64)
                        .text("state", state.name())
                        .int("steps", live.steps.load(Ordering::Relaxed))
                        .int("budget_overruns", live.overruns.load(Ordering::Relaxed))
                        .int("solve_errors", live.solve_errors.load(Ordering::Relaxed))
                        .int("restarts", live.restarts.load(Ordering::Relaxed))
                        .flag(
                            "draining",
                            live.drain.load(Ordering::Relaxed) && state.is_live(),
                        )
                        .or_null("score", live.score.get().copied(), score);
                },
            );
        });
        out
    }
}

fn effective_threads(config: &FarmConfig) -> usize {
    if config.threads == 0 {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    } else {
        config.threads
    }
    .min(config.tenants.saturating_add(config.admit_max).max(1))
}

/// The report of a farm that could not start: every tenant failed with
/// `error`.
fn refused(model: &CompiledModel, config: &FarmConfig, error: &str) -> FarmReport {
    FarmReport {
        tenants: config.tenants,
        threads: effective_threads(config),
        sim_seconds: config.sim_seconds,
        step_budget_ms: config.step_budget_ms,
        tenants_failed: config.tenants,
        model_summary: model.summary(),
        per_tenant: (0..config.tenants)
            .map(|tenant| TenantReport {
                tenant,
                error: Some(error.to_string()),
                ..TenantReport::default()
            })
            .collect(),
        ..FarmReport::default()
    }
}

/// Runs `config.tenants` independent ranges from one shared compiled model
/// across a worker pool and aggregates the farm report.
///
/// Tenant instantiation or exercise failures never abort the farm; they are
/// recorded on the tenant's report (`error`) and counted in
/// [`FarmReport::tenants_failed`]. With [`FarmConfig::status_addr`] set,
/// the live status endpoint is bound before any tenant starts; a bind
/// failure fails the whole farm up front (like an unwritable `out_dir`).
pub fn run_farm(model: Arc<CompiledModel>, config: &FarmConfig) -> FarmReport {
    let server = match &config.status_addr {
        Some(addr) => match StatusServer::bind(addr) {
            Ok(server) => Some(server),
            Err(e) => {
                let error = format!("cannot bind status endpoint {addr}: {e}");
                return refused(&model, config, &error);
            }
        },
        None => None,
    };
    run_farm_with_status(model, config, server)
}

/// [`run_farm`] with an explicitly pre-bound status endpoint (or none).
///
/// Binding separately lets callers bind port 0 and read the assigned
/// address before the farm starts — the CLI and the tests both do this.
pub fn run_farm_with_status(
    model: Arc<CompiledModel>,
    config: &FarmConfig,
    server: Option<StatusServer>,
) -> FarmReport {
    let threads = effective_threads(config);

    if let Some(dir) = &config.out_dir {
        // Creating the sink directory up front keeps workers fs-race-free.
        if let Err(e) = std::fs::create_dir_all(dir) {
            return refused(&model, config, &format!("cannot create out dir: {e}"));
        }
    }

    let shared = FarmShared::new(config, threads);
    shared
        .farm_telemetry
        .record(0u64, || ObsEvent::FarmStarted {
            tenants: config.tenants as u64,
            threads: threads as u64,
            sim_seconds: config.sim_seconds,
        });
    let collect_interval = config.collect_interval();

    let wall_start = Instant::now();
    let (tx, rx) = mpsc::channel::<TenantReport>();

    let mut per_tenant: Vec<TenantReport> = Vec::new();
    std::thread::scope(|scope| {
        let shared = &shared;
        scope.spawn(move || {
            // Collector: fold live snapshots until the farm winds down,
            // waking often enough to notice shutdown promptly.
            while !shared.is_shutdown() {
                shared.collect();
                let mut slept = Duration::ZERO;
                while slept < collect_interval && !shared.is_shutdown() {
                    let nap = Duration::from_millis(20).min(collect_interval - slept);
                    std::thread::sleep(nap);
                    slept += nap;
                }
            }
        });
        if let Some(server) = server {
            scope.spawn(move || status::serve(server, shared));
        }
        for _ in 0..threads {
            let tx = tx.clone();
            let model = &model;
            scope.spawn(move || {
                while let Some(job) = shared.next_job() {
                    run_job(model, job, shared, &tx);
                }
            });
        }
        drop(tx);
        per_tenant = rx.iter().collect();
        // All workers are done; release the collector and the endpoint.
        shared.finish();
    });
    per_tenant.sort_by_key(|t| t.tenant);
    let wall_seconds = wall_start.elapsed().as_secs_f64();

    let count = |keep: fn(&TenantReport) -> bool| per_tenant.iter().filter(|t| keep(t)).count();
    let tenants_halted = count(|t| t.halted);
    let tenants_failed = count(|t| t.error.is_some());
    let steps_total = per_tenant.iter().map(|t| t.steps).sum();
    let max_step_seconds = per_tenant
        .iter()
        .map(|t| t.max_step_seconds)
        .fold(0.0, f64::max);

    // Farm-level latency percentiles from the bucket-merged histogram of
    // every tenant's `range.step_seconds` — O(buckets × tenants) memory,
    // replacing the raw per-step sample vectors the farm used to hold.
    let merged = shared.aggregator.aggregate();
    let (p50, p99) =
        clamped_step_quantiles(merged.histogram("range.step_seconds"), max_step_seconds);
    let (checkpoint_p50, checkpoint_p99) = merged
        .histogram("farm.checkpoint_seconds")
        .map_or((0.0, 0.0), |h| {
            (histogram_quantile(h, 0.50), histogram_quantile(h, 0.99))
        });

    let t_end = config.sim_seconds.saturating_mul(1_000_000_000);
    shared
        .farm_telemetry
        .record(t_end, || ObsEvent::FarmFinished {
            tenants_completed: count(|t| t.error.is_none() && !t.halted) as u64,
            tenants_halted: tenants_halted as u64,
            tenants_failed: tenants_failed as u64,
        });
    if let Some(dir) = &config.out_dir {
        let _ = std::fs::write(
            dir.join("farm.journal.jsonl"),
            shared.farm_telemetry.journal_jsonl(),
        );
    }

    let per_second = |n: f64| {
        if wall_seconds > 0.0 {
            n / wall_seconds
        } else {
            0.0
        }
    };
    FarmReport {
        tenants: config.tenants,
        threads,
        sim_seconds: config.sim_seconds,
        wall_seconds,
        ranges_per_sec: per_second(count(|t| t.error.is_none()) as f64),
        steps_total,
        steps_per_sec: per_second(steps_total as f64),
        p50_step_seconds: p50,
        p99_step_seconds: p99,
        max_step_seconds,
        checkpoint_p50_seconds: checkpoint_p50,
        checkpoint_p99_seconds: checkpoint_p99,
        step_budget_ms: config.step_budget_ms,
        budget_overruns: per_tenant.iter().map(|t| t.budget_overruns).sum(),
        tenants_halted,
        tenants_failed,
        tenants_given_up: count(|t| t.given_up),
        tenants_drained: count(|t| t.drained),
        restarts_total: shared.restarts_total.get(),
        journal_dropped: merged.journal_dropped,
        spans_dropped: merged.spans_dropped,
        rss_peak_bytes: shared.rss_peak.load(Ordering::Relaxed),
        journal_bytes_written: shared.journal_bytes.get(),
        journal_write_seconds: shared.journal_write_hist.sum(),
        model_summary: model.summary(),
        per_tenant,
    }
}

/// Runs one queued job at the pool boundary: executes the tenant attempt
/// with panics caught, then ends it under the supervisor's restart policy.
fn run_job(
    model: &Arc<CompiledModel>,
    job: Job,
    shared: &FarmShared,
    tx: &mpsc::Sender<TenantReport>,
) {
    let Some(live) = shared.live_of(job.tenant) else {
        // Registry and queue are updated under one lock; an unknown tenant
        // here is unreachable, but a supervisor must not crash on it.
        shared.complete_job();
        return;
    };
    live.restarts.store(job.restarts, Ordering::Relaxed);
    let attempt = catch_unwind(AssertUnwindSafe(|| {
        run_tenant_attempt(model, &job, shared, &live)
    }));
    if let Some(report) = shared.end_attempt(job, &live, attempt) {
        // A send only fails if the receiver is gone, i.e. the farm is
        // already being torn down — nothing left to report to.
        let _ = tx.send(report);
    }
}

/// Best-effort human text out of a caught panic payload.
fn panic_message(panic: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Runs one tenant attempt (fresh, or resumed from its last checkpoint) and
/// measures it; returns its report and the state it ended in. Never panics
/// by design; failures land on the report's `error` field.
fn run_tenant_attempt(
    model: &Arc<CompiledModel>,
    job: &Job,
    shared: &FarmShared,
    live: &TenantLive,
) -> (TenantReport, TenantState) {
    let config = &shared.config;
    let tenant = job.tenant;
    let mut report = TenantReport {
        tenant,
        restarts: job.restarts,
        ..TenantReport::default()
    };
    live.set_state(TenantState::Running);

    // Drained while still queued (e.g. during restart backoff): honor the
    // drain without re-running anything. The last checkpoint — the exact
    // state the tenant would resume from — is what gets persisted.
    if live.drain.load(Ordering::Relaxed) {
        report.steps = live.checkpoint.lock().as_ref().map_or(0, Checkpoint::steps);
        report.drained = true;
        return (report, TenantState::Drained);
    }

    let telemetry = Telemetry::new();
    *live.telemetry.lock() = Some(telemetry.clone());
    let resume_from = live.checkpoint.lock().clone();
    let wall_start = Instant::now();
    let built = match &resume_from {
        // Resume replays deterministically from step 0 into this fresh
        // telemetry handle, so the journal repeats a run that never paused
        // except in wall-clock events: the replay judges its steps against
        // the interval, as the farm's budget is set only after it.
        Some(checkpoint) => checkpoint
            .resume(model.clone(), telemetry)
            .map_err(|e| e.to_string()),
        None => {
            let mut builder = RangeBuilder::from_model(model.clone())
                .telemetry(telemetry)
                .fault_seed(config.base_fault_seed + tenant as u64);
            if let Some(interval) = config.interval {
                builder = builder.interval(interval);
            }
            builder.build().map_err(|e| e.to_string())
        }
    };
    let mut range = match built {
        Ok(range) => range,
        Err(e) => {
            report.error = Some(e);
            return (report, TenantState::Failed);
        }
    };

    // The range counts overruns against the farm's budget. They are
    // wall-clock policy, not simulation state, so a resumed attempt counts
    // from its own start, after the replay; the farm counts none without one.
    let counted_from = config.step_budget_ms.map(|ms| {
        range.set_step_budget(Duration::from_millis(ms));
        range.overruns()
    });
    let budget_overruns =
        |range: &CyberRange| counted_from.map_or(0, |from| range.overruns() - from);

    match &config.scenario {
        // The exercise engine owns the step loop, and the supervisor does
        // not interpose (no halt, no checkpoints, no drain).
        Some(scenario) => match run_exercise(&mut range, scenario) {
            Ok(exercise) => {
                let s = exercise.score();
                report.score = Some((s.earned, s.total));
            }
            Err(e) => {
                report.error = Some(format!("exercise: {e}"));
                report.steps = range.steps_total();
                report.solve_errors = range.solve_errors_total();
                return (report, TenantState::Failed);
            }
        },
        None => {
            // Plain soak: drive the step loop directly so the budget can
            // halt a runaway tenant live, a drain request lands on a step
            // boundary, and the supervisor checkpoints on its cadence. The
            // end time is absolute, so a resumed tenant finishes the same
            // total simulated horizon instead of restarting it.
            let end = SimTime::from_nanos(config.sim_seconds.saturating_mul(1_000_000_000));
            let checkpoint_every = config.collect_interval();
            let mut last_checkpoint = Instant::now();
            while range.now() < end {
                if live.drain.load(Ordering::Relaxed) {
                    report.drained = true;
                    break;
                }
                range.step();
                let overruns = budget_overruns(&range);
                shared.tenant_progress(live, range.steps_total(), overruns);
                if config.max_overruns > 0 && overruns >= config.max_overruns {
                    report.halted = true;
                    break;
                }
                if last_checkpoint.elapsed() >= checkpoint_every {
                    shared.capture_checkpoint(live, tenant, &range);
                    last_checkpoint = Instant::now();
                }
            }
            if report.halted || report.drained {
                // Anchor the restart (or the drain file) at the exact
                // interruption boundary — no completed step is lost.
                shared.capture_checkpoint(live, tenant, &range);
            }
        }
    }
    report.wall_seconds = wall_start.elapsed().as_secs_f64();
    report.steps = range.steps_total();
    report.max_step_seconds = range.max_step_seconds();
    report.budget_overruns = budget_overruns(&range);
    report.solve_errors = range.solve_errors_total();
    let state = if report.drained {
        TenantState::Drained
    } else if report.halted {
        TenantState::Halted
    } else {
        TenantState::Completed
    };
    (report, state)
}

/// Writes `contents` to `path`, retrying transient failures with a short
/// doubling backoff before giving up.
fn write_with_retry(path: &Path, contents: &str) -> std::io::Result<()> {
    let mut delay = Duration::from_millis(10);
    let mut last_err: Option<std::io::Error> = None;
    for attempt in 0..3 {
        if attempt > 0 {
            std::thread::sleep(delay);
            delay *= 2;
        }
        match std::fs::write(path, contents) {
            Ok(()) => return Ok(()),
            Err(e) => last_err = Some(e),
        }
    }
    Err(last_err.unwrap_or_else(|| std::io::Error::other("write failed")))
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::float_cmp)]
mod tests {
    use super::*;

    /// The interpolated quantile estimate can overshoot every recorded
    /// sample by up to one bucket's width; the clamp pins the reported
    /// percentiles to the exactly-tracked true max.
    #[test]
    fn quantile_estimates_are_clamped_by_true_max() {
        // Three samples, all ≤ 4 ms, landing in the (1 ms, 10 ms] bucket:
        // interpolation places p99 near the bucket's upper bound (~9.9 ms),
        // well past anything that was actually observed.
        let h = HistogramSnapshot {
            count: 3,
            sum: 0.009,
            buckets: vec![(0.001, 0), (0.010, 3), (f64::INFINITY, 0)],
        };
        let true_max = 0.004;
        assert!(
            histogram_quantile(&h, 0.99) > true_max,
            "fixture must make the raw estimate overshoot the true max"
        );

        let (p50, p99) = clamped_step_quantiles(Some(&h), true_max);
        assert!(p50 <= p99, "p50 {p50} must not exceed p99 {p99}");
        assert!(
            p99 <= true_max,
            "p99 {p99} must be clamped to max {true_max}"
        );
        assert!(p50 > 0.0, "clamp must not zero out a populated histogram");
    }

    #[test]
    fn missing_histogram_reports_zero_percentiles() {
        assert_eq!(clamped_step_quantiles(None, 1.0), (0.0, 0.0));
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let shared = FarmShared::new(
            &FarmConfig {
                restart_backoff_ms: 100,
                ..FarmConfig::default()
            },
            1,
        );
        assert_eq!(shared.backoff_for(1), Duration::from_millis(100));
        assert_eq!(shared.backoff_for(2), Duration::from_millis(200));
        assert_eq!(shared.backoff_for(3), Duration::from_millis(400));
        // Capped: 100 ms << 6 = 6.4 s would exceed the 5 s ceiling.
        assert_eq!(shared.backoff_for(7), RESTART_BACKOFF_CAP);
        assert_eq!(shared.backoff_for(70), RESTART_BACKOFF_CAP);
    }

    #[test]
    fn admission_cap_and_close_are_enforced() {
        let shared = FarmShared::new(
            &FarmConfig {
                tenants: 2,
                admit_max: 1,
                ..FarmConfig::default()
            },
            1,
        );
        assert_eq!(shared.admit(), Ok(2), "headroom of 1 admits tenant 2");
        assert_eq!(shared.admit(), Err(AdmitRejected::AtCapacity));
        shared.queue.lock().closed = true;
        assert_eq!(shared.admit(), Err(AdmitRejected::Closed));
    }

    #[test]
    fn drain_flags_only_live_tenants() {
        let shared = FarmShared::new(
            &FarmConfig {
                tenants: 1,
                ..FarmConfig::default()
            },
            1,
        );
        assert!(shared.drain(0), "pending tenant is drainable");
        assert!(!shared.drain(7), "unknown tenant");
        shared.live_of(0).unwrap().set_state(TenantState::Completed);
        assert!(!shared.drain(0), "terminal tenant is not drainable");
    }

    #[test]
    fn queue_closes_when_work_is_exhausted() {
        let shared = FarmShared::new(
            &FarmConfig {
                tenants: 1,
                ..FarmConfig::default()
            },
            1,
        );
        let job = shared.next_job().expect("one seeded job");
        assert_eq!(job.tenant, 0);
        shared.complete_job();
        assert!(shared.next_job().is_none(), "queue closes after last job");
        assert!(shared.queue.lock().closed);
    }

    /// An attempt of tenant 0 that has counted `frames` frames and then
    /// panicked, ended the way the pool boundary ends it.
    fn panicked_attempt(shared: &FarmShared, frames: u64) -> Option<TenantReport> {
        let live = shared.live_of(0).unwrap();
        let telemetry = Telemetry::new();
        telemetry.counter("net.frames_delivered").add(frames);
        *live.telemetry.lock() = Some(telemetry);
        let job = shared.next_job().expect("the tenant's job");
        shared.end_attempt(job, &live, Err(Box::new("injected")))
    }

    /// A caught panic keeps the attempt's telemetry: its counters stay the
    /// tenant's contribution to the aggregate while the supervisor restarts
    /// it, and when the supervisor gives it up, its snapshot is the
    /// tenant's metrics sink.
    #[test]
    fn a_panicked_attempt_keeps_its_telemetry() {
        let dir = std::env::temp_dir().join(format!("sgcr-farm-panic-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let shared = FarmShared::new(
            &FarmConfig {
                restart_max: 1,
                restart_backoff_ms: 1,
                out_dir: Some(dir.clone()),
                ..FarmConfig::default()
            },
            1,
        );
        let frames = |shared: &FarmShared| {
            let latest = shared.aggregator.latest(0).expect("a snapshot of tenant 0");
            latest.counter("net.frames_delivered")
        };

        assert!(panicked_attempt(&shared, 7).is_none(), "restarted");
        assert_eq!(frames(&shared), Some(7));
        assert_eq!(shared.live_of(0).unwrap().state(), TenantState::Pending);

        let report = panicked_attempt(&shared, 9).expect("given up");
        assert!(report.given_up);
        assert_eq!(report.error.as_deref(), Some("worker panic: injected"));
        assert_eq!(frames(&shared), Some(9));
        let sink = std::fs::read_to_string(dir.join("tenant-0000.metrics.json")).unwrap();
        let sink = json::parse(&sink).unwrap();
        let delivered = sink
            .get("counters")
            .and_then(|c| c.get("net.frames_delivered"));
        assert_eq!(delivered.and_then(json::Value::as_u64), Some(9));
        assert!(report.journal_path.is_some());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A tenant given up after its last halt publishes its final report's
    /// counters on `/status`, its solve errors included.
    #[test]
    fn a_given_up_tenant_publishes_its_solve_errors() {
        let shared = FarmShared::new(
            &FarmConfig {
                restart_max: 1,
                ..FarmConfig::default()
            },
            1,
        );
        let live = shared.live_of(0).unwrap();
        let job = Job {
            restarts: 1,
            ..shared.next_job().expect("the tenant's job")
        };
        let halted = TenantReport {
            steps: 5,
            solve_errors: 3,
            halted: true,
            ..TenantReport::default()
        };
        let report = shared.end_attempt(job, &live, Ok((halted, TenantState::Halted)));
        assert!(report.expect("given up").given_up);
        assert_eq!(live.state(), TenantState::GivenUp);
        assert_eq!(live.steps.load(Ordering::Relaxed), 5);
        assert_eq!(live.solve_errors.load(Ordering::Relaxed), 3);
    }
}
