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
use sgcr_faults::DegradationSignal;
use sgcr_net::{SimDuration, SimTime};
use sgcr_obs::agg::{histogram_quantile, rss_bytes};
use sgcr_obs::{
    json, prom, Counter, Event as ObsEvent, FarmAggregator, Gauge, Histogram, HistogramSnapshot,
    Telemetry,
};
use sgcr_scenario::{run_exercise, Scenario};
use std::collections::{BTreeMap, VecDeque};
use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
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
        Duration::from_millis(if self.collect_interval_ms == 0 {
            250
        } else {
            self.collect_interval_ms
        })
    }
}

/// One tenant's outcome.
#[derive(Debug, Clone)]
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
#[derive(Debug, Clone)]
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
        let mut out = String::from("{");
        out.push_str(&format!("\"tenants\":{},", self.tenants));
        out.push_str(&format!("\"threads\":{},", self.threads));
        out.push_str(&format!("\"sim_seconds\":{},", self.sim_seconds));
        out.push_str(&format!(
            "\"wall_seconds\":{},",
            json::number(self.wall_seconds)
        ));
        out.push_str(&format!(
            "\"ranges_per_sec\":{},",
            json::number(self.ranges_per_sec)
        ));
        out.push_str(&format!("\"steps_total\":{},", self.steps_total));
        out.push_str(&format!(
            "\"steps_per_sec\":{},",
            json::number(self.steps_per_sec)
        ));
        out.push_str(&format!(
            "\"p50_step_seconds\":{},",
            json::number(self.p50_step_seconds)
        ));
        out.push_str(&format!(
            "\"p99_step_seconds\":{},",
            json::number(self.p99_step_seconds)
        ));
        out.push_str(&format!(
            "\"max_step_seconds\":{},",
            json::number(self.max_step_seconds)
        ));
        out.push_str(&format!(
            "\"checkpoint_p50_seconds\":{},",
            json::number(self.checkpoint_p50_seconds)
        ));
        out.push_str(&format!(
            "\"checkpoint_p99_seconds\":{},",
            json::number(self.checkpoint_p99_seconds)
        ));
        match self.step_budget_ms {
            Some(budget) => out.push_str(&format!("\"step_budget_ms\":{budget},")),
            None => out.push_str("\"step_budget_ms\":null,"),
        }
        out.push_str(&format!("\"budget_overruns\":{},", self.budget_overruns));
        out.push_str(&format!("\"tenants_halted\":{},", self.tenants_halted));
        out.push_str(&format!("\"tenants_failed\":{},", self.tenants_failed));
        out.push_str(&format!("\"tenants_given_up\":{},", self.tenants_given_up));
        out.push_str(&format!("\"tenants_drained\":{},", self.tenants_drained));
        out.push_str(&format!("\"restarts_total\":{},", self.restarts_total));
        out.push_str(&format!("\"journal_dropped\":{},", self.journal_dropped));
        out.push_str(&format!("\"spans_dropped\":{},", self.spans_dropped));
        out.push_str(&format!("\"rss_peak_bytes\":{},", self.rss_peak_bytes));
        out.push_str(&format!(
            "\"journal_bytes_written\":{},",
            self.journal_bytes_written
        ));
        out.push_str(&format!(
            "\"journal_write_seconds\":{},",
            json::number(self.journal_write_seconds)
        ));
        out.push_str(&format!(
            "\"model_summary\":{},",
            json::quote(&self.model_summary)
        ));
        out.push_str("\"per_tenant\":[");
        for (i, t) in self.per_tenant.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('{');
            out.push_str(&format!("\"tenant\":{},", t.tenant));
            out.push_str(&format!("\"steps\":{},", t.steps));
            out.push_str(&format!(
                "\"wall_seconds\":{},",
                json::number(t.wall_seconds)
            ));
            out.push_str(&format!(
                "\"p50_step_seconds\":{},",
                json::number(t.p50_step_seconds)
            ));
            out.push_str(&format!(
                "\"p99_step_seconds\":{},",
                json::number(t.p99_step_seconds)
            ));
            out.push_str(&format!(
                "\"max_step_seconds\":{},",
                json::number(t.max_step_seconds)
            ));
            out.push_str(&format!("\"budget_overruns\":{},", t.budget_overruns));
            out.push_str(&format!("\"halted\":{},", t.halted));
            out.push_str(&format!("\"solve_errors\":{},", t.solve_errors));
            out.push_str(&format!("\"restarts\":{},", t.restarts));
            out.push_str(&format!("\"given_up\":{},", t.given_up));
            out.push_str(&format!("\"drained\":{},", t.drained));
            match t.score {
                Some((earned, total)) => out.push_str(&format!(
                    "\"score\":{{\"earned\":{earned},\"total\":{total}}},"
                )),
                None => out.push_str("\"score\":null,"),
            }
            match &t.journal_path {
                Some(path) => out.push_str(&format!("\"journal\":{},", json::quote(path))),
                None => out.push_str("\"journal\":null,"),
            }
            match &t.error {
                Some(error) => out.push_str(&format!("\"error\":{}", json::quote(error))),
                None => out.push_str("\"error\":null"),
            }
            out.push('}');
        }
        out.push_str("]}");
        out
    }
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

/// Lock-free per-tenant live counters behind `/status`, plus the tenant's
/// supervision state (drain flag, last checkpoint).
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
    /// Exercise score packed as `PRESENT | earned << 32 | total` (0 = none).
    score: AtomicU64,
    /// The tenant's most recent supervisor checkpoint — what a restart
    /// resumes from and what a drain persists.
    checkpoint: Mutex<Option<Checkpoint>>,
}

const SCORE_PRESENT: u64 = 1 << 63;

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

/// Live tenant-state counts, one slot per [`TenantState`].
#[derive(Clone, Copy, Default)]
struct StateCounts {
    running: usize,
    completed: usize,
    halted: usize,
    failed: usize,
    given_up: usize,
    drained: usize,
}

/// State shared between the workers, the collector thread, and the status
/// endpoint for one farm run.
pub(crate) struct FarmShared {
    initial_tenants: usize,
    threads: usize,
    sim_seconds: u64,
    step_budget_ms: Option<u64>,
    scenario: bool,
    admit_max: usize,
    restart_backoff: Duration,
    live: Mutex<BTreeMap<usize, Telemetry>>,
    aggregator: FarmAggregator,
    per_tenant: Mutex<Vec<Arc<TenantLive>>>,
    queue: Mutex<WorkQueue>,
    shutdown: AtomicBool,
    rss_peak: AtomicU64,
    sink_signal: DegradationSignal,
    farm_telemetry: Telemetry,
    ranges_total: Counter,
    restarts_total: Counter,
    running_gauge: Gauge,
    completed_gauge: Gauge,
    halted_gauge: Gauge,
    failed_gauge: Gauge,
    given_up_gauge: Gauge,
    drained_gauge: Gauge,
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
            initial_tenants: config.tenants,
            threads,
            sim_seconds: config.sim_seconds,
            step_budget_ms: config.step_budget_ms,
            scenario: config.scenario.is_some(),
            admit_max: config.admit_max,
            restart_backoff: Duration::from_millis(if config.restart_backoff_ms == 0 {
                100
            } else {
                config.restart_backoff_ms
            }),
            live: Mutex::new(BTreeMap::new()),
            aggregator: FarmAggregator::new(),
            per_tenant: Mutex::new(
                (0..config.tenants)
                    .map(|_| Arc::new(TenantLive::default()))
                    .collect(),
            ),
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
            sink_signal: DegradationSignal::new(),
            ranges_total: farm_telemetry.counter("farm.ranges_total"),
            restarts_total: farm_telemetry.counter("farm.restarts_total"),
            running_gauge: farm_telemetry.gauge("farm.tenants_running"),
            completed_gauge: farm_telemetry.gauge("farm.tenants_completed"),
            halted_gauge: farm_telemetry.gauge("farm.tenants_halted"),
            failed_gauge: farm_telemetry.gauge("farm.tenants_failed"),
            given_up_gauge: farm_telemetry.gauge("farm.tenants_given_up"),
            drained_gauge: farm_telemetry.gauge("farm.tenants_drained"),
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

    /// Requeues the worker's current job for a supervised restart after
    /// `backoff`.
    fn requeue(&self, job: Job, backoff: Duration) {
        let mut q = self.queue.lock();
        q.outstanding = q.outstanding.saturating_sub(1);
        q.jobs.push_back(Job {
            not_before: Instant::now() + backoff,
            ..job
        });
    }

    /// The supervisor's exponential backoff before restart number
    /// `restarts` (1-based), capped at [`RESTART_BACKOFF_CAP`].
    fn backoff_for(&self, restarts: u64) -> Duration {
        let shift = u32::try_from(restarts.saturating_sub(1).min(6)).unwrap_or(6);
        self.restart_backoff
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
        if registry.len() >= self.initial_tenants.saturating_add(self.admit_max) {
            return Err(AdmitRejected::AtCapacity);
        }
        let tenant = registry.len();
        registry.push(Arc::new(TenantLive::default()));
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
        if !TenantState::from_u8(live.state.load(Ordering::Relaxed)).is_live() {
            return false;
        }
        live.drain.store(true, Ordering::Relaxed);
        true
    }

    fn tenant_started(&self, live: &TenantLive, tenant: usize, telemetry: &Telemetry) {
        live.state
            .store(TenantState::Running as u8, Ordering::Relaxed);
        self.live.lock().insert(tenant, telemetry.clone());
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

    /// Records a terminal tenant outcome: folds the final snapshot into the
    /// aggregate (or evicts it, for drained tenants) and publishes the
    /// final state.
    #[allow(clippy::too_many_arguments)]
    fn tenant_finished(
        &self,
        live: &TenantLive,
        tenant: usize,
        telemetry: &Telemetry,
        state: TenantState,
        report: &TenantReport,
    ) {
        self.live.lock().remove(&tenant);
        if state == TenantState::Drained {
            // Drained tenants leave the live population entirely: their
            // contribution is evicted so `/metrics` and aggregator memory
            // stay bounded under dynamic churn.
            self.aggregator.evict(tenant);
        } else {
            self.aggregator.submit(tenant, telemetry.snapshot());
        }
        live.steps.store(report.steps, Ordering::Relaxed);
        live.overruns
            .store(report.budget_overruns, Ordering::Relaxed);
        live.solve_errors
            .store(report.solve_errors, Ordering::Relaxed);
        if let Some((earned, total)) = report.score {
            live.score.store(
                SCORE_PRESENT | u64::from(earned) << 32 | u64::from(total),
                Ordering::Relaxed,
            );
        }
        live.state.store(state as u8, Ordering::Relaxed);
        if state != TenantState::Failed {
            self.ranges_total.inc();
        }
    }

    /// Records a non-terminal interruption (halt/panic pending supervision):
    /// the tenant leaves the live map and its cumulative snapshot is kept in
    /// the aggregate, but no terminal state is published yet.
    fn tenant_suspended(&self, live: &TenantLive, tenant: usize, telemetry: &Telemetry) {
        self.live.lock().remove(&tenant);
        self.aggregator.submit(tenant, telemetry.snapshot());
        live.state
            .store(TenantState::Pending as u8, Ordering::Relaxed);
    }

    /// Journals persistent sink-write failure and raises the degradation
    /// signal — the tenant keeps running; only durability is degraded.
    fn sink_degraded(&self, tenant: usize, detail: &str) {
        self.sink_signal.set(true);
        self.sink_degraded_gauge.set(1.0);
        let detail = format!("tenant {tenant}: {detail}");
        self.farm_telemetry.record(0u64, || ObsEvent::Custom {
            name: "SinkDegraded".to_string(),
            detail,
        });
    }

    /// One collector pass: folds every live tenant's snapshot plus the
    /// farm's own instruments into the aggregator, and samples RSS.
    pub(crate) fn collect(&self) {
        let live: Vec<(usize, Telemetry)> = self
            .live
            .lock()
            .iter()
            .map(|(t, tel)| (*t, tel.clone()))
            .collect();
        for (tenant, telemetry) in live {
            self.aggregator.submit(tenant, telemetry.snapshot());
        }
        if let Some(rss) = rss_bytes() {
            self.rss_gauge.set(rss as f64);
            let peak = self.rss_peak.fetch_max(rss, Ordering::Relaxed).max(rss);
            self.rss_peak_gauge.set(peak as f64);
        }
        let counts = self.counts();
        self.running_gauge.set(counts.running as f64);
        self.completed_gauge.set(counts.completed as f64);
        self.halted_gauge.set(counts.halted as f64);
        self.failed_gauge.set(counts.failed as f64);
        self.given_up_gauge.set(counts.given_up as f64);
        self.drained_gauge.set(counts.drained as f64);
        self.aggregator
            .submit(FARM_SELF, self.farm_telemetry.snapshot());
    }

    fn counts(&self) -> StateCounts {
        let mut counts = StateCounts::default();
        for live in self.per_tenant.lock().iter() {
            match TenantState::from_u8(live.state.load(Ordering::Relaxed)) {
                TenantState::Running => counts.running += 1,
                TenantState::Completed => counts.completed += 1,
                TenantState::Halted => counts.halted += 1,
                TenantState::Failed => counts.failed += 1,
                TenantState::GivenUp => counts.given_up += 1,
                TenantState::Drained => counts.drained += 1,
                TenantState::Pending => {}
            }
        }
        counts
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
        let counts = self.counts();
        let registry: Vec<Arc<TenantLive>> = self.per_tenant.lock().clone();
        let mut out = String::with_capacity(256 + registry.len() * 96);
        let _ = write!(
            out,
            "{{\"tenants\":{},\"threads\":{},\"sim_seconds\":{},\"scenario\":{},",
            registry.len(),
            self.threads,
            self.sim_seconds,
            self.scenario
        );
        match self.step_budget_ms {
            Some(budget) => {
                let _ = write!(out, "\"step_budget_ms\":{budget},");
            }
            None => out.push_str("\"step_budget_ms\":null,"),
        }
        let _ = write!(
            out,
            "\"admit_max\":{},\"tenants_running\":{},\"tenants_completed\":{},\"tenants_halted\":{},\"tenants_failed\":{},\"tenants_given_up\":{},\"tenants_drained\":{},\"per_tenant\":[",
            self.admit_max,
            counts.running,
            counts.completed,
            counts.halted,
            counts.failed,
            counts.given_up,
            counts.drained
        );
        for (tenant, live) in registry.iter().enumerate() {
            if tenant > 0 {
                out.push(',');
            }
            let state = TenantState::from_u8(live.state.load(Ordering::Relaxed));
            let _ = write!(
                out,
                "{{\"tenant\":{tenant},\"state\":{},\"steps\":{},\"budget_overruns\":{},\"solve_errors\":{},\"restarts\":{},\"draining\":{},",
                json::quote(state.name()),
                live.steps.load(Ordering::Relaxed),
                live.overruns.load(Ordering::Relaxed),
                live.solve_errors.load(Ordering::Relaxed),
                live.restarts.load(Ordering::Relaxed),
                live.drain.load(Ordering::Relaxed) && state.is_live()
            );
            let score = live.score.load(Ordering::Relaxed);
            if score & SCORE_PRESENT != 0 {
                let _ = write!(
                    out,
                    "\"score\":{{\"earned\":{},\"total\":{}}}}}",
                    (score >> 32) & 0x7fff_ffff,
                    score & 0xffff_ffff
                );
            } else {
                out.push_str("\"score\":null}");
            }
        }
        out.push_str("]}");
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
                let threads = effective_threads(config);
                let mut report = empty_report(&model, config, threads);
                report.tenants_failed = config.tenants;
                report.per_tenant = (0..config.tenants)
                    .map(|tenant| {
                        failed_tenant(tenant, format!("cannot bind status endpoint {addr}: {e}"))
                    })
                    .collect();
                return report;
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
            let mut report = empty_report(&model, config, threads);
            report.tenants_failed = config.tenants;
            report.per_tenant = (0..config.tenants)
                .map(|tenant| failed_tenant(tenant, format!("cannot create out dir: {e}")))
                .collect();
            return report;
        }
    }

    let shared = FarmShared::new(config, threads);
    {
        let (tenants, sim_seconds) = (config.tenants as u64, config.sim_seconds);
        let threads = threads as u64;
        shared
            .farm_telemetry
            .record(0u64, || ObsEvent::FarmStarted {
                tenants,
                threads,
                sim_seconds,
            });
    }
    let collect_interval = config.collect_interval();

    let wall_start = std::time::Instant::now();
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
                    run_job(model, config, job, shared, &tx);
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

    let mut steps_total = 0u64;
    let mut budget_overruns = 0u64;
    let mut tenants_halted = 0usize;
    let mut tenants_failed = 0usize;
    let mut tenants_given_up = 0usize;
    let mut tenants_drained = 0usize;
    let mut max_step_seconds = 0.0f64;
    for t in &per_tenant {
        steps_total += t.steps;
        budget_overruns += t.budget_overruns;
        max_step_seconds = max_step_seconds.max(t.max_step_seconds);
        if t.halted {
            tenants_halted += 1;
        }
        if t.error.is_some() {
            tenants_failed += 1;
        }
        if t.given_up {
            tenants_given_up += 1;
        }
        if t.drained {
            tenants_drained += 1;
        }
    }

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

    {
        let (completed_n, halted_n, failed_n) = (
            per_tenant
                .iter()
                .filter(|t| t.error.is_none() && !t.halted)
                .count() as u64,
            tenants_halted as u64,
            tenants_failed as u64,
        );
        let t_end = config.sim_seconds.saturating_mul(1_000_000_000);
        shared
            .farm_telemetry
            .record(t_end, || ObsEvent::FarmFinished {
                tenants_completed: completed_n,
                tenants_halted: halted_n,
                tenants_failed: failed_n,
            });
    }
    if let Some(dir) = &config.out_dir {
        let _ = std::fs::write(
            dir.join("farm.journal.jsonl"),
            shared.farm_telemetry.journal_jsonl(),
        );
    }

    let completed = per_tenant.iter().filter(|t| t.error.is_none()).count();
    FarmReport {
        tenants: config.tenants,
        threads,
        sim_seconds: config.sim_seconds,
        wall_seconds,
        ranges_per_sec: if wall_seconds > 0.0 {
            completed as f64 / wall_seconds
        } else {
            0.0
        },
        steps_total,
        steps_per_sec: if wall_seconds > 0.0 {
            steps_total as f64 / wall_seconds
        } else {
            0.0
        },
        p50_step_seconds: p50,
        p99_step_seconds: p99,
        max_step_seconds,
        checkpoint_p50_seconds: checkpoint_p50,
        checkpoint_p99_seconds: checkpoint_p99,
        step_budget_ms: config.step_budget_ms,
        budget_overruns,
        tenants_halted,
        tenants_failed,
        tenants_given_up,
        tenants_drained,
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

/// One tenant attempt's result, before the supervisor's verdict.
enum Attempt {
    /// Terminal: the report is final and the tenant state is published.
    Done(TenantReport),
    /// Restart-eligible interruption (budget halt). The report is what the
    /// tenant reports if the supervisor gives up right now, and the
    /// telemetry (none after a worker panic) holds the sinks it then writes.
    Interrupted(TenantReport, Option<Telemetry>),
}

/// Runs one queued job at the pool boundary: executes the tenant attempt
/// with panics caught, then applies the supervisor's restart policy —
/// requeue with backoff, give up (circuit breaker), or report terminally.
fn run_job(
    model: &Arc<CompiledModel>,
    config: &FarmConfig,
    job: Job,
    shared: &FarmShared,
    tx: &mpsc::Sender<TenantReport>,
) {
    let tenant = job.tenant;
    let Some(live) = shared.live_of(tenant) else {
        // Registry and queue are updated under one lock; an unknown tenant
        // here is unreachable, but a supervisor must not crash on it.
        shared.complete_job();
        return;
    };
    live.restarts.store(job.restarts, Ordering::Relaxed);
    let attempt = catch_unwind(AssertUnwindSafe(|| {
        run_tenant_attempt(model, config, &job, shared, &live)
    }));
    let attempt = match attempt {
        Ok(attempt) => attempt,
        Err(panic) => {
            // Worker panic caught at the pool boundary: the tenant's attempt
            // state is lost, but its last checkpoint survives — treat it
            // exactly like a halt and let the restart policy decide.
            let detail = panic_message(panic.as_ref());
            shared.tenant_suspended(&live, tenant, &Telemetry::new());
            let mut report = failed_tenant(tenant, format!("worker panic: {detail}"));
            report.restarts = job.restarts;
            report.steps = live.steps.load(Ordering::Relaxed);
            Attempt::Interrupted(report, None)
        }
    };
    match attempt {
        Attempt::Done(report) => {
            // A send only fails if the receiver is gone, i.e. the farm is
            // already being torn down — nothing left to report to.
            let _ = tx.send(report);
            shared.complete_job();
        }
        Attempt::Interrupted(mut report, telemetry) => {
            if config.restart_max > 0 && job.restarts < config.restart_max {
                let restarts = job.restarts + 1;
                let (t_ns, from_steps) = live
                    .checkpoint
                    .lock()
                    .as_ref()
                    .map_or((0, 0), |c| (c.sim_time_ns(), c.steps()));
                shared.restarts_total.inc();
                live.restarts.store(restarts, Ordering::Relaxed);
                shared
                    .farm_telemetry
                    .record(t_ns, || ObsEvent::TenantRestarted {
                        tenant: tenant as u64,
                        restarts,
                        from_steps,
                    });
                let backoff = shared.backoff_for(restarts);
                shared.requeue(
                    Job {
                        tenant,
                        restarts,
                        not_before: Instant::now(),
                    },
                    backoff,
                );
            } else if config.restart_max > 0 {
                // Circuit breaker: restart budget exhausted. The final
                // attempt's sinks are the tenant's record; earlier attempts
                // wrote none.
                report.journal_path = telemetry
                    .and_then(|telemetry| write_tenant_sinks(config, tenant, &telemetry, shared));
                let restarts = job.restarts;
                let t_ns = live
                    .checkpoint
                    .lock()
                    .as_ref()
                    .map_or(0, sgcr_core::Checkpoint::sim_time_ns);
                shared
                    .farm_telemetry
                    .record(t_ns, || ObsEvent::TenantGivenUp {
                        tenant: tenant as u64,
                        restarts,
                    });
                report.given_up = true;
                live.state
                    .store(TenantState::GivenUp as u8, Ordering::Relaxed);
                let _ = tx.send(report);
                shared.complete_job();
            } else {
                // Supervision off: the pre-supervision behavior — a halted
                // tenant stays halted (or a panicked one stays failed).
                let state = if report.error.is_some() {
                    TenantState::Failed
                } else {
                    TenantState::Halted
                };
                live.state.store(state as u8, Ordering::Relaxed);
                let _ = tx.send(report);
                shared.complete_job();
            }
        }
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
/// measures it. Never panics by design; failures land on the report's
/// `error` field, and a budget halt returns [`Attempt::Interrupted`] for
/// the supervisor to decide on.
fn run_tenant_attempt(
    model: &Arc<CompiledModel>,
    config: &FarmConfig,
    job: &Job,
    shared: &FarmShared,
    live: &TenantLive,
) -> Attempt {
    let tenant = job.tenant;
    let telemetry = Telemetry::new();
    shared.tenant_started(live, tenant, &telemetry);

    // Drained while still queued (e.g. during restart backoff): honor the
    // drain without re-running anything. The last checkpoint — the exact
    // state the tenant would resume from — is what gets persisted.
    if live.drain.load(Ordering::Relaxed) {
        let checkpoint = live.checkpoint.lock().clone();
        let steps = checkpoint.as_ref().map_or(0, sgcr_core::Checkpoint::steps);
        if let Some(cp) = &checkpoint {
            persist_checkpoint(config, tenant, cp, shared);
        }
        let mut report = failed_tenant(tenant, String::new());
        report.error = None;
        report.steps = steps;
        report.restarts = job.restarts;
        report.drained = true;
        shared.tenant_finished(live, tenant, &telemetry, TenantState::Drained, &report);
        return Attempt::Done(report);
    }

    let resume_from = live.checkpoint.lock().clone();
    let wall_start = std::time::Instant::now();
    let built = match &resume_from {
        // Resume replays deterministically from step 0 into this fresh
        // telemetry handle, so the journal repeats a run that never paused
        // except in wall-clock events: the replay judges its steps against
        // the interval, as the farm's budget is set only after it.
        Some(checkpoint) => checkpoint
            .resume(model.clone(), telemetry.clone())
            .map_err(|e| e.to_string()),
        None => {
            let mut builder = RangeBuilder::from_model(model.clone())
                .telemetry(telemetry.clone())
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
            let mut report = failed_tenant(tenant, e);
            report.restarts = job.restarts;
            shared.tenant_finished(live, tenant, &telemetry, TenantState::Failed, &report);
            return Attempt::Done(report);
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
    let mut halted = false;
    let mut drained = false;
    let mut score = None;

    match &config.scenario {
        Some(scenario) => {
            // The exercise engine owns the step loop, and the supervisor
            // does not interpose (no halt, no checkpoints, no drain).
            match run_exercise(&mut range, scenario) {
                Ok(report) => {
                    let s = report.score();
                    score = Some((s.earned, s.total));
                }
                Err(e) => {
                    let mut report = failed_tenant(tenant, format!("exercise: {e}"));
                    report.steps = range.steps_total();
                    report.solve_errors = range.solve_errors_total();
                    report.restarts = job.restarts;
                    shared.tenant_finished(live, tenant, &telemetry, TenantState::Failed, &report);
                    return Attempt::Done(report);
                }
            }
        }
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
                    drained = true;
                    break;
                }
                range.step();
                let overruns = budget_overruns(&range);
                shared.tenant_progress(live, range.steps_total(), overruns);
                if config.max_overruns > 0 && overruns >= config.max_overruns {
                    halted = true;
                    break;
                }
                if last_checkpoint.elapsed() >= checkpoint_every {
                    shared.capture_checkpoint(live, tenant, &range);
                    last_checkpoint = Instant::now();
                }
            }
            if halted || drained {
                // Anchor the restart (or the drain file) at the exact
                // interruption boundary — no completed step is lost.
                shared.capture_checkpoint(live, tenant, &range);
            }
        }
    }
    let wall_seconds = wall_start.elapsed().as_secs_f64();

    // Latency stats from the tenant's own step-seconds histogram — bounded
    // by the bucket count, not the step count. The range's true max clamps
    // the interpolated quantile estimates so p50 ≤ p99 ≤ max always holds.
    let max_step_seconds = range.max_step_seconds();
    let snapshot = telemetry.snapshot();
    let (p50, p99) =
        clamped_step_quantiles(snapshot.histogram("range.step_seconds"), max_step_seconds);

    let report = TenantReport {
        tenant,
        steps: range.steps_total(),
        wall_seconds,
        p50_step_seconds: p50,
        p99_step_seconds: p99,
        max_step_seconds,
        budget_overruns: budget_overruns(&range),
        halted,
        solve_errors: range.solve_errors_total(),
        restarts: job.restarts,
        given_up: false,
        drained,
        score,
        journal_path: None,
        error: None,
    };

    if halted && config.restart_max > 0 {
        // Restart-eligible: hand the verdict to the supervisor. The
        // cumulative snapshot stays in the aggregate; the supervisor writes
        // the sinks only if it gives the tenant up.
        shared.tenant_suspended(live, tenant, &telemetry);
        return Attempt::Interrupted(report, Some(telemetry));
    }

    if drained {
        if let Some(cp) = live.checkpoint.lock().as_ref() {
            persist_checkpoint(config, tenant, cp, shared);
        }
    }
    let journal_path = write_tenant_sinks(config, tenant, &telemetry, shared);
    let report = TenantReport {
        journal_path,
        ..report
    };
    let state = if report.drained {
        TenantState::Drained
    } else if report.halted {
        TenantState::Halted
    } else {
        TenantState::Completed
    };
    shared.tenant_finished(live, tenant, &telemetry, state, &report);
    Attempt::Done(report)
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

/// Persists a drained tenant's final checkpoint next to its journal sinks
/// (`tenant-NNNN.checkpoint.json`). Failures degrade, never fail the drain.
fn persist_checkpoint(config: &FarmConfig, tenant: usize, cp: &Checkpoint, shared: &FarmShared) {
    let Some(dir) = &config.out_dir else {
        return;
    };
    let path = dir.join(format!("tenant-{tenant:04}.checkpoint.json"));
    if let Err(e) = write_with_retry(&path, &cp.to_json()) {
        shared.sink_degraded(tenant, &format!("checkpoint sink: {e}"));
    }
}

/// Streams one finished tenant's journal and metrics to the output
/// directory; returns the journal path written (if any). Write volume and
/// the time spent rendering and writing feed the farm's sink-backpressure
/// instruments. Persistent write failures (after retry with backoff) raise
/// the farm's degradation signal and are journaled — the tenant is *not*
/// failed over durability.
fn write_tenant_sinks(
    config: &FarmConfig,
    tenant: usize,
    telemetry: &Telemetry,
    shared: &FarmShared,
) -> Option<String> {
    let dir = config.out_dir.as_ref()?;
    let write_start = std::time::Instant::now();
    let journal_text = telemetry.journal_jsonl();
    let metrics_text = telemetry.snapshot().to_json();
    let bytes = (journal_text.len() + metrics_text.len()) as u64;
    let journal = dir.join(format!("tenant-{tenant:04}.journal.jsonl"));
    if let Err(e) = write_with_retry(&journal, &journal_text) {
        shared.sink_degraded(tenant, &format!("journal sink: {e}"));
        return None;
    }
    let metrics = dir.join(format!("tenant-{tenant:04}.metrics.json"));
    if let Err(e) = write_with_retry(&metrics, &metrics_text) {
        shared.sink_degraded(tenant, &format!("metrics sink: {e}"));
        return Some(journal.to_string_lossy().into_owned());
    }
    shared.journal_bytes.add(bytes);
    shared
        .journal_write_hist
        .observe(write_start.elapsed().as_secs_f64());
    Some(journal.to_string_lossy().into_owned())
}

fn failed_tenant(tenant: usize, error: String) -> TenantReport {
    TenantReport {
        tenant,
        steps: 0,
        wall_seconds: 0.0,
        p50_step_seconds: 0.0,
        p99_step_seconds: 0.0,
        max_step_seconds: 0.0,
        budget_overruns: 0,
        halted: false,
        solve_errors: 0,
        restarts: 0,
        given_up: false,
        drained: false,
        score: None,
        journal_path: None,
        error: Some(error),
    }
}

fn empty_report(model: &CompiledModel, config: &FarmConfig, threads: usize) -> FarmReport {
    FarmReport {
        tenants: config.tenants,
        threads,
        sim_seconds: config.sim_seconds,
        wall_seconds: 0.0,
        ranges_per_sec: 0.0,
        steps_total: 0,
        steps_per_sec: 0.0,
        p50_step_seconds: 0.0,
        p99_step_seconds: 0.0,
        max_step_seconds: 0.0,
        checkpoint_p50_seconds: 0.0,
        checkpoint_p99_seconds: 0.0,
        step_budget_ms: config.step_budget_ms,
        budget_overruns: 0,
        tenants_halted: 0,
        tenants_failed: 0,
        tenants_given_up: 0,
        tenants_drained: 0,
        restarts_total: 0,
        journal_dropped: 0,
        spans_dropped: 0,
        rss_peak_bytes: 0,
        journal_bytes_written: 0,
        journal_write_seconds: 0.0,
        model_summary: model.summary(),
        per_tenant: Vec::new(),
    }
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
        let live = shared.live_of(0).unwrap();
        live.state
            .store(TenantState::Completed as u8, Ordering::Relaxed);
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
}
