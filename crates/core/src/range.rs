//! The operational cyber range: compiled model + per-tenant runtime state.
//!
//! The runtime mirrors the paper's architecture exactly: an emulated cyber
//! network hosting virtual IEDs, PLCs, and a SCADA HMI, coupled to a
//! steady-state power-flow simulation through a key-value process cache.
//! The power flow is re-solved periodically (default every 100 ms); each
//! step applies load profiles and scenario events, executes breaker/set-point
//! commands written by the cyber side, solves, and publishes fresh
//! measurements for the virtual devices to sample.
//!
//! Since the model/state split, a [`CyberRange`] is a thin pairing of an
//! immutable, `Arc`-shared [`CompiledModel`] with one tenant's mutable
//! [`RangeState`]; it [`Deref`]s to the state, so `range.step()`,
//! `range.net`, `range.ieds`, fault injection, and every probe keep their
//! familiar spelling. Compile once, instantiate many:
//!
//! ```no_run
//! use sgcr_core::{CompiledModel, CyberRange, SgmlBundle};
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let bundle = SgmlBundle::from_dir("examples/epic_bundle")?;
//! let model = CompiledModel::shared(&bundle)?;   // parse + compile, once
//! let mut a = CyberRange::instantiate(model.clone())?; // cheap, per tenant
//! let mut b = CyberRange::instantiate(model.clone())?;
//! # let _ = (&mut a, &mut b);
//! # Ok(())
//! # }
//! ```

use crate::compile::network::NetworkPlan;
use crate::model::CompiledModel;
use crate::state::{RangeSettings, RangeState};
use sgcr_net::SimDuration;
use sgcr_obs::Telemetry;
use sgcr_powerflow::PowerFlowError;
use sgcr_scl::Diagnostic;
use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::Arc;

/// The set of SG-ML model files a cyber range is generated from — the
/// left-hand side of the paper's Figure 2.
#[derive(Debug, Clone, Default)]
pub struct SgmlBundle {
    /// SSD files (one per substation).
    pub ssds: Vec<String>,
    /// SCD files (one per substation).
    pub scds: Vec<String>,
    /// ICD files (one per IED type/instance).
    pub icds: Vec<String>,
    /// SED files (one per substation pair).
    pub seds: Vec<String>,
    /// Supplementary IED Config XML.
    pub ied_config: Option<String>,
    /// Supplementary SCADA Config XML.
    pub scada_config: Option<String>,
    /// Supplementary PLC Config XML.
    pub plc_config: Option<String>,
    /// Supplementary Power System Extra Config XML.
    pub power_extra: Option<String>,
    /// Exercise Scenario XML files (`*.scenario.xml`, any number). Not used
    /// by range generation itself; `sgcr-scenario` runs them on the built
    /// range and `sgcr-lint` validates them against the bundle.
    pub scenarios: Vec<String>,
    /// Host name of the SCADA workstation in the SCD (default `SCADA`).
    pub scada_host: Option<String>,
}

/// An error producing or running a cyber range.
#[derive(Debug)]
pub enum RangeError {
    /// A PLC's control logic cannot run.
    Model {
        /// Which file kind.
        what: &'static str,
        /// The parse error text.
        detail: String,
    },
    /// A model file does not parse or a bundle rule fails: every finding of
    /// [`check_bundle`](crate::check_bundle), warnings included.
    Validation(Vec<Diagnostic>),
    /// The initial power flow failed.
    PowerFlow(PowerFlowError),
    /// An IED/PLC/SCADA host of a hand-built model is absent from its
    /// network plan (a compiled model always has them).
    UnknownHost {
        /// The missing host.
        host: String,
        /// What referenced it.
        referenced_by: &'static str,
    },
}

impl fmt::Display for RangeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RangeError::Model { what, detail } => write!(f, "cannot parse {what}: {detail}"),
            RangeError::Validation(diagnostics) => {
                write!(f, "model validation failed:")?;
                for d in diagnostics {
                    write!(f, "\n  {d}")?;
                }
                Ok(())
            }
            RangeError::PowerFlow(e) => write!(f, "initial power flow failed: {e}"),
            RangeError::UnknownHost {
                host,
                referenced_by,
            } => write!(
                f,
                "{referenced_by} references host {host:?} absent from the SCD"
            ),
        }
    }
}

impl std::error::Error for RangeError {}

/// Wall-clock statistics of one co-simulation step (for the paper's
/// scalability experiment).
#[derive(Debug, Clone, Copy, Default)]
pub struct StepStats {
    /// Wall time spent in the power-flow solve.
    pub solve_seconds: f64,
    /// Wall time of the complete step (solve + event processing).
    pub total_seconds: f64,
    /// Newton–Raphson iterations.
    pub iterations: usize,
}

/// A generated, operational smart grid cyber range: one tenant's
/// [`RangeState`] bound to its `Arc`-shared [`CompiledModel`].
///
/// Dereferences to [`RangeState`], so all runtime methods and fields
/// (`net`, `store`, `power`, `ieds`, `step()`, `run_for()`, fault
/// injection, state probes) are used directly on the range.
pub struct CyberRange {
    model: Arc<CompiledModel>,
    settings: RangeSettings,
    state: RangeState,
}

impl Deref for CyberRange {
    type Target = RangeState;

    fn deref(&self) -> &RangeState {
        &self.state
    }
}

impl DerefMut for CyberRange {
    fn deref_mut(&mut self) -> &mut RangeState {
        &mut self.state
    }
}

/// Configures and instantiates a [`CyberRange`] — the front door of the
/// SG-ML Processor pipeline.
///
/// [`RangeBuilder::from_model`] reuses an already-compiled model, so
/// building a range costs one power-model clone and some virtual-device
/// setup (no XML or ST parsing). The builder is how a step interval
/// override, a [`Telemetry`] handle, a fault seed, or different retention
/// bounds are attached:
///
/// ```no_run
/// use sgcr_core::{CompiledModel, RangeBuilder, SgmlBundle};
/// use sgcr_net::SimDuration;
/// use sgcr_obs::Telemetry;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let bundle = SgmlBundle::from_dir("examples/epic_bundle")?;
/// let model = CompiledModel::shared(&bundle)?;
/// let telemetry = Telemetry::new();
/// let mut range = RangeBuilder::from_model(model)
///     .interval(SimDuration::from_millis(50))
///     .telemetry(telemetry.clone())
///     .build()?;
/// range.run_for(SimDuration::from_secs(2));
/// println!("{}", telemetry.snapshot().to_text());
/// # Ok(())
/// # }
/// ```
pub struct RangeBuilder {
    model: Arc<CompiledModel>,
    interval: Option<SimDuration>,
    telemetry: Telemetry,
    fault_seed: Option<u64>,
}

impl RangeBuilder {
    /// Starts a builder over an already-compiled, `Arc`-shared model with
    /// defaults: interval from the model (100 ms absent a Power Extra
    /// config) and telemetry disabled.
    pub fn from_model(model: Arc<CompiledModel>) -> RangeBuilder {
        RangeBuilder {
            model,
            interval: None,
            telemetry: Telemetry::disabled(),
            fault_seed: None,
        }
    }

    /// Overrides the power-flow step interval (takes precedence over the
    /// Power Extra config).
    pub fn interval(mut self, interval: SimDuration) -> RangeBuilder {
        self.interval = Some(interval);
        self
    }

    /// Attaches a telemetry handle. It is threaded through the emulated
    /// network, the power-flow solver, every virtual IED/PLC, the SCADA HMI,
    /// and the co-simulation loop itself.
    pub fn telemetry(mut self, telemetry: Telemetry) -> RangeBuilder {
        self.telemetry = telemetry;
        self
    }

    /// Seeds the deterministic fault-injection generator (frame loss,
    /// corruption, duplication, jitter draws). Two runs of the same range
    /// with the same seed and the same fault profiles replay byte-identical
    /// journals. Unseeded ranges use seed 0.
    pub fn fault_seed(mut self, seed: u64) -> RangeBuilder {
        self.fault_seed = Some(seed);
        self
    }

    /// Builds the operational cyber range: the cheap per-tenant path over
    /// the shared model.
    ///
    /// # Errors
    ///
    /// Returns [`RangeError`] when the initial power flow cannot be solved.
    pub fn build(self) -> Result<CyberRange, RangeError> {
        let settings = RangeSettings {
            interval: self.interval,
            fault_seed: self.fault_seed,
        };
        let state = RangeState::instantiate(&self.model, &settings, self.telemetry)?;
        Ok(CyberRange {
            model: self.model,
            settings,
            state,
        })
    }
}

impl CyberRange {
    /// Instantiates a range from a shared compiled model with default
    /// settings — shorthand for `RangeBuilder::from_model(model).build()`.
    /// This is the cheap path the multi-tenant farm takes per tenant.
    ///
    /// # Errors
    ///
    /// See [`RangeBuilder::build`].
    pub fn instantiate(model: Arc<CompiledModel>) -> Result<CyberRange, RangeError> {
        RangeBuilder::from_model(model).build()
    }

    /// The `Arc`-shared compiled model this range was instantiated from.
    pub fn model(&self) -> &Arc<CompiledModel> {
        &self.model
    }

    /// The compiled network plan (host IPs, Figure-4 dot rendering) —
    /// part of the shared model.
    pub fn plan(&self) -> &NetworkPlan {
        &self.model.plan
    }

    /// All diagnostics accumulated while compiling the model.
    pub fn diagnostics(&self) -> &[Diagnostic] {
        &self.model.diagnostics
    }

    /// Captures a deterministic *mid-run* checkpoint: the replay position of
    /// this tenant — step count, simulation clock, fault-RNG stream state,
    /// full process store with write versions, and a bit-exact digest of the
    /// power solution. Cheap and read-only; call it between steps. See
    /// [`Checkpoint`](crate::Checkpoint) for the resume contract.
    pub fn checkpoint(&self) -> crate::Checkpoint {
        crate::Checkpoint::capture(&self.model, &self.settings, &self.state)
    }

    /// Summary line for logs and the pipeline demonstration binary.
    pub fn summary(&self) -> String {
        let trips: usize = self
            .ieds
            .values()
            .map(sgcr_ied::IedHandle::trip_count)
            .sum();
        format!(
            "cyber range: {} hosts, {} switches | {} | {} IEDs, {} PLCs, SCADA: {} | interval {} ms | {} solve errors, {} trips",
            self.model.plan.hosts.len(),
            self.model.plan.switches.len(),
            self.power.summary(),
            self.ieds.len(),
            self.plcs.len(),
            self.scada.is_some(),
            self.interval.as_millis(),
            self.solve_errors_total(),
            trips,
        )
    }
}
