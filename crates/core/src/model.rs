//! The immutable, shareable output of SG-ML compilation: a [`CompiledModel`].
//!
//! The SG-ML Processor is a compiler, and like any compiler its output is an
//! artifact that can be *executed many times*: one IEC 61850 model set is
//! compiled once — XML parsing, SED consolidation, power-model generation,
//! network planning, ICD feature gating, Structured-Text parsing — and the
//! resulting [`CompiledModel`] is wrapped in an [`Arc`] and instantiated
//! into any number of independent [`CyberRange`](crate::CyberRange)s. No
//! per-tenant work re-touches XML or ST source text; instantiation only
//! clones the pristine power model and stamps out fresh virtual devices
//! from the compiled blueprints. Each IED's IEC 61850 data model is built
//! here too: its attribute tree is shared by every tenant, which owns only
//! the leaf values. So is the process store's key index: every key a tenant
//! reads or writes is resolved to its slot here, in a template store, and
//! each tenant's store is a fork of it.
//!
//! This is the model/state split behind the multi-tenant range farm: the
//! compiled model is the paper's "generated cyber range" as a reusable
//! artifact, while [`RangeState`](crate::state::RangeState) is one
//! exercise's mutable world.

use crate::check::check_bundle;
use crate::compile::ied::compile_ied;
use crate::compile::network::{compile_network, NetworkPlan};
use crate::compile::power::compile_power;
use crate::fingerprint::Fingerprint;
use crate::keymap::Publish;
use crate::parsed::ParsedBundle;
use crate::range::{RangeError, SgmlBundle};
use sgcr_ied::{IedModel, IedSpec};
use sgcr_kvstore::ProcessStore;
use sgcr_net::SimDuration;
use sgcr_plc::{GooseBinding, MmsReadBinding, MmsWriteBinding, Program};
use sgcr_powerflow::{PowerNetwork, SimulationSchedule};
use sgcr_scada::ScadaConfig;
use sgcr_scl::{consolidate_scd, consolidate_ssd, Diagnostic, Severity};
use std::sync::Arc;

/// A PLC ready to instantiate: parsed program plus fully resolved bindings
/// (server names already mapped to IPs against the network plan). Every
/// tenant's PLC shares the program and the bindings.
#[derive(Debug, Clone)]
pub struct CompiledPlc {
    /// Host name (a ConnectedAP in the SCD).
    pub name: String,
    /// Scan period.
    pub scan_ms: u64,
    /// The parsed IEC 61131-3 program (ST or imported PLCopen XML).
    pub program: Arc<Program>,
    /// MMS read bindings with resolved server IPs.
    pub reads: Arc<[MmsReadBinding]>,
    /// MMS write bindings with resolved server IPs.
    pub writes: Arc<[MmsWriteBinding]>,
    /// GOOSE subscription bindings.
    pub gooses: Arc<[GooseBinding]>,
}

/// The SCADA HMI blueprint: which host runs it and its tag/alarm config.
#[derive(Debug, Clone)]
pub struct CompiledScada {
    /// Host name of the workstation in the SCD.
    pub host: String,
    /// The parsed HMI configuration, shared by every tenant's HMI.
    pub config: Arc<ScadaConfig>,
}

/// The immutable output of compiling an [`SgmlBundle`] — everything the
/// SG-ML Processor derives from the model files, and nothing that changes
/// while a range runs.
///
/// Wrap it in an [`Arc`] (see [`CompiledModel::shared`]) and hand clones of
/// the handle to [`RangeBuilder::from_model`](crate::RangeBuilder::from_model)
/// to stamp out tenants:
///
/// ```no_run
/// use sgcr_core::{CompiledModel, RangeBuilder, SgmlBundle};
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let bundle = SgmlBundle::from_dir("examples/epic_bundle")?;
/// let model = CompiledModel::shared(&bundle)?;
/// let tenant_a = RangeBuilder::from_model(model.clone()).build()?;
/// let tenant_b = RangeBuilder::from_model(model.clone()).build()?;
/// # let _ = (tenant_a, tenant_b);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct CompiledModel {
    /// The pristine physical model; every tenant starts from a clone of it.
    pub power: PowerNetwork,
    /// The cyber network plan (host IPs, switches, Figure-4 dot rendering).
    pub plan: NetworkPlan,
    /// Load profiles and scheduled disturbances from the Power Extra config.
    pub schedule: SimulationSchedule,
    /// Power-flow step interval from the Power Extra config (100 ms default).
    pub interval: SimDuration,
    /// Compiled virtual-IED specs (ICD-gated), in config order. Tenants run
    /// the IED data models built from these when the model compiled, so an
    /// edit made here afterwards reaches no tenant.
    pub ieds: Vec<IedSpec>,
    /// The IED models built from `ieds` when the model compiled, in the
    /// same order. Every tenant's IED apps run these: they share each
    /// model's attribute tree, spec, leaf handles and store slots, and copy
    /// only its leaf values.
    pub(crate) ied_models: Vec<Arc<IedModel>>,
    /// Compiled virtual PLCs, in config order.
    pub plcs: Vec<CompiledPlc>,
    /// The SCADA HMI blueprint, when configured.
    pub scada: Option<CompiledScada>,
    /// All diagnostics accumulated while compiling (warnings only — an
    /// error-severity diagnostic fails compilation).
    pub diagnostics: Vec<Diagnostic>,
    /// The template store: every key the IED models and `publish` resolved,
    /// and no entry. Each tenant's store is a fork of it.
    pub(crate) store: ProcessStore,
    /// The store slots of every measurement and command of `power`, shared
    /// by every tenant whose power model keeps its shape.
    pub(crate) publish: Arc<Publish>,
}

impl CompiledModel {
    /// Finds a compiled IED spec by name.
    pub fn ied(&self, name: &str) -> Option<&IedSpec> {
        self.ieds.iter().find(|i| i.name == name)
    }

    /// Finds a compiled PLC by host name.
    pub fn plc(&self, name: &str) -> Option<&CompiledPlc> {
        self.plcs.iter().find(|p| p.name == name)
    }

    /// Compiles an SG-ML bundle into an immutable model — the complete
    /// parse/consolidate/generate pipeline of the paper's Figures 2–3, run
    /// exactly once per bundle.
    ///
    /// The files are parsed once, under the names
    /// [`SgmlBundle::write_to_dir`] gives them, checked against the bundle
    /// rules ([`check_bundle`](crate::check_bundle)), and handed to
    /// [`CompiledModel::build`].
    ///
    /// # Errors
    ///
    /// See [`CompiledModel::build`].
    pub fn compile(bundle: &SgmlBundle) -> Result<CompiledModel, RangeError> {
        let parsed = ParsedBundle::from_bundle(bundle);
        CompiledModel::build(&parsed, &check_bundle(&parsed))
    }

    /// Decides whether a parsed bundle compiles, and builds it if it does —
    /// the one place that decision is made. `check` holds the findings of
    /// the bundle rules over `bundle` ([`check_bundle`](crate::check_bundle)):
    /// any error among them or among the parse diagnostics refuses the
    /// bundle. Otherwise this consolidates the parsed files along SED
    /// connectivity, generates the power model from the SSDs and the network
    /// plan from the SCDs, and compiles the virtual-IED specs (features
    /// gated by their ICDs), the PLC programs, and the SCADA HMI blueprint.
    /// The model's [`diagnostics`](CompiledModel::diagnostics) are the parse
    /// diagnostics, the findings, and the warnings of ICD feature gating.
    ///
    /// # Errors
    ///
    /// Returns [`RangeError::Validation`] with every parse diagnostic and
    /// finding when any of them is an error.
    pub fn build(bundle: &ParsedBundle, check: &[Diagnostic]) -> Result<CompiledModel, RangeError> {
        let mut diagnostics: Vec<Diagnostic> =
            bundle.diagnostics.iter().chain(check).cloned().collect();
        if diagnostics.iter().any(|d| d.severity == Severity::Error) {
            return Err(RangeError::Validation(diagnostics));
        }
        let ssd = consolidate_ssd(
            bundle.ssds.iter().map(|f| &f.doc),
            bundle.seds.iter().map(|f| &f.doc),
        );
        let power = compile_power(&ssd);
        let plan = compile_network(&consolidate_scd(bundle.scds.iter().map(|f| &f.doc)));

        let (interval, schedule) = match &bundle.power_config {
            Some(file) => (
                SimDuration::from_millis(file.config.interval_ms),
                file.config.schedule.clone(),
            ),
            None => (SimDuration::from_millis(100), SimulationSchedule::new()),
        };

        // Virtual-IED specs, gated by the features their ICDs declare.
        let mut ieds: Vec<IedSpec> = Vec::new();
        for config_spec in bundle.ied_config.iter().flat_map(|f| &f.config.ieds) {
            let spec = match bundle.icd_of(&config_spec.name) {
                Some(icd) => {
                    let compiled = compile_ied(config_spec, icd);
                    diagnostics.extend(compiled.diagnostics);
                    compiled.spec
                }
                None => {
                    diagnostics.push(Diagnostic::warning(
                        sgcr_scl::codes::ORPHAN_ICD,
                        format!(
                            "no ICD describes IED {:?}; instantiating from config alone",
                            config_spec.name
                        ),
                        "generate".to_string(),
                    ));
                    config_spec.clone()
                }
            };
            ieds.push(spec);
        }

        // Each IED's data model and store slots, built once for every
        // tenant. The bundle rules checked every item above; a caller that
        // skipped them gets the first bad item as an error.
        let store = ProcessStore::new();
        let ied_models = ieds
            .iter()
            .map(|spec| IedModel::build(spec.clone(), &store).map(Arc::new))
            .collect::<Result<_, _>>()
            .map_err(|detail| RangeError::Model {
                what: "IED data model",
                detail,
            })?;

        // Virtual-PLC programs, with binding servers resolved to IPs. Every
        // program parsed: the bundle was refused above otherwise.
        let mut plcs: Vec<CompiledPlc> = Vec::new();
        let defs = bundle.plc_config.iter().flat_map(|f| &f.config.plcs);
        for (def, program) in defs.zip(bundle.programs.iter().flatten()) {
            let reads = def
                .reads
                .iter()
                .filter_map(|r| {
                    Some(MmsReadBinding {
                        server: plan.host_ip(&r.server)?,
                        item: r.item.clone(),
                        variable: r.variable.clone(),
                        scale: r.scale,
                    })
                })
                .collect();
            let writes = def
                .writes
                .iter()
                .filter_map(|w| {
                    Some(MmsWriteBinding {
                        server: plan.host_ip(&w.server)?,
                        item: w.item.clone(),
                        variable: w.variable.clone(),
                    })
                })
                .collect();
            let gooses = def
                .gooses
                .iter()
                .map(|g| GooseBinding {
                    gocb_ref: g.gocb_ref.clone(),
                    index: g.index,
                    variable: g.variable.clone(),
                })
                .collect();
            plcs.push(CompiledPlc {
                name: def.name.clone(),
                scan_ms: def.scan_ms,
                program: Arc::clone(program),
                reads,
                writes,
                gooses,
            });
        }

        let scada = bundle.scada_config.as_ref().map(|file| CompiledScada {
            host: bundle.scada_host.clone(),
            config: Arc::new(file.config.clone()),
        });

        Ok(CompiledModel {
            publish: Arc::new(Publish::new(&power, &store)),
            store,
            power,
            plan,
            schedule,
            interval,
            ieds,
            ied_models,
            plcs,
            scada,
            diagnostics,
        })
    }

    /// Compiles a bundle straight into an [`Arc`] handle — the form every
    /// multi-tenant consumer wants.
    ///
    /// # Errors
    ///
    /// See [`CompiledModel::compile`].
    pub fn shared(bundle: &SgmlBundle) -> Result<Arc<CompiledModel>, RangeError> {
        Ok(Arc::new(CompiledModel::compile(bundle)?))
    }

    /// A structural fingerprint of the compiled artifact: the model summary
    /// plus the names that drive instantiation (hosts, switches, IEDs, PLCs,
    /// SCADA host, power elements). Two models that fingerprint equal stamp
    /// out behaviourally identical tenants, which is the compatibility check
    /// a [`Checkpoint`](crate::Checkpoint) performs before resuming — a
    /// checkpoint taken against one model must not silently resume against
    /// another.
    pub fn fingerprint(&self) -> u64 {
        let mut fp = Fingerprint::new();
        fp.update(self.summary().as_bytes());
        for host in &self.plan.hosts {
            fp.update(host.name.as_bytes());
            fp.update(host.ip.to_string().as_bytes());
        }
        for sw in &self.plan.switches {
            fp.update(sw.name.as_bytes());
        }
        for ied in &self.ieds {
            fp.update(ied.name.as_bytes());
        }
        for plc in &self.plcs {
            fp.update(plc.name.as_bytes());
        }
        if let Some(scada) = &self.scada {
            fp.update(scada.host.as_bytes());
        }
        for bus in &self.power.bus {
            fp.update(bus.name.as_bytes());
        }
        for line in &self.power.line {
            fp.update(line.name.as_bytes());
        }
        for switch in &self.power.switch {
            fp.update(switch.name.as_bytes());
        }
        fp.finish()
    }

    /// One-line inventory of the compiled artifact.
    pub fn summary(&self) -> String {
        format!(
            "compiled model: {} hosts, {} switches | {} | {} IEDs, {} PLCs, SCADA: {} | interval {} ms",
            self.plan.hosts.len(),
            self.plan.switches.len(),
            self.power.summary(),
            self.ieds.len(),
            self.plcs.len(),
            self.scada.is_some(),
            self.interval.as_millis(),
        )
    }
}
