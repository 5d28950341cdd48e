#![warn(missing_docs)]

//! # sgcr-core
//!
//! **SG-ML**: the modelling language and processor for automated generation
//! of smart grid cyber ranges — the primary contribution of the paper this
//! repository reproduces.
//!
//! A cyber range is described by a set of XML model files (the
//! [`SgmlBundle`]): standardized IEC 61850 SCL files (SSD/SCD/ICD/SED,
//! parsed by `sgcr-scl`), IEC 61131-3 PLCopen XML (parsed by `sgcr-plc`),
//! and the SG-ML supplementary schemas defined here — [`IedConfig`] XML
//! (protection thresholds + cyber↔physical mapping), [`PlcConfig`] XML,
//! SCADA Config XML (in `sgcr-scada`), and [`PowerExtraConfig`] XML (load
//! profiles, disturbance scenarios, and the simulation interval).
//!
//! [`CompiledModel::compile`] is the *SG-ML Processor*: like a compiler, it
//! parses the models once ([`ParsedBundle`]), checks them against the
//! bundle rules ([`check_bundle`] — the same function `sgcr-lint` reports
//! from), consolidates multi-substation files along SED connectivity,
//! generates the power-flow model from the SSD, the network emulation model
//! from the SCD, and compiles virtual-IED specs (features gated by their
//! ICDs), PLC programs, and the SCADA HMI blueprint into an immutable,
//! [`Arc`](std::sync::Arc)-shareable artifact. Instantiating that artifact
//! ([`CyberRange::instantiate`]) yields an *operational* cyber range ready
//! for interactive experiments — cheaply enough that one compiled model can
//! back thousands of concurrent tenant ranges (see [`Checkpoint`] and the
//! `sgcr-farm` crate).
//!
//! # Examples
//!
//! Compiling model files once and running a range:
//!
//! ```no_run
//! use sgcr_core::{CompiledModel, CyberRange, SgmlBundle};
//! use sgcr_net::SimDuration;
//!
//! # fn load(_: &str) -> String { String::new() }
//! let bundle = SgmlBundle {
//!     ssds: vec![load("substation.ssd.xml")],
//!     scds: vec![load("substation.scd.xml")],
//!     icds: vec![load("ied1.icd.xml")],
//!     ied_config: Some(load("ied_config.xml")),
//!     scada_config: Some(load("scada_config.xml")),
//!     ..SgmlBundle::default()
//! };
//! let model = CompiledModel::shared(&bundle)?;
//! let mut range = CyberRange::instantiate(model)?;
//! range.run_for(SimDuration::from_secs(10));
//! # Ok::<(), sgcr_core::RangeError>(())
//! ```

mod check;
mod checkpoint;
mod files;
mod fingerprint;
mod keymap;
mod model;
mod parsed;
mod range;
mod state;

pub mod compile;
pub mod sgml;

pub use check::check_bundle;
pub use checkpoint::{Checkpoint, CheckpointError, CHECKPOINT_VERSION};
pub use files::{read_bundle_dir, role_of, BundleIoError, FileRole};
pub use fingerprint::{fnv1a_64, Fingerprint};
pub use keymap::{
    branch_i_key, branch_loading_key, branch_p_key, branch_q_key, breaker_cmd_key,
    breaker_state_key, bus_va_key, bus_vm_key, gen_cmd_key, load_cmd_key, load_p_key, source_p_key,
    split_scoped, SIM_STEP_KEY,
};
pub use model::{CompiledModel, CompiledPlc, CompiledScada};
pub use parsed::{parse_failure, ConfigFile, ParsedBundle, SclFile};
pub use range::{CyberRange, RangeBuilder, RangeError, SgmlBundle};
pub use sgml::ied_config::{IedConfig, IedConfigError};
pub use sgml::plc_config::{
    PlcConfig, PlcConfigError, PlcDef, PlcGooseRule, PlcLogic, PlcReadRule, PlcWriteRule,
};
pub use sgml::power_extra::{PowerExtraConfig, PowerExtraError};
pub use state::{RangeSettings, RangeState};

pub use compile::ied::{compile_ied, IedCompilation};
pub use compile::network::{compile_network, NetworkPlan, PlannedHost, PlannedSwitch};
pub use compile::power::compile_power;
