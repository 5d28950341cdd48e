#![warn(missing_docs)]

//! # sgcr-ied
//!
//! The virtual IED of the smart grid cyber range.
//!
//! Mirroring the paper's §III-B "Virtual IED Configuration": each virtual
//! IED speaks IEC 61850 (MMS server towards SCADA/PLC, GOOSE between IEDs,
//! R-GOOSE/R-SV across substations), implements the protection functions of
//! Table II — PTOC, PTOV, PTUV, PDIF, and CILO — and couples to the power
//! simulation through the key-value process cache, reading measurements and
//! writing breaker commands.
//!
//! The feature set of one IED is an [`IedSpec`], produced by the SG-ML
//! processor from the IED's ICD file (which LN classes exist) plus the IED
//! Config XML (thresholds and cyber↔physical mapping). [`IedModel`] builds
//! the IEC 61850 data model a spec implies, once per compiled model, and
//! [`VirtualIedApp`] executes it on an emulated host with its own leaf
//! values.
//!
//! # Examples
//!
//! ```
//! use sgcr_ied::{IedSpec, VirtualIedApp, MeasurementMap};
//! use sgcr_kvstore::ProcessStore;
//!
//! let mut spec = IedSpec::new("GIED1", "S1");
//! spec.measurements.push(MeasurementMap {
//!     kv_key: "meas/S1/branch/l1/p_mw".into(),
//!     item: "MMXU1$MX$TotW$mag$f".into(),
//! });
//! let store = ProcessStore::new();
//! let (_app, handle) = VirtualIedApp::new(spec, store);
//! assert!(handle.model.read("GIED1LD0/MMXU1$MX$TotW$mag$f").is_some());
//! ```

mod ied;
mod protection;
mod spec;

pub use ied::{
    check_model, quality_item, IedEvent, IedEventKind, IedHandle, IedModel, VirtualIedApp,
};
pub use protection::{
    DifferentialRelay, Interlock, MonitoredState, OvercurrentCurve, OvercurrentRelay, RelayEvent,
    VoltageMode, VoltageRelay,
};
pub use spec::{
    BreakerMap, GooseEntry, GooseSpec, IedSpec, MeasurementMap, MonitoredBreaker, ProtectionSpec,
    RsvSpec,
};
