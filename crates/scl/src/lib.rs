#![warn(missing_docs)]

//! # sgcr-scl
//!
//! IEC 61850 SCL (System Configuration description Language) for the SG-ML
//! toolchain: a typed model, one parser for the four file kinds the paper's
//! Table I describes, a writer, and the SED-driven consolidation step.
//!
//! | File | Role (paper Table I) | Section its role needs |
//! |------|----------------------|------------------------|
//! | SSD  | substation single-line diagram, voltage/bay levels | `Substation` |
//! | SCD  | complete substation configuration incl. communication | `Communication`, `IED` |
//! | ICD  | one IED's capabilities (logical nodes, data types) | `IED` |
//! | SED  | electrical + communication ties between substations | `Private(sgcr:InterSubstationLine)` |
//!
//! [`parse_scl`] and [`parse_scl_lenient`] read every kind; whether a file
//! has the section its role needs is a bundle rule (`SG0009`), checked by
//! `sgcr-core` with the other rules over the named files of a bundle.
//!
//! Real SSD files carry no electrical impedances; this toolchain keeps the
//! SG-ML supplements inline as SCL `Private type="sgcr:…"` extensions (the
//! standard's extension mechanism), so a single file set fully describes a
//! runnable model.
//!
//! # Examples
//!
//! ```
//! use sgcr_scl::{parse_scl, write_scl};
//!
//! let text = r#"<SCL xmlns="http://www.iec.ch/61850/2003/SCL">
//!   <Header id="demo"/>
//!   <Substation name="S1">
//!     <VoltageLevel name="VL1"><Voltage multiplier="k">110</Voltage></VoltageLevel>
//!   </Substation>
//! </SCL>"#;
//! let doc = parse_scl(text)?;
//! assert_eq!(doc.substations[0].voltage_levels[0].voltage_kv, 110.0);
//! let _regenerated = write_scl(&doc);
//! # Ok::<(), sgcr_scl::SclError>(())
//! ```

pub mod codes;
mod consolidate;
mod error;
mod parse;
mod types;
mod write;

pub use consolidate::{consolidate_scd, consolidate_ssd, station_buses};
pub use error::{Diagnostic, SclError, Severity, Span};
pub use parse::{parse_scl, parse_scl_lenient};
pub use types::*;
pub use write::write_scl;
