//! The built-in lint passes.
//!
//! | Pass | Codes | Question it answers |
//! |------|-------|---------------------|
//! | [`bundle`] | `SG00xx`–`SG02xx`, `SG0110`, `SG0304`–`SG0306`, `SG05xx` | does the bundle compile? ([`sgcr_core::check_bundle`]) |
//! | [`topology`] | `SG0301`–`SG0303` | does the single-line diagram power up? |
//! | [`protection`] | `SG04xx` | can every protection function actually trip? |
//! | [`scenario`] | `SG5xxx` | do exercise scenarios fit the bundle? |
//! | [`adversary`] | `SG7xxx` | can every `<Adversary>` goal actually be planned? |
//! | [`st_logic`] | `SG6xxx` | is the PLC control logic semantically sound? |

pub mod adversary;
pub mod bundle;
pub mod protection;
pub mod scenario;
pub mod st_logic;
pub mod topology;
