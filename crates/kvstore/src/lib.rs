#![warn(missing_docs)]

//! # sgcr-kvstore
//!
//! The process cache that couples the cyber side (virtual IEDs, PLCs, SCADA)
//! of the cyber range with the physical side (the power-flow simulator).
//!
//! The SG-ML paper connects virtual IEDs to the power system simulator through
//! a MySQL database used as *"a cache storing a set of key-value pairs, for
//! reading power grid measurements (voltages, power flow, etc.) and executing
//! control (e.g., opening/closing circuit breakers)"*. This crate reproduces
//! those semantics in-process: a concurrent, versioned key-value store.
//!
//! Every write bumps a global version counter, so deterministic simulation
//! components can poll [`ProcessStore::changes_since`] instead of relying on
//! wall-clock notification timing. A poll at the current version returns at
//! once.
//!
//! Components that touch the same keys every step resolve each key once to
//! a [`Slot`] and read and write through it ([`ProcessStore::get_at`],
//! [`ProcessStore::set_at`], [`ProcessStore::set_all`]); the string API
//! looks keys up in the same table. The batch write [`ProcessStore::set_all`]
//! skips every value bitwise equal to the one stored, so an unchanged entry
//! keeps its version, and a reader asks [`ProcessStore::written_since`]
//! whether any of its slots moved since it last looked.
//!
//! # Examples
//!
//! ```
//! use sgcr_kvstore::{ProcessStore, Value};
//!
//! let store = ProcessStore::new();
//! store.set("meas/S1/line1/p_mw", Value::Float(12.5));
//! assert_eq!(store.get("meas/S1/line1/p_mw"), Some(Value::Float(12.5)));
//!
//! let v0 = store.version();
//! store.set("cmd/S1/cb1/open", Value::Bool(true));
//! let changed = store.changes_since(v0);
//! assert_eq!(changed.len(), 1);
//! assert_eq!(changed[0].key, "cmd/S1/cb1/open");
//! ```

mod keys;
mod store;
mod value;

pub use keys::Keys;
pub use store::{Change, Entry, ProcessStore, Slot};
pub use value::Value;
