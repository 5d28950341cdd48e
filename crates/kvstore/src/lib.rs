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
//! those semantics in-process: a concurrent, versioned key-value store. It
//! knows no key schema; the range's key namespace lives in `sgcr-core`'s
//! keymap.
//!
//! Every write bumps a global version counter and stamps the entry with it,
//! so deterministic simulation components poll by version instead of
//! relying on wall-clock notification timing.
//!
//! Components that touch the same keys every step resolve each key once to
//! a [`Slot`] and read and write through it ([`ProcessStore::get_at`],
//! [`ProcessStore::entry_at`], [`ProcessStore::set_at`],
//! [`ProcessStore::set_all`]); [`ProcessStore::get`] and
//! [`ProcessStore::set`] look keys up in the same table. The batch write
//! [`ProcessStore::set_all`] skips every value bitwise equal to the one
//! stored, so an unchanged entry keeps its version, and a reader asks
//! [`ProcessStore::written_since`] whether any of its slots moved since it
//! last looked. A reader that would rather be told registers a
//! [`std::task::Waker`] on its slots with [`ProcessStore::watch`]: every
//! write to one of them wakes it.
//!
//! A range resolves its slots once per compiled model, in a template store
//! that holds keys and no entries, and gives each tenant a
//! [`ProcessStore::fork`] of it: an empty store at version 0 that shares
//! the template's key index, so every slot the template issued names the
//! same key in every fork. A slot is valid in the store that issued it,
//! that store's clones and its forks.
//!
//! # Examples
//!
//! ```
//! use sgcr_kvstore::{ProcessStore, Value};
//!
//! let store = ProcessStore::new();
//! let [flow, trip] = ["line1/p_mw", "cb1/close"].map(|key| store.slot(key));
//! store.set_all([(flow, Value::Float(12.5))]);
//! let seen = store.version();
//!
//! // A writer that knows only the key reaches the same entry.
//! store.set("cb1/close", Value::Bool(false));
//! assert!(store.written_since(&[trip], seen));
//! assert!(!store.written_since(&[flow], seen));
//! assert_eq!(store.get_at(trip), Some(Value::Bool(false)));
//!
//! // A fork keeps the slots and none of the entries.
//! let tenant = store.fork();
//! tenant.set_at(flow, 3.0);
//! assert_eq!((tenant.version(), tenant.get("cb1/close")), (1, None));
//! assert_eq!(store.get_at(flow), Some(Value::Float(12.5)));
//! ```

mod store;
mod value;

pub use store::{Entry, ProcessStore, Slot};
pub use value::Value;
