//! The concurrent, versioned process store.

use crate::value::Value;
use parking_lot::RwLock;
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::task::Waker;

/// A stored entry: the value plus the global version at which it was written.
#[derive(Debug, Clone, PartialEq)]
pub struct Entry {
    /// Current value.
    pub value: Value,
    /// Global store version assigned to the write that produced this value.
    pub version: u64,
}

/// A key resolved to its position in a store's slot table by
/// [`ProcessStore::slot`].
///
/// Reading and writing through a slot ([`get_at`](ProcessStore::get_at),
/// [`set_at`](ProcessStore::set_at)) skips hashing the key. A range resolves
/// every key once per compiled model, in a template store, and each tenant
/// runs a [`fork`](ProcessStore::fork) of that template, so no tenant
/// resolves a key. A slot is valid in the store that issued it, that
/// store's clones and its forks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Slot(usize);

/// Concurrent key-value cache coupling cyber emulation and power simulation.
///
/// Cloning is cheap: clones share the same underlying table (the store is
/// the single "database host" of the cyber range; every virtual device holds
/// a handle to it, exactly as every virtual IED in the paper connects to the
/// single MySQL instance). A [`fork`](ProcessStore::fork) is a new, empty
/// store that shares only the key index.
///
/// The store knows no key schema. Every key it has seen owns one slot in a
/// table: [`get`](ProcessStore::get) and [`set`](ProcessStore::set) look the
/// key up in an index, the slot API indexes the table directly. Both read
/// and write the same entries and share one version counter.
///
/// A reader that waits for its slots to move registers a [`Waker`] on them
/// with [`watch`](ProcessStore::watch); every write to a watched slot wakes
/// it.
#[derive(Clone, Default)]
pub struct ProcessStore {
    inner: Arc<Inner>,
}

#[derive(Default)]
struct Inner {
    table: RwLock<Table>,
    version: AtomicU64,
}

/// The slot table. A slot is created when a key is first interned and never
/// freed, so slots stay valid; its entry is `None` until the key is first
/// written. An interned key without an entry is absent from every query.
#[derive(Default)]
struct Table {
    /// Key → slot index, one per entry: the only copy of each key, shared
    /// with the store's forks until one of them interns a key.
    index: Arc<HashMap<String, usize>>,
    entries: Vec<Option<Entry>>,
    /// Number of slots holding an entry.
    live: usize,
    /// Per slot, up to the highest watched one: the index in `watchers` of
    /// its latest watcher, or [`NO_WATCHER`].
    first_watcher: Vec<u32>,
    /// Every registered waker with the index of the next watcher of its
    /// slot: one chain per slot, most slots have one link.
    watchers: Vec<(Waker, u32)>,
}

/// The end of a slot's chain of watchers.
const NO_WATCHER: u32 = u32::MAX;

impl Table {
    fn lookup(&self, key: &str) -> Option<&Entry> {
        self.index
            .get(key)
            .and_then(|&slot| self.entries[slot].as_ref())
    }

    /// The wakers watching `slot`, latest first.
    fn watchers_of(&self, slot: usize) -> impl Iterator<Item = &Waker> {
        let mut next = self.first_watcher.get(slot).copied().unwrap_or(NO_WATCHER);
        std::iter::from_fn(move || {
            let (waker, after) = self.watchers.get(next as usize)?;
            next = *after;
            Some(waker)
        })
    }

    /// The slot of `key`, interned if new. A new key copies a shared index
    /// first.
    fn intern(&mut self, key: &str) -> usize {
        if let Some(&slot) = self.index.get(key) {
            return slot;
        }
        let slot = self.entries.len();
        self.entries.push(None);
        Arc::make_mut(&mut self.index).insert(key.to_string(), slot);
        slot
    }

    /// Stores `entry` in `slot` and wakes the slot's watchers: the one
    /// path every write takes.
    fn write(&mut self, slot: usize, entry: Entry) {
        if self.entries[slot].replace(entry).is_none() {
            self.live += 1;
        }
        self.watchers_of(slot).for_each(Waker::wake_by_ref);
    }

    /// Every present entry with its key, sorted by key.
    fn sorted(&self) -> Vec<(&String, &Entry)> {
        let mut present: Vec<(&String, &Entry)> = self
            .index
            .iter()
            .filter_map(|(key, &slot)| Some((key, self.entries[slot].as_ref()?)))
            .collect();
        present.sort_unstable_by(|a, b| a.0.cmp(b.0));
        present
    }
}

/// Prints the version, the number of slots and the number of entries: the
/// same text for two stores that interned and wrote alike.
impl fmt::Debug for ProcessStore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let table = self.inner.table.read();
        f.debug_struct("ProcessStore")
            .field("version", &self.version())
            .field("slots", &table.entries.len())
            .field("entries", &table.live)
            .finish()
    }
}

impl ProcessStore {
    /// Creates an empty store at version 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// The current global version (total number of writes so far).
    pub fn version(&self) -> u64 {
        self.inner.version.load(Ordering::SeqCst)
    }

    fn next_version(&self) -> u64 {
        self.inner.version.fetch_add(1, Ordering::SeqCst) + 1
    }

    /// Resolves `key` to its slot, interning the key if the store has not
    /// seen it. Interning creates no entry: until the first write the key
    /// stays absent from [`get`](ProcessStore::get),
    /// [`len`](ProcessStore::len) and [`dump`](ProcessStore::dump).
    ///
    /// # Examples
    ///
    /// ```
    /// use sgcr_kvstore::{ProcessStore, Value};
    ///
    /// let store = ProcessStore::new();
    /// let slot = store.slot("pump/running");
    /// assert_eq!(store.len(), 0);
    /// store.set_at(slot, true);
    /// assert_eq!(store.get("pump/running"), Some(Value::Bool(true)));
    /// ```
    pub fn slot(&self, key: &str) -> Slot {
        self.interned(key)
            .unwrap_or_else(|| Slot(self.inner.table.write().intern(key)))
    }

    /// The slot of `key` if this store has interned it, under the read
    /// lock; interns nothing.
    pub fn interned(&self, key: &str) -> Option<Slot> {
        self.inner.table.read().index.get(key).copied().map(Slot)
    }

    /// A new store at version 0 with no entries and no watchers that keeps
    /// this store's slots: every slot issued here so far names the same key
    /// in the fork. The fork shares the key index; interning a key the fork
    /// lacks copies the index once, and leaves this store and its other
    /// forks as they are (see the crate docs for an example).
    pub fn fork(&self) -> ProcessStore {
        let table = self.inner.table.read();
        let table = Table {
            index: table.index.clone(),
            entries: vec![None; table.entries.len()],
            ..Table::default()
        };
        ProcessStore {
            inner: Arc::new(Inner {
                table: RwLock::new(table),
                version: AtomicU64::new(0),
            }),
        }
    }

    /// Reads the current value through a slot.
    pub fn get_at(&self, slot: Slot) -> Option<Value> {
        self.entry_at(slot).map(|e| e.value)
    }

    /// Reads the full entry (value + version) through a slot. A slot past
    /// the end of this store's table reads as absent.
    pub fn entry_at(&self, slot: Slot) -> Option<Entry> {
        let table = self.inner.table.read();
        table.entries.get(slot.0)?.clone()
    }

    /// Writes `value` through a slot, returning the version assigned —
    /// the same write [`set`](ProcessStore::set) makes for the slot's key.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is not valid in this store (see [`Slot`]).
    pub fn set_at(&self, slot: Slot, value: impl Into<Value>) -> u64 {
        let value = value.into();
        let mut table = self.inner.table.write();
        assert!(slot.0 < table.entries.len(), "slot from another store");
        let version = self.next_version();
        table.write(slot.0, Entry { value, version });
        version
    }

    /// Writes each `(slot, value)` pair in order under one lock, skipping
    /// every pair whose value is [bitwise equal](Value::bits_eq) to the
    /// slot's current value: the same writes, with the same versions, as
    /// that sequence of [`set_at`](ProcessStore::set_at) calls minus the
    /// ones that would change nothing. An absent entry always differs. A
    /// skipped slot keeps its version, so [`written_since`](ProcessStore::written_since)
    /// sees only the values that moved. Returns the store version after the
    /// batch.
    ///
    /// # Panics
    ///
    /// Panics if a slot is not valid in this store (see [`Slot`]); the
    /// writes before it are kept.
    pub fn set_all(&self, writes: impl IntoIterator<Item = (Slot, Value)>) -> u64 {
        let mut table = self.inner.table.write();
        for (slot, value) in writes {
            assert!(slot.0 < table.entries.len(), "slot from another store");
            let current = table.entries[slot.0].as_ref();
            if current.is_some_and(|e| e.value.bits_eq(&value)) {
                continue;
            }
            let version = self.next_version();
            table.write(slot.0, Entry { value, version });
        }
        self.version()
    }

    /// Whether any of `slots` was written after global version `since`,
    /// read under one lock. An absent entry counts as written, so a reader
    /// whose slot has no value yet keeps looking. A slot past the end of
    /// this store's table reads as absent, as [`get_at`](ProcessStore::get_at)
    /// does.
    ///
    /// # Examples
    ///
    /// ```
    /// use sgcr_kvstore::ProcessStore;
    ///
    /// let store = ProcessStore::new();
    /// let a = store.slot("a");
    /// store.set_at(a, 1.0);
    /// let seen = store.version();
    /// assert!(!store.written_since(&[a], seen));
    /// store.set_all([(a, 1.0.into())]); // the same bits: no write
    /// assert!(!store.written_since(&[a], seen));
    /// store.set_all([(a, 2.0.into())]);
    /// assert!(store.written_since(&[a], seen));
    /// ```
    pub fn written_since(&self, slots: &[Slot], since: u64) -> bool {
        let table = self.inner.table.read();
        slots.iter().any(|slot| {
            table
                .entries
                .get(slot.0)
                .and_then(Option::as_ref)
                .is_none_or(|e| e.version > since)
        })
    }

    /// Registers `waker` on each of `slots`: every later write to one of
    /// them — [`set`](ProcessStore::set), [`set_at`](ProcessStore::set_at)
    /// or a pair [`set_all`](ProcessStore::set_all) does not skip — wakes
    /// it, under the store's lock. A waker is registered on a slot once,
    /// however often it is passed ([`Waker::will_wake`]).
    ///
    /// # Panics
    ///
    /// Panics if a slot is not valid in this store (see [`Slot`]).
    ///
    /// # Examples
    ///
    /// ```
    /// use sgcr_kvstore::{ProcessStore, Value};
    /// use std::sync::atomic::{AtomicUsize, Ordering};
    /// use std::sync::Arc;
    /// use std::task::{Wake, Waker};
    ///
    /// struct Count(AtomicUsize);
    /// impl Wake for Count {
    ///     fn wake(self: Arc<Self>) {
    ///         self.0.fetch_add(1, Ordering::Relaxed);
    ///     }
    /// }
    ///
    /// let store = ProcessStore::new();
    /// let a = store.slot("a");
    /// let count = Arc::new(Count(AtomicUsize::new(0)));
    /// store.watch(&[a, a], &Waker::from(count.clone()));
    /// store.set_at(a, 1.0);
    /// store.set_all([(a, Value::Float(1.0))]); // skipped: no write, no wake
    /// store.set("b", 2.0); // not watched
    /// assert_eq!(count.0.load(Ordering::Relaxed), 1);
    /// ```
    pub fn watch(&self, slots: &[Slot], waker: &Waker) {
        let mut table = self.inner.table.write();
        for slot in slots {
            assert!(slot.0 < table.entries.len(), "slot from another store");
            if table.watchers_of(slot.0).any(|w| w.will_wake(waker)) {
                continue;
            }
            if table.first_watcher.len() <= slot.0 {
                table.first_watcher.resize(slot.0 + 1, NO_WATCHER);
            }
            let next = table.first_watcher[slot.0];
            let index = u32::try_from(table.watchers.len()).expect("fewer than 2^32 watchers");
            table.watchers.push((waker.clone(), next));
            table.first_watcher[slot.0] = index;
        }
    }

    /// Reads the current value for `key`.
    pub fn get(&self, key: &str) -> Option<Value> {
        self.inner.table.read().lookup(key).map(|e| e.value.clone())
    }

    /// Convenience: reads a float (accepting `Int` as float).
    pub fn get_float(&self, key: &str) -> Option<f64> {
        self.get(key).and_then(|v| v.as_float())
    }

    /// Convenience: reads a boolean.
    pub fn get_bool(&self, key: &str) -> Option<bool> {
        self.get(key).and_then(|v| v.as_bool())
    }

    /// Writes `value` under `key`, returning the version assigned. An
    /// existing key is overwritten in its slot, without allocating.
    pub fn set(&self, key: &str, value: impl Into<Value>) -> u64 {
        let value = value.into();
        let mut table = self.inner.table.write();
        let slot = table.intern(key);
        let version = self.next_version();
        table.write(slot, Entry { value, version });
        version
    }

    /// Number of keys stored.
    pub fn len(&self) -> usize {
        self.inner.table.read().live
    }

    /// Whether the store holds no keys.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A point-in-time copy of every entry *with* its write version, sorted
    /// by key — the store's contribution to a mid-run checkpoint. Unlike
    /// [`snapshot`](ProcessStore::snapshot), the per-entry versions are
    /// preserved so two deterministic runs can be compared write-for-write,
    /// not just value-for-value.
    pub fn dump(&self) -> Vec<(String, Entry)> {
        let table = self.inner.table.read();
        table
            .sorted()
            .into_iter()
            .map(|(k, e)| (k.clone(), e.clone()))
            .collect()
    }

    /// A point-in-time copy of the whole store, sorted by key.
    pub fn snapshot(&self) -> Vec<(String, Value)> {
        let table = self.inner.table.read();
        table
            .sorted()
            .into_iter()
            .map(|(k, e)| (k.clone(), e.value.clone()))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn set_get() {
        let s = ProcessStore::new();
        assert_eq!(s.get("x"), None);
        s.set("x", 1.5f64);
        assert_eq!(s.get_float("x"), Some(1.5));
        assert_eq!(s.get("x"), Some(Value::Float(1.5)));
    }

    #[test]
    fn versions_monotonic() {
        let s = ProcessStore::new();
        let v1 = s.set("a", 1i64);
        let v2 = s.set("b", 2i64);
        let v3 = s.set("a", 3i64);
        assert!(v1 < v2 && v2 < v3);
        assert_eq!(s.version(), v3);
        assert_eq!(s.entry_at(s.slot("a")).unwrap().version, v3);
    }

    #[test]
    fn shared_between_clones() {
        let s = ProcessStore::new();
        let s2 = s.clone();
        s.set("x", 42i64);
        assert_eq!(s2.get("x"), Some(Value::Int(42)));
    }

    #[test]
    fn interning_creates_no_entry() {
        let s = ProcessStore::new();
        s.set("a", 1i64);
        let mark = s.version();
        let before = (s.dump(), s.snapshot(), s.len());
        let slot = s.slot("b");
        assert_eq!(s.get("b"), None);
        assert_eq!(s.get_at(slot), None);
        assert_eq!(s.entry_at(slot), None);
        assert_eq!((s.dump(), s.snapshot(), s.len()), before);
        assert!(
            s.written_since(&[slot], mark),
            "an absent entry reads as written"
        );
        assert_eq!(s.version(), mark, "interning is not a write");
    }

    #[test]
    fn slot_and_key_writes_share_entries_and_versions() {
        let s = ProcessStore::new();
        let a = s.slot("a");
        assert_eq!(s.slot("a"), a, "interning is idempotent");
        let v1 = s.set_at(a, 1i64);
        assert_eq!(s.get("a"), Some(Value::Int(1)));
        let v2 = s.set("b", 2i64);
        let v3 = s.set("a", 3i64);
        assert_eq!(s.get_at(a), Some(Value::Int(3)));
        let b = s.slot("b");
        let v4 = s.set_at(b, 4i64);
        assert_eq!(s.get("b"), Some(Value::Int(4)));
        assert_eq!((v1, v2, v3, v4), (1, 2, 3, 4));
        assert_eq!(s.version(), 4);
        assert_eq!(s.entry_at(a).unwrap().version, v3);
        assert!(s.written_since(&[a], v2) && !s.written_since(&[a], v3));
        assert!(s.written_since(&[a, b], v3) && !s.written_since(&[a, b], v4));
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn set_all_is_a_sequence_of_set_at() {
        let one = ProcessStore::new();
        let all = ProcessStore::new();
        for s in [&one, &all] {
            s.set("b", 0i64);
        }
        let writes = [
            ("a", Value::Int(1)),
            ("b", Value::Int(2)),
            ("a", Value::Int(3)),
        ];
        let mut last = 0;
        for (key, value) in writes.clone() {
            last = one.set_at(one.slot(key), value);
        }
        let slots: Vec<(Slot, Value)> = writes
            .into_iter()
            .map(|(key, value)| (all.slot(key), value))
            .collect();
        assert_eq!(all.set_all(slots), last);
        assert_eq!(all.dump(), one.dump());
        assert_eq!(all.set_all([]), all.version());
    }

    #[test]
    fn set_all_skips_values_that_do_not_change() {
        let s = ProcessStore::new();
        let (a, b, c) = (s.slot("a"), s.slot("b"), s.slot("c"));
        s.set_at(a, 1.0);
        s.set_at(b, -0.0);
        let mark = s.version();
        let batch = [
            (a, Value::Float(1.0)), // the same bits: skipped
            (b, Value::Float(0.0)), // differs from -0.0 in the sign bit
            (c, Value::Int(7)),     // absent: always written
            (a, Value::Float(f64::NAN)),
        ];
        assert_eq!(s.set_all(batch), mark + 3);
        let version = |slot| s.entry_at(slot).map(|e| e.version);
        assert_eq!([b, c, a].map(version), [3, 4, 5].map(Some));
        assert_eq!(s.set_all([(a, Value::Float(f64::NAN))]), mark + 3);
        assert!(!s.written_since(&[a, b, c], mark + 3));
        assert!(s.written_since(&[c, a], mark + 2));
    }

    #[test]
    fn a_foreign_slot_reads_as_absent() {
        let s = ProcessStore::new();
        let other = ProcessStore::new();
        let (_, foreign) = (other.slot("x"), other.slot("y"));
        s.set("a", 1i64);
        assert!(s.written_since(&[foreign], s.version()));
        assert_eq!(s.entry_at(foreign), None);
        assert!(!s.written_since(&[], 0));
    }

    #[test]
    fn clones_share_slots() {
        let s = ProcessStore::new();
        let s2 = s.clone();
        let slot = s.slot("k");
        assert_eq!(s2.slot("k"), slot);
        s2.set_at(slot, 7i64);
        assert_eq!(s.get_at(slot), Some(Value::Int(7)));
        assert_eq!(s.get("k"), Some(Value::Int(7)));
    }

    /// Counts its wakes.
    struct Count(std::sync::atomic::AtomicUsize);

    impl std::task::Wake for Count {
        fn wake(self: Arc<Self>) {
            self.0.fetch_add(1, Ordering::Relaxed);
        }
    }

    #[test]
    fn a_template_slot_names_its_key_in_every_fork() {
        let template = ProcessStore::new();
        let [a, b] = ["a", "b"].map(|key| template.slot(key));
        template.set_at(b, 1i64);
        let forks = [template.fork(), template.fork()];
        for fork in &forks {
            assert_eq!((fork.version(), fork.len(), fork.get_at(b)), (0, 0, None));
            assert_eq!([fork.slot("a"), fork.slot("b")], [a, b]);
        }
        forks[0].set_at(a, 2i64);
        forks[1].set("a", 3i64);
        assert_eq!(forks[0].get("a"), Some(Value::Int(2)));
        assert_eq!(forks[1].get_at(a), Some(Value::Int(3)));
        assert_eq!(template.get_at(a), None);
    }

    #[test]
    fn a_fork_has_its_own_writes_versions_and_watchers() {
        let template = ProcessStore::new();
        let a = template.slot("a");
        let (one, two) = (template.fork(), template.fork());
        let count = Arc::new(Count(Default::default()));
        one.watch(&[a], &Waker::from(count.clone()));
        template.set_at(a, 1i64);
        two.set_at(a, 1i64);
        two.set_at(a, 2i64);
        assert_eq!(count.0.load(Ordering::Relaxed), 0, "no write to `one`");
        assert_eq!(
            (template.version(), one.version(), two.version()),
            (1, 0, 2)
        );
        assert_eq!(one.set_at(a, 5i64), 1);
        assert_eq!(count.0.load(Ordering::Relaxed), 1);
        assert!(one.written_since(&[a], 0) && !one.written_since(&[a], 1));
        assert_eq!(two.entry_at(a).map(|e| e.version), Some(2));
        assert_eq!(template.fork().len(), 0, "a fork copies no entry");
    }

    #[test]
    fn interning_in_a_fork_changes_no_other_store() {
        let template = ProcessStore::new();
        let a = template.slot("a");
        let (one, two) = (template.fork(), template.fork());
        let x = one.slot("x");
        one.set_at(x, 1i64);
        one.set("y", 2i64);
        assert_eq!(one.slot("a"), a, "the template's slots stay valid");
        one.set_at(a, 3i64);
        assert_eq!(one.get("a"), Some(Value::Int(3)));
        assert_eq!((one.len(), one.version()), (3, 3));
        for other in [&template, &two, &template.fork()] {
            assert_eq!((other.interned("x"), other.interned("y")), (None, None));
            assert_eq!((other.interned("a"), other.get("x")), (Some(a), None));
            assert_eq!(format!("{other:?}").matches("slots: 1,").count(), 1);
        }
        assert_eq!(two.slot("z"), x, "a sibling numbers its own keys");
    }

    #[test]
    fn concurrent_writers_unique_versions() {
        let s = ProcessStore::new();
        let mut handles = Vec::new();
        for t in 0..8 {
            let s = s.clone();
            handles.push(thread::spawn(move || {
                let mut versions = Vec::new();
                for i in 0..100 {
                    versions.push(s.set(&format!("k{t}"), i as i64));
                }
                versions
            }));
        }
        let mut all: Vec<u64> = handles
            .into_iter()
            .flat_map(|h| h.join().expect("writer thread"))
            .collect();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), 800, "every write got a unique version");
        assert_eq!(s.version(), 800);
    }
}
