//! The concurrent, versioned process store.

use crate::value::Value;
use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A stored entry: the value plus the global version at which it was written.
#[derive(Debug, Clone, PartialEq)]
pub struct Entry {
    /// Current value.
    pub value: Value,
    /// Global store version assigned to the write that produced this value.
    pub version: u64,
}

/// A change record returned by [`ProcessStore::changes_since`].
#[derive(Debug, Clone, PartialEq)]
pub struct Change {
    /// Key that changed.
    pub key: String,
    /// Value after the change.
    pub value: Value,
    /// Version assigned to the change.
    pub version: u64,
}

/// Concurrent key-value cache coupling cyber emulation and power simulation.
///
/// Cloning is cheap: clones share the same underlying map (the store is the
/// single "database host" of the cyber range; every virtual device holds a
/// handle to it, exactly as every virtual IED in the paper connects to the
/// single MySQL instance).
#[derive(Debug, Clone, Default)]
pub struct ProcessStore {
    inner: Arc<Inner>,
}

#[derive(Debug, Default)]
struct Inner {
    map: RwLock<HashMap<String, Entry>>,
    version: AtomicU64,
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

    /// Reads the current value for `key`.
    pub fn get(&self, key: &str) -> Option<Value> {
        self.inner.map.read().get(key).map(|e| e.value.clone())
    }

    /// Reads the full entry (value + version) for `key`.
    pub fn entry(&self, key: &str) -> Option<Entry> {
        self.inner.map.read().get(key).cloned()
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
    /// existing entry is overwritten in place, without allocating its key.
    pub fn set(&self, key: &str, value: impl Into<Value>) -> u64 {
        let value = value.into();
        let mut map = self.inner.map.write();
        let version = self.inner.version.fetch_add(1, Ordering::SeqCst) + 1;
        let entry = Entry { value, version };
        match map.get_mut(key) {
            Some(slot) => *slot = entry,
            None => {
                map.insert(key.to_string(), entry);
            }
        }
        version
    }

    /// Writes `value` only if the current value equals `expected`
    /// (or if `expected` is `None` and the key is absent).
    ///
    /// Returns `Ok(version)` on success and `Err(current)` with the value
    /// actually present otherwise.
    pub fn compare_and_set(
        &self,
        key: &str,
        expected: Option<&Value>,
        value: impl Into<Value>,
    ) -> Result<u64, Option<Value>> {
        let mut map = self.inner.map.write();
        let current = map.get(key).map(|e| e.value.clone());
        if current.as_ref() != expected {
            return Err(current);
        }
        let version = self.inner.version.fetch_add(1, Ordering::SeqCst) + 1;
        map.insert(
            key.to_string(),
            Entry {
                value: value.into(),
                version,
            },
        );
        Ok(version)
    }

    /// Removes `key`, returning the previous value if present.
    pub fn remove(&self, key: &str) -> Option<Value> {
        self.inner.map.write().remove(key).map(|e| e.value)
    }

    /// All keys currently present, sorted.
    pub fn keys(&self) -> Vec<String> {
        let mut keys: Vec<String> = self.inner.map.read().keys().cloned().collect();
        keys.sort();
        keys
    }

    /// All keys beginning with `prefix`, sorted.
    pub fn keys_with_prefix(&self, prefix: &str) -> Vec<String> {
        let mut keys: Vec<String> = self
            .inner
            .map
            .read()
            .keys()
            .filter(|k| k.starts_with(prefix))
            .cloned()
            .collect();
        keys.sort();
        keys
    }

    /// Number of keys stored.
    pub fn len(&self) -> usize {
        self.inner.map.read().len()
    }

    /// Whether the store holds no keys.
    pub fn is_empty(&self) -> bool {
        self.inner.map.read().is_empty()
    }

    /// Entries written after global version `since`, sorted by version.
    ///
    /// This is the deterministic change-feed used by simulation components in
    /// place of asynchronous notifications.
    pub fn changes_since(&self, since: u64) -> Vec<Change> {
        let map = self.inner.map.read();
        let mut changes: Vec<Change> = map
            .iter()
            .filter(|(_, e)| e.version > since)
            .map(|(k, e)| Change {
                key: k.clone(),
                value: e.value.clone(),
                version: e.version,
            })
            .collect();
        changes.sort_by_key(|c| c.version);
        changes
    }

    /// A point-in-time copy of every entry *with* its write version, sorted
    /// by key — the store's contribution to a mid-run checkpoint. Unlike
    /// [`snapshot`](ProcessStore::snapshot), the per-entry versions are
    /// preserved so two deterministic runs can be compared write-for-write,
    /// not just value-for-value.
    pub fn dump(&self) -> Vec<(String, Entry)> {
        let map = self.inner.map.read();
        let mut dump: Vec<(String, Entry)> =
            map.iter().map(|(k, e)| (k.clone(), e.clone())).collect();
        dump.sort_by(|a, b| a.0.cmp(&b.0));
        dump
    }

    /// A point-in-time copy of the whole store, sorted by key.
    pub fn snapshot(&self) -> Vec<(String, Value)> {
        let map = self.inner.map.read();
        let mut snap: Vec<(String, Value)> = map
            .iter()
            .map(|(k, e)| (k.clone(), e.value.clone()))
            .collect();
        snap.sort_by(|a, b| a.0.cmp(&b.0));
        snap
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn set_get_remove() {
        let s = ProcessStore::new();
        assert_eq!(s.get("x"), None);
        s.set("x", 1.5f64);
        assert_eq!(s.get_float("x"), Some(1.5));
        assert_eq!(s.remove("x"), Some(Value::Float(1.5)));
        assert_eq!(s.get("x"), None);
    }

    #[test]
    fn versions_monotonic() {
        let s = ProcessStore::new();
        let v1 = s.set("a", 1i64);
        let v2 = s.set("b", 2i64);
        let v3 = s.set("a", 3i64);
        assert!(v1 < v2 && v2 < v3);
        assert_eq!(s.version(), v3);
        assert_eq!(s.entry("a").unwrap().version, v3);
    }

    #[test]
    fn changes_since_reports_only_new() {
        let s = ProcessStore::new();
        s.set("a", 1i64);
        let mark = s.version();
        s.set("b", 2i64);
        s.set("a", 3i64);
        let changes = s.changes_since(mark);
        assert_eq!(changes.len(), 2);
        // Sorted by version: b then a.
        assert_eq!(changes[0].key, "b");
        assert_eq!(changes[1].key, "a");
        assert!(s.changes_since(s.version()).is_empty());
    }

    #[test]
    fn compare_and_set_semantics() {
        let s = ProcessStore::new();
        assert!(s.compare_and_set("k", None, 1i64).is_ok());
        let cur = Value::Int(1);
        assert!(s.compare_and_set("k", Some(&cur), 2i64).is_ok());
        // Stale expectation fails and reports the actual value.
        let err = s.compare_and_set("k", Some(&cur), 3i64).unwrap_err();
        assert_eq!(err, Some(Value::Int(2)));
    }

    #[test]
    fn prefix_queries() {
        let s = ProcessStore::new();
        s.set("meas/S1/l1/p", 1.0f64);
        s.set("meas/S1/l2/p", 2.0f64);
        s.set("cmd/S1/cb1", true);
        assert_eq!(s.keys_with_prefix("meas/").len(), 2);
        assert_eq!(s.keys_with_prefix("cmd/").len(), 1);
        assert_eq!(s.keys().len(), 3);
    }

    #[test]
    fn shared_between_clones() {
        let s = ProcessStore::new();
        let s2 = s.clone();
        s.set("x", 42i64);
        assert_eq!(s2.get("x"), Some(Value::Int(42)));
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
