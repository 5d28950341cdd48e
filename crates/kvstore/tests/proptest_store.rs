//! Property tests on the process store: version monotonicity and
//! `written_since` completeness under arbitrary sequences of string-keyed
//! and slot operations.

use proptest::prelude::*;
use sgcr_kvstore::{ProcessStore, Value};

#[derive(Debug, Clone)]
enum Op {
    Set(u8, i64),
    /// Write through the key's slot.
    SetAt(u8, i64),
    /// Resolve the key's slot without writing.
    Intern(u8),
    Mark,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (any::<u8>(), any::<i64>()).prop_map(|(k, v)| Op::Set(k % 16, v)),
        (any::<u8>(), any::<i64>()).prop_map(|(k, v)| Op::SetAt(k % 16, v)),
        any::<u8>().prop_map(|k| Op::Intern(k % 16)),
        Just(Op::Mark),
    ]
}

proptest! {
    #[test]
    fn written_since_is_complete(ops in proptest::collection::vec(op_strategy(), 0..100)) {
        let store = ProcessStore::new();
        let mut marks: Vec<u64> = vec![0];
        for op in &ops {
            match op {
                Op::Set(k, v) => {
                    let version = store.set(&format!("k{k}"), Value::Int(*v));
                    prop_assert_eq!(version, store.version());
                }
                Op::SetAt(k, v) => {
                    let slot = store.slot(&format!("k{k}"));
                    let version = store.set_at(slot, Value::Int(*v));
                    prop_assert_eq!(version, store.version());
                    prop_assert_eq!(store.get(&format!("k{k}")), Some(Value::Int(*v)));
                }
                Op::Intern(k) => {
                    let before = (store.version(), store.len());
                    store.slot(&format!("k{k}"));
                    prop_assert_eq!((store.version(), store.len()), before);
                }
                Op::Mark => {
                    marks.push(store.version());
                }
            }
        }
        // Each entry carries the version of its last write: distinct, and
        // never past the counter.
        let dump = store.dump();
        let mut versions: Vec<u64> = dump.iter().map(|(_, e)| e.version).collect();
        versions.sort_unstable();
        versions.dedup();
        prop_assert_eq!(versions.len(), dump.len());
        prop_assert!(versions.iter().all(|&v| v <= store.version()));
        // A slot reads as written after a mark exactly when its entry is
        // absent or newer; it reads what its key reads.
        for k in 0..16u8 {
            let key = format!("k{k}");
            let slot = store.slot(&key);
            let entry = store.entry_at(slot);
            for &mark in &marks {
                let newer = entry.as_ref().is_none_or(|e| e.version > mark);
                prop_assert_eq!(store.written_since(&[slot], mark), newer);
            }
            prop_assert_eq!(store.get_at(slot), store.get(&key));
        }
        // Interned-but-unwritten keys are absent everywhere.
        prop_assert_eq!(store.snapshot().len(), store.len());
        prop_assert_eq!(dump.len(), store.len());
    }

    #[test]
    fn snapshot_matches_gets(keys in proptest::collection::vec((any::<u8>(), any::<i64>()), 0..40)) {
        let store = ProcessStore::new();
        for (k, v) in &keys {
            store.set(&format!("k{}", k % 8), Value::Int(*v));
        }
        for (key, value) in store.snapshot() {
            prop_assert_eq!(store.get(&key), Some(value));
        }
        prop_assert_eq!(store.snapshot().len(), store.len());
    }
}
