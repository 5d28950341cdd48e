//! Property tests on the process store: version monotonicity and
//! change-feed completeness under arbitrary sequences of string-keyed and
//! slot operations.

use proptest::prelude::*;
use sgcr_kvstore::{ProcessStore, Value};

#[derive(Debug, Clone)]
enum Op {
    Set(u8, i64),
    /// Write through the key's slot.
    SetAt(u8, i64),
    /// Resolve the key's slot without writing.
    Intern(u8),
    Remove(u8),
    Mark,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (any::<u8>(), any::<i64>()).prop_map(|(k, v)| Op::Set(k % 16, v)),
        (any::<u8>(), any::<i64>()).prop_map(|(k, v)| Op::SetAt(k % 16, v)),
        any::<u8>().prop_map(|k| Op::Intern(k % 16)),
        any::<u8>().prop_map(|k| Op::Remove(k % 16)),
        Just(Op::Mark),
    ]
}

proptest! {
    #[test]
    fn change_feed_is_complete_and_ordered(ops in proptest::collection::vec(op_strategy(), 0..100)) {
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
                Op::Remove(k) => {
                    store.remove(&format!("k{k}"));
                }
                Op::Mark => {
                    marks.push(store.version());
                }
            }
        }
        // Versions in the change feed are strictly increasing and all
        // greater than the cursor.
        for &mark in &marks {
            let changes = store.changes_since(mark);
            let mut last = mark;
            for change in &changes {
                prop_assert!(change.version > last);
                last = change.version;
                // The reported value matches the live value (unless since
                // removed).
                if let Some(live) = store.get(&change.key) {
                    prop_assert_eq!(&live, &change.value);
                }
            }
        }
        // A cursor at the current version sees nothing.
        prop_assert!(store.changes_since(store.version()).is_empty());
        // Interned-but-unwritten and removed keys are absent everywhere; a
        // slot reads what its key reads.
        let snapshot = store.snapshot();
        prop_assert_eq!(snapshot.len(), store.len());
        prop_assert_eq!(store.keys(), snapshot.iter().map(|(k, _)| k.clone()).collect::<Vec<_>>());
        for k in 0..16u8 {
            let key = format!("k{k}");
            prop_assert_eq!(store.get_at(store.slot(&key)), store.get(&key));
        }
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
