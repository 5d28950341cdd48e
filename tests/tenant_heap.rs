//! A tenant's memory does not grow with its age: an EPIC range with
//! telemetry off keeps counts, not per-step history, so its live heap after
//! 6,000 steps is what it was after 1,200.
//!
//! The heap is measured by a counting global allocator. Its count is
//! thread-local, so tests running in parallel threads do not mix, and a
//! single-threaded range is measured whole.

#![allow(clippy::unwrap_used, clippy::expect_used)] // test/example code may panic

use sg_cyber_range::core::{CompiledModel, RangeBuilder};
use sg_cyber_range::models::epic_bundle;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    /// Bytes allocated minus bytes freed by this thread.
    static LIVE: Cell<isize> = const { Cell::new(0) };
}

fn count(delta: isize) {
    // `try_with`: the allocator also runs while thread-locals are torn down.
    let _ = LIVE.try_with(|live| live.set(live.get() + delta));
}

// SAFETY: every call forwards to `System` with the caller's arguments; the
// bookkeeping only reads sizes and touches a const-initialized `Cell`, which
// does not allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            count(layout.size() as isize);
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc_zeroed(layout);
        if !ptr.is_null() {
            count(layout.size() as isize);
        }
        ptr
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let new = System.realloc(ptr, layout, new_size);
        if !new.is_null() {
            count(new_size as isize - layout.size() as isize);
        }
        new
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        count(-(layout.size() as isize));
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn live_bytes() -> isize {
    LIVE.with(Cell::get)
}

/// Growth allowed between step 1,200 and step 6,000. A range that kept
/// 24 B of history per step would grow by ~113 KiB over these 4,800 steps
/// (a debug build measured a few hundred bytes without it); the bound
/// leaves room for a container that rounds its capacity up once, not for
/// anything that grows per step.
const GROWTH_BOUND_BYTES: isize = 4 * 1024;

#[test]
fn an_epic_tenant_does_not_grow_with_its_age() {
    let model = CompiledModel::shared(&epic_bundle()).expect("EPIC bundle must compile");
    let mut range = RangeBuilder::from_model(model)
        .build()
        .expect("range instantiates");
    while range.steps_total() < 1_200 {
        range.step();
    }
    let warm = live_bytes();
    while range.steps_total() < 6_000 {
        range.step();
    }
    let growth = live_bytes() - warm;
    assert!(
        growth <= GROWTH_BOUND_BYTES,
        "live heap grew by {growth} B between step 1,200 and step 6,000 \
         (bound {GROWTH_BOUND_BYTES} B)"
    );
    assert_eq!(range.steps_total(), 6_000);
}
