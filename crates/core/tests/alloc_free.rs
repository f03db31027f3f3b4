//! Regression guard: a warm cache-hit [`PaEngine::solve_into`] performs
//! **zero** heap allocation. Phase A ran once, when the partition was
//! cached; a warm solve only replays its delivery record, folding the
//! values in the engine's [`SolveScratch`] accumulator and writing the
//! caller-owned `PaResult` buffer. Once both have grown to the graph, a
//! solve must never touch the allocator again.
//!
//! Pinned with a counting global allocator. This file holds a single
//! `#[test]` (integration tests each get their own binary), so no
//! concurrent test can pollute the counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use rmo_core::{Aggregate, EngineConfig, PaEngine, PaResult};
use rmo_graph::gen;

/// System allocator wrapper counting every allocation/reallocation.
struct CountingAlloc;

static ALLOCS: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocs_during_solves(
    engine: &mut PaEngine<'_>,
    assignment: &[usize],
    values: &[u64],
    out: &mut PaResult,
    solves: usize,
) -> usize {
    let before = ALLOCS.load(Ordering::Relaxed);
    for _ in 0..solves {
        engine
            .solve_into(assignment, values, Aggregate::Min, out)
            .expect("warm solve succeeds");
    }
    ALLOCS.load(Ordering::Relaxed) - before
}

/// Minimum allocation count over several measurement windows. The solve
/// is deterministic — if *it* allocated on warm calls, every window
/// would show it — so the minimum filters out the libtest harness
/// thread's own incidental allocations landing in a window.
fn min_allocs_over_windows(
    engine: &mut PaEngine<'_>,
    assignment: &[usize],
    values: &[u64],
    out: &mut PaResult,
    windows: usize,
    solves: usize,
) -> usize {
    (0..windows)
        .map(|_| allocs_during_solves(engine, assignment, values, out, solves))
        .min()
        .expect("at least one window")
}

#[test]
fn warm_cache_hit_solves_do_not_allocate() {
    let g = gen::grid(8, 12);
    let rows = gen::grid_row_partition(8, 12);
    let values: Vec<u64> = (0..g.n() as u64).map(|v| (v * 31) % 97).collect();

    let mut engine = PaEngine::new(&g, EngineConfig::new());
    let mut out = PaResult::default();
    // Warm-up: the first solve builds stage 1 + artifacts and grows every
    // recycled buffer; a second pass catches any lazily-sized arena.
    let warmup = allocs_during_solves(&mut engine, &rows, &values, &mut out, 2);
    assert!(warmup > 0, "cold solves build the pipeline");

    let reference = out.clone();
    let warm = min_allocs_over_windows(&mut engine, &rows, &values, &mut out, 4, 25);
    assert_eq!(
        warm, 0,
        "warm cache-hit solve_into must be allocation-free \
         (warm-up allocated {warmup}, warm solves allocated {warm})"
    );
    // The recycled buffers still produce the exact same answer.
    assert_eq!(out, reference, "warm solves are bit-identical");
    assert!(
        engine.stats().hits > 0,
        "measurement windows were cache hits"
    );
}
