//! Regression guard: a warm `run_query(Query::Pa)` — an artifact-cache
//! hit — allocates only its answer, the three vectors of the
//! [`PaResult`] it returns (`aggregates`, `node_values`,
//! `iterations_per_part`). The hit reuses the cached partition instead
//! of validating the part vector again, borrows the caller's values,
//! and runs the waves in the engine's recycled arenas.
//!
//! Pinned with a counting global allocator. This file holds a single
//! `#[test]` (integration tests each get their own binary), so no
//! concurrent test can pollute the counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use rmo_apps::dispatch::{run_query, Query, QueryResponse};
use rmo_core::{Aggregate, EngineConfig, PaEngine, PaResult};
use rmo_graph::{gen, Graph};

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

/// Allocations per warm query: the minimum over several windows of
/// `queries` calls each. A query is deterministic — if it allocated
/// more, every window would show it — so the minimum filters out the
/// libtest harness thread's own allocations landing in a window.
fn allocs_per_warm_query(engine: &mut PaEngine<'_>, query: &Query, reference: &PaResult) -> usize {
    const WINDOWS: usize = 4;
    const QUERIES: usize = 5;
    let min = (0..WINDOWS)
        .map(|_| {
            let before = ALLOCS.load(Ordering::Relaxed);
            for _ in 0..QUERIES {
                let response = run_query(engine, query);
                assert!(
                    matches!(&response, QueryResponse::Pa(r) if r == reference),
                    "warm answers are bit-identical"
                );
            }
            ALLOCS.load(Ordering::Relaxed) - before
        })
        .min()
        .expect("at least one window");
    assert_eq!(min % QUERIES, 0, "{min} allocations over {QUERIES} queries");
    min / QUERIES
}

fn check(g: &Graph, assignment: Vec<usize>) {
    let values: Vec<u64> = (0..g.n() as u64).map(|v| (v * 31) % 97).collect();
    let query = Query::Pa {
        assignment,
        values,
        agg: Aggregate::Min,
    };
    let mut engine = PaEngine::new(g, EngineConfig::new());
    // Warm-up: the first query builds stage 1 and the artifacts, the
    // second grows every recycled arena to the workload's size.
    assert!(run_query(&mut engine, &query).is_ok());
    let QueryResponse::Pa(reference) = run_query(&mut engine, &query) else {
        panic!("the warm query solves");
    };
    let hits = engine.stats().hits;
    let per_query = allocs_per_warm_query(&mut engine, &query, &reference);
    assert_eq!(
        per_query,
        3,
        "a warm PA query allocates its PaResult's three vectors and nothing else (n = {})",
        g.n()
    );
    assert!(
        engine.stats().hits > hits,
        "measured queries were cache hits"
    );
    assert_eq!(engine.stats().misses, 1);
}

#[test]
fn warm_pa_queries_allocate_only_their_answer() {
    check(&gen::grid(8, 12), gen::grid_row_partition(8, 12));
    let g = gen::random_connected(3000, 4500, 5);
    let parts = gen::random_connected_partition(&g, 24, 5);
    check(&g, parts.assignment().to_vec());
}
