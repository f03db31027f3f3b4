//! Regression guard: a warm PA query streamed through
//! `StreamGateway::run_sequential` makes exactly two allocations of at
//! least n words — its answer's `node_values`, and the copy that the
//! sink's `StreamEvent::Response` carries. The gateway borrows each
//! query from the trace down to `run_query` (no copy of its assignment
//! or values), and each answer moves into its `StreamOutcome`.
//!
//! Pinned with a counting global allocator that counts only blocks of
//! at least n words. This file holds a single `#[test]` (integration
//! tests each get their own binary), so no concurrent test can pollute
//! the counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use rmo_apps::dispatch::{Query, QueryResponse};
use rmo_apps::service::{GraphId, PaCluster};
use rmo_apps::stream::{Arrival, StreamConfig, StreamGateway};
use rmo_core::Aggregate;
use rmo_graph::gen;

/// System allocator wrapper counting every allocation/reallocation of
/// at least [`LARGE_BYTES`] bytes.
struct CountingAlloc;

static LARGE: AtomicUsize = AtomicUsize::new(0);
static LARGE_BYTES: AtomicUsize = AtomicUsize::new(usize::MAX);

fn note(size: usize) {
    if size >= LARGE_BYTES.load(Ordering::Relaxed) {
        LARGE.fetch_add(1, Ordering::Relaxed);
    }
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        unsafe { System.alloc_zeroed(layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Arrivals per trace: one size-closed batch at the default tuning.
const QUERIES: usize = 16;

#[test]
fn streamed_warm_pa_queries_copy_only_their_answer_for_the_sink() {
    let g = gen::grid(48, 48);
    let n = g.n();
    let assignment = gen::random_connected_partition(&g, 24, 5)
        .assignment()
        .to_vec();
    let aggs = [Aggregate::Min, Aggregate::Max, Aggregate::Sum];
    let trace: Vec<Arrival> = (0..QUERIES as u64)
        .zip(aggs.iter().cycle())
        .map(|(i, &agg)| Arrival {
            tick: i,
            graph: GraphId(1),
            query: Query::Pa {
                assignment: assignment.clone(),
                values: (0..n as u64).map(|v| (v * 31 + i) % 97).collect(),
                agg,
            },
        })
        .collect();
    let mut cluster = PaCluster::new(2);
    cluster.add_graph(GraphId(1), g);
    let mut gateway = StreamGateway::new(cluster, StreamConfig::new());
    // Warm-up: the first run builds stage 1 and the artifacts, the
    // second grows every recycled arena to the workload's size.
    for _ in 0..2 {
        let report = gateway.run_sequential(&trace);
        assert_eq!(report.stats.batches, 1);
        assert!(report
            .outcomes
            .iter()
            .all(|o| matches!(&o.result, Ok(QueryResponse::Pa(_)))));
    }
    let misses = gateway.cluster().stats().engine.misses;

    // The minimum over several windows: a run is deterministic, so if
    // it allocated more every window would show it, and the minimum
    // filters out the libtest harness thread's own allocations.
    LARGE_BYTES.store(n * std::mem::size_of::<u64>(), Ordering::Relaxed);
    let min = (0..4)
        .map(|_| {
            let before = LARGE.load(Ordering::Relaxed);
            let report = gateway.run_sequential(&trace);
            let large = LARGE.load(Ordering::Relaxed) - before;
            assert_eq!(report.stats.admitted, QUERIES as u64);
            large
        })
        .min()
        .expect("at least one window");
    LARGE_BYTES.store(usize::MAX, Ordering::Relaxed);
    assert_eq!(
        min % QUERIES,
        0,
        "{min} large allocations over {QUERIES} queries"
    );
    assert_eq!(
        min / QUERIES,
        2,
        "a streamed warm PA query allocates n words twice: its node_values \
         and the sink event's copy (n = {n})"
    );
    assert_eq!(
        gateway.cluster().stats().engine.misses,
        misses,
        "measured queries were cache hits"
    );
}
