//! Engine session: one `PaEngine` serving a whole workload on one graph.
//!
//! ```text
//! cargo run --example engine_session
//! ```
//!
//! Builds a weighted 12×12 grid and serves three different jobs from a
//! single session — an MST build (Borůvka over PA), its verification
//! (component labeling + spanning-tree checks), and a batch of 16
//! row-wise aggregations — then prints the engine's cache statistics.
//! Leader election and the BFS tree run exactly once, on the first call;
//! everything after that is charged incrementally.

use rmo::apps::mst::pa_mst;
use rmo::apps::verify::verify_mst;
use rmo::core::{Aggregate, EngineConfig, PaEngine};
use rmo::graph::gen;

fn main() {
    let g = gen::grid_weighted(12, 12, 42);
    let mut engine = PaEngine::new(&g, EngineConfig::new());
    println!(
        "PaEngine session on a 12x12 weighted grid (n = {}, m = {})\n",
        g.n(),
        g.m()
    );

    // Job 1: MST via Borůvka over PA — O(log n) phases on the shared tree.
    let mst = pa_mst(&mut engine).expect("MST solves");
    println!(
        "MST:          {} edges, total weight {}, {} Boruvka phases, {}",
        mst.edges.len(),
        mst.total_weight,
        mst.phases,
        mst.cost
    );

    // Job 2: verify the tree we just built, on the same session.
    let verdict = verify_mst(&mut engine, &mst.edges).expect("verification runs");
    assert!(verdict.holds, "our own MST must verify");
    println!("verify(MST):  holds = {}, {}", verdict.holds, verdict.cost);

    // Job 3: a batch of 16 row-wise aggregations, pipelined in one wave.
    // The engine takes the part id per node and validates the vector the
    // first time it sees it.
    let rows = gen::grid_row_partition(12, 12);
    let sets: Vec<Vec<u64>> = (0..16u64)
        .map(|i| (0..g.n() as u64).map(|v| (v * 13 + i) % 1009).collect())
        .collect();
    let batch = engine
        .solve_batch(&rows, &sets, Aggregate::Min)
        .expect("batch solves");
    println!(
        "batch(16):    {} value sets over {} row parts, {}",
        batch.aggregates.len(),
        batch.aggregates[0].len(),
        batch.cost
    );

    // Warm repeat: the same batch again is served from the cache.
    let again = engine
        .solve_batch(&rows, &sets, Aggregate::Min)
        .expect("batch solves");
    println!("batch again:  {} (cache hit, waves only)", again.cost);

    let stats = engine.stats();
    println!(
        "\nEngineStats: {} solves ({} batched), cache {} hits / {} misses / {} evictions, \
         {} partitions cached",
        stats.solves,
        stats.batches,
        stats.hits,
        stats.misses,
        stats.evictions,
        stats.cached_partitions
    );
    println!(
        "stage-1 cost (election + BFS, paid once): {}",
        stats.base_cost
    );
}
