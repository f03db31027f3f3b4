//! Engine session: one `PaEngine` serving a whole workload on one graph.
//!
//! ```text
//! cargo run --example engine_session
//! ```
//!
//! Builds a weighted 12×12 grid and serves three different jobs from a
//! single session — an MST build (Borůvka over PA), its verification
//! (component labeling + spanning-tree checks), and 16 row-wise
//! aggregations into one recycled result buffer — then prints the
//! engine's cache statistics. Leader election and the BFS tree run
//! exactly once, on the first call; everything after that is charged
//! incrementally.

use rmo::apps::mst::pa_mst;
use rmo::apps::verify::verify_mst;
use rmo::congest::CostReport;
use rmo::core::{Aggregate, EngineConfig, PaEngine, PaResult};
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

    // Job 3: 16 row-wise aggregations through `solve_into`, recycling one
    // result buffer. The engine takes the part id per node and validates
    // the vector the first time it sees it: the first solve misses and
    // builds stages 2-4, the other 15 hit and pay the waves only.
    let rows = gen::grid_row_partition(12, 12);
    let mut values = vec![0u64; g.n()];
    let mut out = PaResult::default();
    let mut warm = CostReport::zero();
    for i in 0..16u64 {
        for (v, x) in (0u64..).zip(values.iter_mut()) {
            *x = (v * 13 + i) % 1009;
        }
        engine
            .solve_into(&rows, &values, Aggregate::Min, &mut out)
            .expect("row aggregation solves");
        if i == 0 {
            println!(
                "rows, cold:   {} row parts, {} (cache miss)",
                out.aggregates.len(),
                out.cost
            );
        } else {
            warm += out.cost;
        }
    }
    println!("rows, warm:   15 more value sets, {warm} (cache hits, waves only)");

    let stats = engine.stats();
    println!(
        "\nEngineStats: {} solves, cache {} hits / {} misses / {} evictions, \
         {} partitions cached",
        stats.solves, stats.hits, stats.misses, stats.evictions, stats.cached_partitions
    );
    println!(
        "stage-1 cost (election + BFS, paid once): {}",
        stats.base_cost
    );
}
