//! Quickstart: solve one Part-Wise Aggregation instance end to end.
//!
//! ```text
//! cargo run --example quickstart
//! ```
//!
//! Builds a 16×16 grid whose rows are the parts, gives every node a
//! value, and runs the full Theorem 1.2 pipeline (leader election, BFS
//! tree, sub-part division, shortcut construction, Algorithm 1) in both
//! the deterministic and the randomized variant, printing the measured
//! round/message costs.

use rmo::core::{Aggregate, EngineConfig, PaEngine, PaInstance};
use rmo::graph::{gen, Partition};

fn main() {
    let g = gen::grid(16, 16);
    let parts =
        Partition::new(&g, gen::grid_row_partition(16, 16)).expect("grid rows are connected parts");
    let values: Vec<u64> = (0..g.n() as u64).map(|v| (v * 37) % 1000).collect();
    let inst = PaInstance::from_partition(&g, parts, values, Aggregate::Min)
        .expect("grid rows form a valid PA instance");

    println!("PA on a 16x16 grid, rows as parts, f = min");
    println!("n = {}, m = {}\n", g.n(), g.m());

    for (name, config) in [
        (
            "deterministic (Algorithm 8 + Algorithm 6 + det Algorithm 1)",
            EngineConfig::new(),
        ),
        (
            "randomized   (Algorithm 4 + Algorithm 3 + rand Algorithm 1)",
            EngineConfig::new().randomized(42),
        ),
        (
            "trivial      (b = 1, c = sqrt(n) fallback)",
            EngineConfig::new().trivial().seed(7),
        ),
    ] {
        // A fresh engine per configuration: its first solve pays the
        // whole pipeline.
        let result = PaEngine::new(&g, config)
            .solve(
                inst.partition().assignment(),
                inst.values(),
                inst.aggregate(),
            )
            .expect("PA solves");
        // Every node knows its part's aggregate — check against the fold.
        for v in 0..g.n() {
            assert_eq!(result.value_at(v), inst.reference_aggregate_of(v));
        }
        println!(
            "{name}\n  -> {} rounds, {} messages (per-edge capacity x{})",
            result.cost.rounds, result.cost.messages, result.cost.capacity_multiplier
        );
    }
    println!("\nAll three configurations delivered the correct aggregate to all 256 nodes.");
}
