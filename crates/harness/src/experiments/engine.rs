//! Engine-session economics: what the artifact cache actually saves.
//!
//! One `PaEngine` per workload serves a stream of PA calls on the same
//! partition plus a verification-style second partition. The table
//! reports the first call's full cost (election + BFS + stages 2–4 +
//! waves), the warm per-call cost (waves only), the resulting speedup,
//! and the engine's hit/miss counters — the incremental-charging story
//! the `PaEngine` API exists for.

use rmo_core::{Aggregate, EngineConfig, PaEngine};

use crate::util::{print_table, ratio};

pub fn run(quick: bool) {
    let scale = if quick { 8 } else { 14 };
    let mut rows = Vec::new();
    let mut fleet = rmo_core::EngineStats::default();
    for workload in super::families(scale) {
        let g = &workload.graph;
        let parts = &workload.partition;
        let values: Vec<u64> = (0..g.n() as u64).map(|v| (v * 31) % 977).collect();

        let mut engine = PaEngine::new(g, EngineConfig::new());
        let cold = engine
            .solve(parts.assignment(), &values, Aggregate::Min)
            .expect("PA solves");
        let warm = engine
            .solve(parts.assignment(), &values, Aggregate::Min)
            .expect("PA solves");
        assert_eq!(cold.aggregates, warm.aggregates);
        // A batched stream of 16 aggregations rides the cached pipeline.
        let sets: Vec<Vec<u64>> = (0..16u64)
            .map(|i| values.iter().map(|v| v.wrapping_add(i * 7)).collect())
            .collect();
        let batch = engine
            .solve_batch(parts.assignment(), &sets, Aggregate::Min)
            .expect("batch solves");
        let stats = engine.stats();
        fleet.merge(&stats);
        rows.push(vec![
            workload.family.to_string(),
            g.n().to_string(),
            parts.num_parts().to_string(),
            cold.cost.rounds.to_string(),
            warm.cost.rounds.to_string(),
            ratio(cold.cost.rounds as f64, warm.cost.rounds.max(1) as f64),
            batch.cost.rounds.to_string(),
            format!("{:.0}%", 100.0 * stats.hit_rate()),
            stats.evictions.to_string(),
            stats.base_cost.rounds.to_string(),
        ]);
    }
    print_table(
        "Engine sessions — cold vs warm PA calls on one graph (cache reuse)",
        &[
            "family",
            "n",
            "parts",
            "cold rounds",
            "warm rounds",
            "cold/warm",
            "batch(16) rounds",
            "hit rate",
            "evict",
            "elect+BFS rounds",
        ],
        &rows,
    );
    println!("\nAll sessions merged: {fleet}");
    println!(
        "\nShape check: warm calls drop election, BFS and the stage 2-4 \
         setup, so cold/warm grows with the setup share; the 16-wide batch \
         costs ~one warm call plus O(k) pipelining rounds, not 16 of them."
    );
}
