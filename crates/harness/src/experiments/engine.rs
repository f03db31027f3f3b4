//! Engine-session economics: what the artifact cache actually saves.
//!
//! One `PaEngine` per workload serves a cold and a warm PA call on the
//! same partition. The table reports the first call's full cost
//! (election + BFS + stages 2–4 + waves), the warm per-call cost (waves
//! only), the resulting speedup, and the engine's hit/miss counters —
//! the incremental-charging story the `PaEngine` API exists for.

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
        let stats = engine.stats();
        fleet.merge(&stats);
        rows.push(vec![
            workload.family.to_string(),
            g.n().to_string(),
            parts.num_parts().to_string(),
            cold.cost.rounds.to_string(),
            warm.cost.rounds.to_string(),
            ratio(cold.cost.rounds as f64, warm.cost.rounds.max(1) as f64),
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
            "hit rate",
            "evict",
            "elect+BFS rounds",
        ],
        &rows,
    );
    println!("\nAll sessions merged: {fleet}");
    println!(
        "\nShape check: warm calls drop election, BFS and the stage 2-4 \
         setup, so cold/warm grows with the setup share."
    );
}
