//! Ablations of the design choices DESIGN.md calls out: shortcut
//! strategy, division algorithm, and Algorithm 1 variant.

use rmo_core::{Aggregate, DivisionStrategy, EngineConfig, PaEngine, PaInstance, ShortcutStrategy};
use rmo_graph::{gen, Partition};

use crate::util::print_table;

pub fn run(quick: bool) {
    let side = if quick { 10 } else { 16 };
    let g = gen::grid(side, side * 4);
    let parts = Partition::new(&g, gen::grid_row_partition(side, side * 4)).unwrap();
    let values: Vec<u64> = (0..g.n() as u64).collect();
    let inst = PaInstance::from_partition(&g, parts, values, Aggregate::Min).unwrap();

    let configs = [
        ("trivial shortcut / det", EngineConfig::new().trivial()),
        ("alg8 shortcut / det (default)", EngineConfig::new()),
        (
            "alg4 shortcut / det wave",
            EngineConfig::new()
                .shortcut(ShortcutStrategy::Randomized)
                .division(DivisionStrategy::Randomized)
                .seed(2),
        ),
        (
            "alg4 shortcut / rand wave",
            EngineConfig::new().randomized(3),
        ),
        (
            "alg8 shortcut / rand wave",
            EngineConfig::new()
                .randomized(4)
                .shortcut(ShortcutStrategy::Deterministic)
                .division(DivisionStrategy::Deterministic),
        ),
    ];
    let mut rows = Vec::new();
    for (name, cfg) in configs {
        let res = PaEngine::new(&g, cfg)
            .solve(
                inst.partition().assignment(),
                inst.values(),
                inst.aggregate(),
            )
            .expect("PA solves");
        for p in inst.partition().part_ids() {
            assert_eq!(res.aggregates[p], inst.reference_aggregate(p), "{name}");
        }
        rows.push(vec![
            name.to_string(),
            res.cost.rounds.to_string(),
            res.cost.messages.to_string(),
            res.broadcast_cost.rounds.to_string(),
            res.iterations_per_part.iter().max().unwrap().to_string(),
            res.cost.capacity_multiplier.to_string(),
        ]);
    }
    print_table(
        &format!(
            "Ablation — PA strategies on a {side}x{} grid (rows as parts)",
            side * 4
        ),
        &[
            "configuration",
            "rounds",
            "messages",
            "wave rounds",
            "max b iters",
            "cap",
        ],
        &rows,
    );
    println!(
        "\nShape check: constructed shortcuts beat the trivial fallback on \
         rounds once sqrt(n) ≫ D; the randomized wave trades capacity for \
         rounds exactly as Section 4.2 describes."
    );
}
