//! "Beyond worst-case" (Section 1.3) — PA on families outside Tables 1–2:
//! tori, hypercubes and random regular (expander-like) graphs. The paper
//! conjectures that *"non-trivial shortcuts likely exist for graph
//! families beyond those mentioned"*; here we measure what the generic
//! constructions already achieve on them.

use rmo_core::{Aggregate, EngineConfig, PaEngine};
use rmo_graph::{gen, num::isqrt, two_sweep_diameter_lower_bound};

use crate::util::{print_table, ratio};

pub fn run() {
    let mut rows = Vec::new();
    let cases: Vec<(&str, rmo_graph::Graph)> = vec![
        ("torus 12x12", gen::torus(12, 12)),
        ("hypercube d=8", gen::hypercube(8)),
        ("random 4-regular", gen::random_regular(256, 4, 7)),
        ("caterpillar 64x3", gen::caterpillar(64, 3)),
    ];
    for (family, g) in cases {
        let n = g.n();
        let d = two_sweep_diameter_lower_bound(&g, 0).max(1);
        let parts = gen::random_connected_partition(&g, isqrt(n), 3);
        let values: Vec<u64> = (0..n as u64).collect();
        let det = PaEngine::new(&g, EngineConfig::new())
            .solve(parts.assignment(), &values, Aggregate::Min)
            .expect("solves");
        rows.push(vec![
            family.to_string(),
            n.to_string(),
            g.m().to_string(),
            d.to_string(),
            det.cost.rounds.to_string(),
            det.cost.messages.to_string(),
            ratio(det.cost.rounds as f64, d as f64 + (n as f64).sqrt()),
            ratio(det.cost.messages as f64, g.m() as f64),
        ]);
    }
    print_table(
        "Beyond worst-case — PA on families outside Tables 1-2",
        &[
            "family",
            "n",
            "m",
            "D",
            "rounds",
            "messages",
            "rounds/(D+sqrt n)",
            "msgs/m",
        ],
        &rows,
    );
    println!(
        "\nShape check: even without family-specific shortcut theorems, the \
         generic pipeline stays within the worst-case O~(D + sqrt n) / O~(m) \
         envelope — the paper's 'future applications' headroom."
    );
}
