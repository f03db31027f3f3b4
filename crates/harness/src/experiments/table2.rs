//! Table 2 — measured PA round complexity per family, deterministic and
//! randomized, against `Õ(D + √n)` / `Õ(D·param)` scaling.

use rmo_core::{Aggregate, EngineConfig, PaEngine};
use rmo_graph::two_sweep_diameter_lower_bound;

use super::families;
use crate::util::{print_table, ratio};

pub fn run(quick: bool) {
    let scales: Vec<usize> = if quick {
        vec![8, 12]
    } else {
        vec![8, 12, 16, 20]
    };
    let mut rows = Vec::new();
    for scale in scales {
        for w in families(scale) {
            let n = w.graph.n();
            let d = two_sweep_diameter_lower_bound(&w.graph, 0).max(1);
            let values: Vec<u64> = (0..n as u64).map(|v| v.wrapping_mul(2654435761)).collect();
            let assignment = w.partition.assignment();
            let det = PaEngine::new(&w.graph, EngineConfig::new())
                .solve(assignment, &values, Aggregate::Min)
                .expect("det PA solves");
            let rand = PaEngine::new(&w.graph, EngineConfig::new().randomized(5))
                .solve(assignment, &values, Aggregate::Min)
                .expect("rand PA solves");
            let budget = (d as f64) + (n as f64).sqrt();
            rows.push(vec![
                w.family.to_string(),
                n.to_string(),
                d.to_string(),
                det.cost.rounds.to_string(),
                rand.cost.rounds.to_string(),
                det.cost.messages.to_string(),
                ratio(det.cost.rounds as f64, budget),
                ratio(det.cost.messages as f64, w.graph.m() as f64),
            ]);
        }
    }
    print_table(
        "Table 2 — PA cost per family (rounds vs D+sqrt(n), messages vs m)",
        &[
            "family",
            "n",
            "D",
            "det rounds",
            "rand rounds",
            "det msgs",
            "rounds/(D+sqrt n)",
            "msgs/m",
        ],
        &rows,
    );
    println!(
        "\nShape check: rounds/(D+sqrt n) and msgs/m should stay bounded by \
         polylog factors as n grows (Theorem 1.2)."
    );
}
