//! Corollary 1.3 — MST: PA-based Borůvka vs the prior-work baseline vs
//! the Kruskal reference, across families and sizes.

use rmo_apps::mst::{naive_mst, pa_mst};
use rmo_core::{EngineConfig, PaEngine};
use rmo_graph::{gen, num::isqrt, reference, two_sweep_diameter_lower_bound};

use crate::util::{print_table, ratio};

pub fn run(quick: bool) {
    let sizes: Vec<usize> = if quick {
        vec![64, 144]
    } else {
        vec![64, 144, 256, 400]
    };
    let mut rows = Vec::new();
    for n in sizes {
        let side = isqrt(n);
        let cases = [
            ("grid", gen::grid_weighted(side, side, 3)),
            ("random", gen::random_connected_weighted(n, 3 * n, 3)),
            (
                "apex-grid",
                gen::distinct_weights(&gen::grid_with_apex(8, n / 8), 5),
            ),
        ];
        for (family, g) in cases {
            let d = two_sweep_diameter_lower_bound(&g, 0).max(1);
            let smart = pa_mst(&mut PaEngine::new(&g, EngineConfig::new())).expect("MST solves");
            let naive = naive_mst(&g, &EngineConfig::new()).expect("naive MST solves");
            let kref = reference::kruskal(&g);
            assert_eq!(
                smart.total_weight, kref.total_weight,
                "correctness vs Kruskal"
            );
            assert_eq!(
                naive.total_weight, kref.total_weight,
                "correctness vs Kruskal"
            );
            rows.push(vec![
                family.to_string(),
                g.n().to_string(),
                g.m().to_string(),
                d.to_string(),
                smart.phases.to_string(),
                smart.cost.rounds.to_string(),
                smart.cost.messages.to_string(),
                naive.cost.messages.to_string(),
                ratio(naive.cost.messages as f64, smart.cost.messages as f64),
            ]);
        }
    }
    print_table(
        "Corollary 1.3 — MST via PA (output always equals Kruskal)",
        &[
            "family",
            "n",
            "m",
            "D",
            "phases",
            "PA rounds",
            "PA msgs",
            "naive msgs",
            "naive/PA msgs",
        ],
        &rows,
    );
    let g = gen::random_connected_weighted(100, 300, 9);
    let r = pa_mst(&mut PaEngine::new(&g, EngineConfig::new().randomized(7)))
        .expect("randomized MST solves");
    println!(
        "\nRandomized pipeline spot check: n=100 m=300 -> weight {} (= Kruskal {}), {} rounds",
        r.total_weight,
        reference::kruskal(&g).total_weight,
        r.cost.rounds
    );
    println!(
        "Shape check: the naive/PA message ratio grows with D on the apex \
         grids (the Figure 2 effect lifted to MST)."
    );
}
