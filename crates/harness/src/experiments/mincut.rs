//! Corollary 1.4 — approximate min-cut quality and cost vs the exact
//! Stoer–Wagner reference.

use rmo_apps::mincut::{approx_min_cut, MinCutConfig};
use rmo_core::{EngineConfig, PaEngine};
use rmo_graph::{gen, reference};

use crate::util::{print_table, ratio};

pub fn run(quick: bool) {
    let mut rows = Vec::new();
    let trials = if quick { Some(6) } else { None };
    let cases: Vec<(&str, rmo_graph::Graph)> = vec![
        ("dumbbell(planted=1)", gen::dumbbell(8, 1)),
        ("dumbbell(planted=5)", gen::dumbbell(8, 5)),
        ("cycle", gen::cycle(24)),
        ("grid", gen::grid(5, 8)),
        ("random-weighted", gen::random_connected_weighted(28, 70, 4)),
        ("lollipop", gen::lollipop(8, 12)),
    ];
    for (family, g) in cases {
        let exact = reference::stoer_wagner(&g);
        let cfg = MinCutConfig {
            trials,
            ..MinCutConfig::default()
        };
        let approx = approx_min_cut(&mut PaEngine::new(&g, EngineConfig::new()), &cfg)
            .expect("min cut solves");
        rows.push(vec![
            family.to_string(),
            g.n().to_string(),
            exact.weight.to_string(),
            approx.weight.to_string(),
            ratio(approx.weight as f64, exact.weight as f64),
            approx.trials.to_string(),
            approx.cost.rounds.to_string(),
            approx.cost.messages.to_string(),
        ]);
    }
    print_table(
        "Corollary 1.4 — (1+eps)-approximate min cut vs Stoer-Wagner",
        &[
            "family",
            "n",
            "exact",
            "approx",
            "approx/exact",
            "trials",
            "rounds",
            "messages",
        ],
        &rows,
    );
    println!(
        "\nShape check: approx/exact stays at 1.00 on instances whose min cut \
         1-respects sampled trees (dumbbells, cycles) and within 1+eps slack \
         elsewhere; cost is trials x O~(MST)."
    );
}
