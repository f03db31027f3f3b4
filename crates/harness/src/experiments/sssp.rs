//! Corollary 1.5 — approximate SSSP: measured stretch vs Dijkstra, and
//! the β tradeoff between cluster count and quality.

use rmo_apps::sssp::{approx_sssp, SsspConfig};
use rmo_core::{EngineConfig, PaEngine};
use rmo_graph::{gen, reference};

use crate::util::print_table;

fn max_stretch(truth: &[u64], est: &[u64]) -> f64 {
    truth
        .iter()
        .zip(est)
        .filter(|(&t, _)| t > 0)
        .map(|(&t, &e)| e as f64 / t as f64)
        .fold(1.0, f64::max)
}

pub fn run(quick: bool) {
    let mut rows = Vec::new();
    let betas = if quick {
        vec![0.3, 0.7]
    } else {
        vec![0.1, 0.3, 0.5, 0.7, 0.9]
    };
    let cases: Vec<(&str, rmo_graph::Graph)> = vec![
        ("grid", gen::grid(10, 10)),
        (
            "weighted-random",
            gen::random_connected_weighted(120, 360, 6),
        ),
        ("path", gen::path(100)),
    ];
    for (family, g) in &cases {
        let truth = reference::dijkstra(g, 0);
        for &beta in &betas {
            let cfg = SsspConfig {
                beta,
                ..SsspConfig::default()
            };
            let res = approx_sssp(&mut PaEngine::new(g, EngineConfig::new()), 0, &cfg)
                .expect("SSSP solves");
            // Guarantee: estimates are upper bounds.
            for (est, lower) in res.estimates.iter().zip(&truth) {
                assert!(est >= lower, "estimates must be real paths");
            }
            rows.push(vec![
                family.to_string(),
                format!("{beta:.1}"),
                res.clusters.to_string(),
                res.max_radius.to_string(),
                format!("{:.2}", max_stretch(&truth, &res.estimates)),
                res.cost.rounds.to_string(),
                res.cost.messages.to_string(),
            ]);
        }
    }
    print_table(
        "Corollary 1.5 — approximate SSSP (stretch vs Dijkstra, per beta)",
        &[
            "family",
            "beta",
            "clusters",
            "max radius",
            "max stretch",
            "rounds",
            "messages",
        ],
        &rows,
    );
    println!(
        "\nShape check: smaller beta -> fewer, larger clusters -> fewer \
         relaxation rounds but larger stretch; estimates never undercut \
         Dijkstra (they are lengths of real paths)."
    );
}
