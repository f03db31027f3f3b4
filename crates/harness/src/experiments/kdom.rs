//! Corollary A.3 — k-dominating sets: size vs `6n/k`, distance vs `k`.

use rmo_apps::kdom::k_dominating_set;
use rmo_core::{EngineConfig, PaEngine};
use rmo_graph::gen;

use crate::util::print_table;

pub fn run() {
    let mut rows = Vec::new();
    let cases: Vec<(&str, rmo_graph::Graph)> = vec![
        ("path", gen::path(240)),
        ("grid", gen::grid(12, 20)),
        ("random", gen::gnp_connected(200, 0.02, 5)),
    ];
    for (family, g) in &cases {
        for k in [6usize, 12, 24, 48] {
            let res = k_dominating_set(&mut PaEngine::new(g, EngineConfig::new()), k);
            assert!(res.max_distance <= k, "distance guarantee");
            rows.push(vec![
                family.to_string(),
                g.n().to_string(),
                k.to_string(),
                res.set.len().to_string(),
                (6 * g.n() / k).to_string(),
                res.max_distance.to_string(),
                res.cost.rounds.to_string(),
                res.cost.messages.to_string(),
            ]);
        }
    }
    print_table(
        "Corollary A.3 — k-dominating sets (size <= 6n/k, distance <= k)",
        &[
            "family", "n", "k", "|S|", "6n/k", "max dist", "rounds", "messages",
        ],
        &rows,
    );
}
