//! Corollary A.2 — approximate minimum-weight connected dominating sets.

use rmo_apps::cds::{approx_mwcds, is_connected_dominating_set};
use rmo_core::{EngineConfig, PaEngine};
use rmo_graph::gen;

use crate::util::print_table;

pub fn run() {
    let mut rows = Vec::new();
    let cases: Vec<(&str, rmo_graph::Graph)> = vec![
        ("star", gen::star(30)),
        ("path", gen::path(40)),
        ("grid", gen::grid(6, 8)),
        ("random", gen::gnp_connected(60, 0.08, 4)),
        ("lollipop", gen::lollipop(10, 15)),
    ];
    for (family, g) in &cases {
        let weights: Vec<u64> = (0..g.n() as u64).map(|v| 1 + (v * 13) % 7).collect();
        let res =
            approx_mwcds(&mut PaEngine::new(g, EngineConfig::new()), &weights).expect("CDS solves");
        assert!(
            is_connected_dominating_set(g, &res.set),
            "{family}: must be a CDS"
        );
        rows.push(vec![
            family.to_string(),
            g.n().to_string(),
            res.set.len().to_string(),
            res.weight.to_string(),
            res.cost.rounds.to_string(),
            res.cost.messages.to_string(),
        ]);
    }
    print_table(
        "Corollary A.2 — approximate MWCDS (validity checked on every row)",
        &["family", "n", "|CDS|", "weight", "rounds", "messages"],
        &rows,
    );
}
