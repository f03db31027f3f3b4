//! Domain scenario: build a minimum spanning tree of a weighted mesh
//! network, the way the paper's Corollary 1.3 does — Borůvka phases, each
//! phase one Part-Wise Aggregation — and compare with the prior-work
//! baseline and the centralized Kruskal oracle.
//!
//! ```text
//! cargo run --example spanning_tree_builder
//! ```
//!
//! The motivating workload: a backbone operator wants the cheapest
//! loop-free overlay of a 2D mesh with per-link costs; each router only
//! knows its incident links (KT0) and the network must both converge fast
//! (rounds) and not melt the control plane (messages).

use rmo::apps::mst::{naive_mst, pa_mst};
use rmo::core::{EngineConfig, PaEngine};
use rmo::graph::{gen, reference};

fn main() {
    // A 12x12 mesh with distinct pseudorandom link costs.
    let g = gen::grid_weighted(12, 12, 2024);
    println!("mesh: n = {}, m = {}", g.n(), g.m());

    let smart = pa_mst(&mut PaEngine::new(&g, EngineConfig::new())).expect("PA MST solves");
    let naive = naive_mst(&g, &EngineConfig::new()).expect("naive MST solves");
    let oracle = reference::kruskal(&g);

    assert_eq!(smart.total_weight, oracle.total_weight);
    assert_eq!(naive.total_weight, oracle.total_weight);
    assert_eq!(smart.edges, oracle.edges, "distinct weights: unique MST");

    println!("\nKruskal oracle weight : {}", oracle.total_weight);
    println!(
        "PA Borůvka (paper)    : weight {}, {} phases, {} rounds, {} messages",
        smart.total_weight, smart.phases, smart.cost.rounds, smart.cost.messages
    );
    println!(
        "naive block baseline  : weight {}, {} phases, {} rounds, {} messages",
        naive.total_weight, naive.phases, naive.cost.rounds, naive.cost.messages
    );
    println!(
        "\nmessage ratio naive/PA = {:.2} (grows with the mesh diameter — the\n\
         Figure 2 effect; see `rmo-harness mst` for the full sweep)",
        naive.cost.messages as f64 / smart.cost.messages as f64
    );
}
