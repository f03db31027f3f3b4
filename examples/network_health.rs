//! Domain scenario: network-health checks on a running topology —
//! approximate min-cut (how fragile is the network?), approximate SSSP
//! (how far is everyone from the control node?), and the verification
//! suite (is the configured overlay actually a spanning tree?).
//!
//! ```text
//! cargo run --example network_health
//! ```

use rmo::apps::mincut::{approx_min_cut, MinCutConfig};
use rmo::apps::sssp::{approx_sssp, SsspConfig};
use rmo::apps::verify::verify_spanning_tree;
use rmo::core::{EngineConfig, PaEngine};
use rmo::graph::{gen, reference};

fn main() {
    // A datacenter-ish topology: two dense pods joined by a thin link.
    let g = gen::dumbbell(12, 2);
    println!(
        "topology: two 12-node pods, bridge weight 2 (n = {}, m = {})",
        g.n(),
        g.m()
    );

    // 1. Fragility: approximate min cut vs the exact oracle.
    // Each check runs on its own fresh engine.
    let cut = approx_min_cut(
        &mut PaEngine::new(&g, EngineConfig::new()),
        &MinCutConfig::default(),
    )
    .expect("min cut solves");
    let exact = reference::stoer_wagner(&g);
    println!(
        "\nmin cut: approx {} (exact {}) in {} rounds / {} messages",
        cut.weight, exact.weight, cut.cost.rounds, cut.cost.messages
    );
    assert!(cut.weight >= exact.weight);

    // 2. Reach: approximate distances from the control node (node 0).
    let sssp = approx_sssp(
        &mut PaEngine::new(&g, EngineConfig::new()),
        0,
        &SsspConfig::default(),
    )
    .expect("SSSP solves");
    let truth = reference::dijkstra(&g, 0);
    let max_stretch = (0..g.n())
        .filter(|&v| truth[v] > 0)
        .map(|v| sssp.estimates[v] as f64 / truth[v] as f64)
        .fold(1.0f64, f64::max);
    println!(
        "SSSP: {} clusters, max radius {}, max stretch {:.2}, {} rounds / {} messages",
        sssp.clusters, sssp.max_radius, max_stretch, sssp.cost.rounds, sssp.cost.messages
    );

    // 3. Overlay audit: is the configured control overlay a spanning tree?
    let overlay = reference::kruskal(&g).edges;
    let verdict = verify_spanning_tree(&mut PaEngine::new(&g, EngineConfig::new()), &overlay)
        .expect("verifies");
    println!(
        "overlay audit: spanning tree = {} ({} rounds / {} messages)",
        verdict.holds, verdict.cost.rounds, verdict.cost.messages
    );
    assert!(verdict.holds);

    println!("\nall three health checks ran on the same PA machinery.");
}
