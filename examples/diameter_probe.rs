//! Domain scenario: estimate every node's eccentricity — and hence the
//! network radius and diameter — without `n` BFS floods, using the
//! k-dominating-set application of Corollary A.3.
//!
//! ```text
//! cargo run --example diameter_probe
//! ```
//!
//! A monitoring service wants per-node "worst-case latency horizon"
//! (eccentricity) on a 600-node topology. Exact answers need `n` BFS
//! floods (`O(nm)` messages); the k-dominating-set estimator does `|S| ≈
//! 6n/k` floods for an additive-`k` answer — meaningful whenever `k` is
//! small against the diameter.

use rmo::apps::eccentricity::approx_eccentricities;
use rmo::core::{EngineConfig, PaEngine};
use rmo::graph::{diameter_exact, gen};

fn main() {
    let g = gen::grid(20, 30);
    println!("topology: n = {}, m = {}", g.n(), g.m());

    for k in [4usize, 8, 16] {
        // A fresh engine per k, so every row pays its own division.
        let res = approx_eccentricities(&mut PaEngine::new(&g, EngineConfig::new()), k);
        println!(
            "\nk = {k}: |S| = {} dominators, {} rounds, {} messages",
            res.dominating_set.len(),
            res.cost.rounds,
            res.cost.messages
        );
        println!(
            "  radius estimate {} | diameter estimate {} (each within +{k} of truth)",
            res.radius_estimate, res.diameter_estimate
        );
    }
    let true_diam = diameter_exact(&g);
    println!("\nexact diameter (centralized check): {true_diam}");
}
