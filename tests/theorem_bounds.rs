//! Empirical checks of the paper's complexity claims (Theorem 1.2 and
//! Section 1.3): measured rounds and messages stay within generous
//! polylog envelopes of the stated bounds.

use rmo::core::{Aggregate, EngineConfig, PaEngine, PaResult};
use rmo::graph::{gen, two_sweep_diameter_lower_bound, Partition};

/// One PA solve (`min` over values `0..n`) on a fresh engine: the full
/// pipeline, setup included.
fn solve(g: &rmo::graph::Graph, parts: &Partition, config: EngineConfig) -> PaResult {
    let values: Vec<u64> = (0..g.n() as u64).collect();
    PaEngine::new(g, config)
        .solve(parts.assignment(), &values, Aggregate::Min)
        .expect("PA solves")
}

/// A generous polylog allowance: `C · log²(n)` with C = 4. The point is
/// the *growth rate*, not the constant; these tests fail if an
/// implementation regresses to a polynomial overhead (e.g. n^0.5 extra).
fn polylog(n: usize) -> f64 {
    let l = (n.max(4) as f64).log2();
    4.0 * l * l
}

fn check_theorem_1_2(g: &rmo::graph::Graph, parts: Partition) {
    let n = g.n();
    let m = g.m() as f64;
    let d = two_sweep_diameter_lower_bound(g, 0).max(1) as f64;

    let det = solve(g, &parts, EngineConfig::new());
    let rand = solve(g, &parts, EngineConfig::new().randomized(1));
    let budget_rounds = (d + (n as f64).sqrt()) * polylog(n);
    let budget_msgs = m * polylog(n);
    for (name, cost) in [("det", det.cost), ("rand", rand.cost)] {
        assert!(
            (cost.rounds as f64) <= budget_rounds,
            "{name}: rounds {} exceed (D + sqrt n) * polylog = {budget_rounds:.0}",
            cost.rounds
        );
        assert!(
            (cost.messages as f64) <= budget_msgs,
            "{name}: messages {} exceed m * polylog = {budget_msgs:.0}",
            cost.messages
        );
    }
}

#[test]
fn bounds_on_grids() {
    for side in [8usize, 12, 16] {
        let g = gen::grid(side, side);
        let parts = Partition::new(&g, gen::grid_row_partition(side, side)).unwrap();
        check_theorem_1_2(&g, parts);
    }
}

#[test]
fn bounds_on_random_graphs() {
    for (n, m) in [(64usize, 200usize), (144, 500)] {
        let g = gen::random_connected(n, m, 3);
        let parts = gen::random_connected_partition(&g, (n as f64).sqrt() as usize, 5);
        check_theorem_1_2(&g, parts);
    }
}

#[test]
fn bounds_on_bounded_width_families() {
    let g = gen::ktree(100, 3, 1);
    let parts = gen::random_connected_partition(&g, 10, 2);
    check_theorem_1_2(&g, parts);

    let g = gen::kpath(40, 3);
    let parts = Partition::new(&g, (0..g.n()).map(|v| v / 12).collect()).unwrap();
    check_theorem_1_2(&g, parts);
}

#[test]
fn bounds_on_high_diameter_paths() {
    let g = gen::path(200);
    let parts = Partition::new(&g, gen::path_blocks(200, 50)).unwrap();
    check_theorem_1_2(&g, parts);
}

/// The planar claim of Table 2: on grids, PA rounds scale with `D`, not
/// with `sqrt(n)` — doubling the area at fixed aspect ratio should grow
/// rounds roughly linearly in the side (which is Θ(D)).
#[test]
fn planar_rounds_track_diameter() {
    let mut prev_rounds = 0usize;
    for side in [8usize, 16] {
        let g = gen::grid(side, side);
        let parts = Partition::new(&g, gen::grid_row_partition(side, side)).unwrap();
        let res = solve(&g, &parts, EngineConfig::new());
        if prev_rounds > 0 {
            // Doubling the side at most ~quadruples rounds (log factors on
            // top of linear growth); it must not grow with area (x4 side
            // would mean x16 quadratic blow-up).
            assert!(
                res.cost.rounds <= prev_rounds * 8,
                "rounds jumped {prev_rounds} -> {} on side doubling",
                res.cost.rounds
            );
        }
        prev_rounds = res.cost.rounds;
    }
}

/// Message optimality is what the paper adds over prior work; make the
/// regression explicit: the full pipeline must never cost ω(m polylog)
/// messages on the adversarial apex grid.
#[test]
fn apex_grid_messages_stay_near_linear() {
    let g = gen::grid_with_apex(16, 64);
    let parts = Partition::new(&g, gen::grid_row_partition_with_apex(16, 64)).unwrap();
    let res = solve(&g, &parts, EngineConfig::new());
    let bound = g.m() as f64 * polylog(g.n());
    assert!(
        (res.cost.messages as f64) <= bound,
        "messages {} exceed m*polylog {bound:.0}",
        res.cost.messages
    );
}
