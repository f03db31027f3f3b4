//! Cross-crate shortcut quality: constructed shortcuts actually help the
//! PA solver, and their measured parameters respect the paper's bounds on
//! the bounded-parameter families (Table 1's promise, empirically).

use rmo::core::subparts_det::deterministic_division;
use rmo::core::{solve_on, Aggregate, PaInstance, PaSetup, Variant};
use rmo::graph::{bfs_tree, gen, num::ceil_sqrt, Partition};
use rmo::shortcut::alg8::{construct_deterministic, DetParams};
use rmo::shortcut::corefast::{construct_randomized, RandParams};
use rmo::shortcut::trivial::trivial_shortcut;
use rmo::shortcut::{quality, Shortcut};

fn two_reps(parts: &Partition) -> Vec<Vec<usize>> {
    parts
        .part_ids()
        .map(|p| {
            let m = parts.members(p);
            if m.len() == 1 {
                vec![m[0]]
            } else {
                vec![m[0], m[m.len() - 1]]
            }
        })
        .collect()
}

#[test]
fn trivial_shortcut_is_universal() {
    // Section 1.3: every graph admits b = 1, c <= sqrt(n).
    let cases = vec![
        gen::grid(8, 8),
        gen::gnp_connected(100, 0.05, 1),
        gen::ktree(64, 3, 2),
        gen::kpath(20, 3),
        gen::torus(6, 8),
        gen::hypercube(6),
    ];
    for g in cases {
        let k = ceil_sqrt(g.n());
        let parts = gen::random_connected_partition(&g, k, 3);
        let (tree, _) = bfs_tree(&g, 0);
        let sc = trivial_shortcut(&g, &tree, &parts);
        let q = quality::measure(&g, &tree, &parts, &sc);
        assert_eq!(q.block_parameter, 1, "n = {}", g.n());
        assert!(
            q.congestion <= k + 1,
            "congestion {} exceeds sqrt(n) = {k} on n = {}",
            q.congestion,
            g.n()
        );
    }
}

#[test]
fn constructions_satisfy_all_parts_on_grids() {
    for (r, c) in [(6usize, 6usize), (8, 16), (4, 32)] {
        let g = gen::grid(r, c);
        let parts = Partition::new(&g, gen::grid_row_partition(r, c)).unwrap();
        let (tree, _) = bfs_tree(&g, 0);
        let terminals = two_reps(&parts);
        let det = construct_deterministic(
            &g,
            &tree,
            &parts,
            &terminals,
            DetParams::new(r, 2, parts.num_parts()),
        );
        assert!(
            det.unsatisfied.is_empty(),
            "{r}x{c}: det unsatisfied {:?}",
            det.unsatisfied
        );
        let rand = construct_randomized(
            &g,
            &tree,
            &parts,
            &terminals,
            RandParams::new(r, 2, parts.num_parts(), 5),
        );
        assert!(rand.unsatisfied.is_empty(), "{r}x{c}: rand unsatisfied");
    }
}

#[test]
fn better_shortcuts_reduce_wave_rounds_on_wide_grids() {
    // The Figure 2 topology: rows are long (high part diameter) but the
    // apex keeps the network diameter tiny. With a shortcut through the
    // BFS tree the wave collapses each row in O(D + c) rounds; with NO
    // shortcut it must crawl the row sub-part by sub-part.
    let (depth, width) = (4usize, 240usize);
    let g = gen::grid_with_apex(depth, width);
    let parts = Partition::new(&g, gen::grid_row_partition_with_apex(depth, width)).unwrap();
    let apex = depth * width;
    let (tree, _) = bfs_tree(&g, apex);
    let values: Vec<u64> = (0..g.n() as u64).collect();
    let inst = PaInstance::from_partition(&g, parts.clone(), values, Aggregate::Min).unwrap();
    let leaders: Vec<usize> = parts.part_ids().map(|p| parts.members(p)[0]).collect();
    let d = tree.depth().max(1);
    let division = deterministic_division(&g, &parts, d).division;
    let terminals: Vec<Vec<usize>> = parts.part_ids().map(|p| division.reps_of_part(p)).collect();
    let built = construct_deterministic(
        &g,
        &tree,
        &parts,
        &terminals,
        DetParams::new(8, 2, parts.num_parts()),
    );
    assert!(built.unsatisfied.is_empty());
    let budget = parts
        .part_ids()
        .map(|p| {
            built
                .shortcut
                .blocks_for_terminals(&g, &tree, p, &terminals[p])
                .len()
        })
        .max()
        .unwrap();
    let with = solve_on(
        &inst,
        &PaSetup {
            tree: &tree,
            shortcut: &built.shortcut,
            division: &division,
            leaders: &leaders,
            block_budget: budget,
        },
        Variant::Deterministic,
    )
    .unwrap();
    let empty = Shortcut::empty(parts.num_parts());
    let without = solve_on(
        &inst,
        &PaSetup {
            tree: &tree,
            shortcut: &empty,
            division: &division,
            leaders: &leaders,
            block_budget: division.num_subparts() + 1,
        },
        Variant::Deterministic,
    )
    .unwrap();
    assert!(
        with.broadcast_cost.rounds < without.broadcast_cost.rounds,
        "shortcut wave {} rounds should beat no-shortcut wave {} rounds",
        with.broadcast_cost.rounds,
        without.broadcast_cost.rounds
    );
}

#[test]
fn bounded_width_families_get_small_parameters() {
    // k-paths: pathwidth 3, Table 1 row says b, c = p. Consecutive-clique
    // parts should admit shortcuts with single-digit parameters.
    let g = gen::kpath(30, 3);
    let assign: Vec<usize> = (0..g.n()).map(|v| v / 18).collect();
    let parts = Partition::new(&g, assign).unwrap();
    let (tree, _) = bfs_tree(&g, 0);
    let terminals = two_reps(&parts);
    let res = construct_deterministic(
        &g,
        &tree,
        &parts,
        &terminals,
        DetParams::new(4, 2, parts.num_parts()),
    );
    assert!(res.unsatisfied.is_empty());
    for p in parts.part_ids() {
        let blocks = res
            .shortcut
            .blocks_for_terminals(&g, &tree, p, &terminals[p])
            .len();
        assert!(blocks <= 6, "part {p}: {blocks} terminal blocks");
    }
}
