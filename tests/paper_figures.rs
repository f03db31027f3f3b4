//! The paper's figures, pinned as CI tests: each test reconstructs the
//! figure's object and asserts the property the figure illustrates.

use rmo::core::baseline::naive_block_pa;
use rmo::core::solve::broadcast_wave_outcome;
use rmo::core::subparts_random::random_division;
use rmo::core::{solve_on, Aggregate, PaInstance, PaSetup, SubPartDivision, Variant};
use rmo::graph::{bfs_tree, gen, num::ceil_log2, Graph, Partition};
use rmo::shortcut::alg7::construct_on_path;
use rmo::shortcut::trivial::trivial_shortcut_with_threshold;
use rmo::shortcut::{quality, Shortcut};

/// Figure 1: a T-restricted shortcut with congestion 3, block parameter 2.
#[test]
fn figure1_example_parameters() {
    let g =
        Graph::from_unweighted_edges(8, &[(0, 1), (0, 2), (1, 3), (1, 4), (2, 5), (3, 6), (5, 7)])
            .unwrap();
    let parts = Partition::new(&g, vec![0, 1, 2, 1, 3, 2, 1, 2]).unwrap();
    let (tree, _) = bfs_tree(&g, 0);
    let e = |u: usize, v: usize| g.edge_between(u, v).unwrap();
    let sc = Shortcut::new(
        &parts,
        &tree,
        vec![
            vec![e(0, 1)],
            vec![e(1, 3), e(3, 6), e(0, 1)],
            vec![e(2, 5), e(5, 7), e(0, 1), e(0, 2)],
            vec![e(1, 4), e(0, 2)],
        ],
    )
    .unwrap();
    let q = quality::measure(&g, &tree, &parts, &sc);
    assert_eq!(q.congestion, 3);
    assert_eq!(q.block_parameter, 2);
}

/// Figure 2: at `D = 32` on a ~4k-node apex grid, prior-work block
/// aggregation costs several times the sub-part algorithm's messages.
#[test]
fn figure2_separation_at_depth_32() {
    let (depth, width) = (32usize, 128usize);
    let g = gen::grid_with_apex(depth, width);
    let parts = Partition::new(&g, gen::grid_row_partition_with_apex(depth, width)).unwrap();
    let values: Vec<u64> = (0..g.n() as u64).collect();
    let inst = PaInstance::from_partition(&g, parts.clone(), values, Aggregate::Min).unwrap();
    let apex = depth * width;
    let (tree, _) = bfs_tree(&g, apex);
    let sc = trivial_shortcut_with_threshold(&g, &tree, &parts, 1);
    let leaders: Vec<usize> = parts.part_ids().map(|p| parts.members(p)[0]).collect();
    let naive = naive_block_pa(&inst, &tree, &sc, &leaders, Variant::Deterministic, 1).unwrap();
    let div = random_division(&g, &parts, &leaders, tree.depth().max(1), 7);
    let ours = solve_on(
        &inst,
        &PaSetup {
            tree: &tree,
            shortcut: &sc,
            division: &div.division,
            leaders: &leaders,
            block_budget: 1,
        },
        Variant::Deterministic,
    )
    .unwrap();
    let ours_total = ours.cost.messages + div.cost.messages;
    assert!(
        naive.cost.messages >= 2 * ours_total,
        "naive {} vs sub-part {} — the Figure 2 separation must show",
        naive.cost.messages,
        ours_total
    );
    // And the naive cost really is Ω(nD)-scale.
    assert!(naive.cost.messages >= (g.n() * depth) as u64);
}

/// Figure 4: a 3-block part is covered in exactly 3 wave iterations.
#[test]
fn figure4_three_blocks_three_iterations() {
    let g = gen::path(24);
    let parts = Partition::whole(&g).unwrap();
    let (tree, _) = bfs_tree(&g, 0);
    let sc = Shortcut::empty(1);
    let division = SubPartDivision::new(
        &g,
        &parts,
        (0..24).map(|v| v / 8).collect(),
        (0..24usize)
            .map(|v| if v % 8 == 0 { None } else { Some(v - 1) })
            .collect(),
        vec![0, 8, 16],
    )
    .unwrap();
    let wave = broadcast_wave_outcome(
        &g,
        &parts,
        &PaSetup {
            tree: &tree,
            shortcut: &sc,
            division: &division,
            leaders: &[0],
            block_budget: 3,
        },
        Variant::Deterministic,
    );
    assert_eq!(wave.trace.len(), 3);
    assert!(wave.informed.iter().all(|&i| i));
    let informed: Vec<usize> = wave.trace.iter().map(|t| t.informed_after).collect();
    assert_eq!(
        informed,
        vec![9, 17, 24],
        "one sub-part block per iteration"
    );
}

/// Figure 5 / Lemma 6.6: Algorithm 7's rounds and loads on a long path.
#[test]
fn figure5_lemma_6_6_envelope() {
    for (len, c) in [(256usize, 4usize), (1024, 8)] {
        let nodes: Vec<usize> = (0..len).collect();
        let edges: Vec<usize> = (0..len - 1).collect();
        let requests: Vec<Vec<usize>> = (0..len).map(|p| vec![p]).collect();
        let res = construct_on_path(&nodes, &edges, &requests, c);
        let log_d = ceil_log2(len);
        assert!(res.cost.rounds <= c * log_d + len, "rounds");
        assert!(res.max_edge_load <= 2 * c * log_d, "edge load");
        assert!(!res.reached_top.is_empty(), "someone survives to the top");
    }
}
