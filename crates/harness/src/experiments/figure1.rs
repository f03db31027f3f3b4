//! Figure 1 — an example T-restricted shortcut with congestion `c = 3`
//! and block parameter `b = 2`, rebuilt and measured.

use rmo_graph::{bfs_tree, Graph, Partition};
use rmo_shortcut::{quality, Shortcut};

use crate::util::print_table;

/// Builds a concrete instance with the figure's parameters: four parts on
/// a tree where one tree edge serves three parts (`c = 3`) and one part
/// splits into two blocks (`b = 2`).
pub fn run() {
    // A rooted tree: 0 is the root; two spines hang below it.
    //      0
    //     / \
    //    1   2
    //   /|   |
    //  3 4   5
    //  |     |
    //  6     7
    let g =
        Graph::from_unweighted_edges(8, &[(0, 1), (0, 2), (1, 3), (1, 4), (2, 5), (3, 6), (5, 7)])
            .expect("tree edges");
    let parts = Partition::new(&g, vec![0, 1, 2, 1, 3, 2, 1, 2]).expect("connected parts");
    let (tree, _) = bfs_tree(&g, 0);
    let e = |u: usize, v: usize| g.edge_between(u, v).expect("edge exists");
    // H_0 (part 0 = {0}): edge (1,0).
    // H_1 (part 1 = {1, 3, 6}): its spine (3,1), (6,3) plus (1,0) — one block.
    // H_2 (part 2 = {2, 5, 7}): its spine (5,2), (7,5) plus (1,0) and
    //   (2,0) to hop through the root — one block.
    // H_3 (part 3 = {4}): edges (4,1) and (2,0) — components {4,1} and
    //   {0,2}: two blocks.
    // Edge (1,0) now serves parts 0, 1 and 2: congestion 3.
    let assignments = vec![
        vec![e(0, 1)],
        vec![e(1, 3), e(3, 6), e(0, 1)],
        vec![e(2, 5), e(5, 7), e(0, 1), e(0, 2)],
        vec![e(1, 4), e(0, 2)],
    ];
    let sc = Shortcut::new(&parts, &tree, assignments).expect("tree-restricted");
    let q = quality::measure(&g, &parts, &sc);
    let mut rows = Vec::new();
    for p in parts.part_ids() {
        let blocks = sc.blocks_of(&g, &tree, &parts, p);
        rows.push(vec![
            format!("P{p}"),
            format!("{:?}", parts.members(p)),
            format!("{:?}", sc.edges_of(p)),
            blocks.len().to_string(),
            format!("{:?}", blocks.iter().map(|b| b.root).collect::<Vec<_>>()),
        ]);
    }
    print_table(
        "Figure 1 — example T-restricted shortcut (paper: c = 3, b = 2)",
        &["part", "members", "H_i (edge ids)", "blocks", "block roots"],
        &rows,
    );
    println!(
        "\nMeasured congestion c = {}, block parameter b = {}",
        q.congestion, q.block_parameter
    );
    assert_eq!(q.congestion, 3, "the figure's congestion");
    assert_eq!(q.block_parameter, 2, "the figure's block parameter");
}
