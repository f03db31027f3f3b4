//! Figure 2 — the `Ω(nD)`-message bad example and the sub-part
//! workaround, measured head to head.
//!
//! The instance: a `D × (n−1)/D` grid plus an apex root adjacent to the
//! top row; rows are the parts; the BFS tree from the apex makes the
//! columns one big block per part. Both algorithms get the **same**
//! infrastructure (BFS tree, whole-tree shortcut, leaders); they differ
//! only in who climbs the block:
//!
//! * prior work ([`naive_block_pa`]): every node individually — `Ω(nD)`
//!   messages;
//! * the paper (Algorithm 1 + a sub-part division): only the `Õ(n/D)`
//!   representatives — `Õ(m)` messages, with `m = O(n)` here.
//!
//! We sweep `D` at fixed `n` in the regime `width ≥ D` (parts of at least
//! `D` nodes, so the sub-part machinery is actually exercised).

use rmo_core::baseline::naive_block_pa;
use rmo_core::subparts_random::random_division;
use rmo_core::{solve_on, Aggregate, PaInstance, PaSetup, Variant};
use rmo_graph::{bfs_tree, gen, Partition};
use rmo_shortcut::trivial::trivial_shortcut_with_threshold;

use crate::util::{print_table, ratio};

pub fn run(quick: bool) {
    let n_cells = if quick { 1024usize } else { 4096 };
    let mut depths = vec![4usize, 8, 16, 32];
    if !quick {
        depths.push(64);
    }
    let mut rows = Vec::new();
    for depth in depths {
        let width = n_cells / depth;
        if width < depth {
            continue; // stay in the "parts at least D wide" regime
        }
        let g = gen::grid_with_apex(depth, width);
        let n = g.n();
        let parts = Partition::new(&g, gen::grid_row_partition_with_apex(depth, width)).unwrap();
        let values: Vec<u64> = (0..n as u64).collect();
        let inst = PaInstance::from_partition(&g, parts.clone(), values, Aggregate::Min).unwrap();
        // Shared infrastructure: BFS tree at the apex, whole-tree shortcut.
        let apex = depth * width;
        let (tree, _) = bfs_tree(&g, apex);
        let sc = trivial_shortcut_with_threshold(&tree, &parts, 1);
        let leaders: Vec<usize> = parts.part_ids().map(|p| parts.members(p)[0]).collect();
        // Prior work: every node uses the block.
        let naive = naive_block_pa(&inst, &tree, &sc, &leaders, Variant::Deterministic, 1)
            .expect("naive PA solves");
        // The paper: sub-part division first (cost included), then
        // Algorithm 1 where only representatives use the block.
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
        .expect("sub-part PA solves");
        let ours_msgs = ours.cost.messages + div.cost.messages;
        for p in parts.part_ids() {
            assert_eq!(naive.aggregates[p], inst.reference_aggregate(p));
            assert_eq!(ours.aggregates[p], inst.reference_aggregate(p));
        }
        rows.push(vec![
            depth.to_string(),
            width.to_string(),
            n.to_string(),
            g.m().to_string(),
            naive.cost.messages.to_string(),
            ours_msgs.to_string(),
            ratio(naive.cost.messages as f64, (n * depth) as f64),
            ratio(ours_msgs as f64, g.m() as f64),
            ratio(naive.cost.messages as f64, ours_msgs as f64),
        ]);
    }
    print_table(
        "Figure 2 — apex grid: naive block aggregation vs sub-part PA (same tree & shortcut)",
        &[
            "D",
            "width",
            "n",
            "m",
            "naive msgs",
            "subpart msgs",
            "naive/(nD)",
            "subpart/m",
            "naive/subpart",
        ],
        &rows,
    );
    println!(
        "\nShape check: naive/(nD) stays ~constant (the Ω(nD) behaviour) and \
         subpart/m stays polylog-bounded, so naive/subpart grows ~linearly \
         with D — the Figure 2 separation."
    );
}
