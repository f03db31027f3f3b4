//! Explore the tree-restricted shortcuts the engine builds: on several
//! graph families, run the pipeline's partition stages
//! (`PaEngine::pipeline_for`) and print what Algorithm 1 will run on.
//!
//! ```text
//! cargo run --example shortcut_explorer
//! ```
//!
//! Per family: the elected BFS tree's depth, the terminal-block budget
//! and the measured congestion of the Algorithm 8 shortcut the Section
//! 1.3 doubling loop settled on, how many parts need no shortcut at all
//! (direct parts), and the trivial `(1, √n)` fallback on the same tree
//! for comparison — the "what does a shortcut actually look like on my
//! network?" tour.

use rmo::core::{EngineConfig, PaEngine};
use rmo::graph::{gen, Graph, Partition};
use rmo::shortcut::{quality, trivial::trivial_shortcut};

fn explore(name: &str, g: &Graph, parts: &Partition) {
    let mut engine = PaEngine::new(g, EngineConfig::new());
    let (block_budget, shortcut) = {
        let artifacts = engine.pipeline_for(parts).expect("valid partition");
        (artifacts.block_budget, artifacts.shortcut.clone())
    };
    let tree = engine.tree();
    println!(
        "\n=== {name}: n = {}, m = {}, depth(T) = {}",
        g.n(),
        g.m(),
        tree.depth()
    );
    let q = quality::measure(g, parts, &shortcut);
    let direct = parts.part_ids().filter(|&p| shortcut.is_direct(p)).count();
    println!(
        "engine shortcut: block budget {block_budget}, congestion {}, {direct} of {} parts direct",
        q.congestion,
        parts.num_parts()
    );
    let qt = quality::measure(g, parts, &trivial_shortcut(g, tree, parts));
    println!(
        "trivial fallback for comparison: (b, c) = ({}, {})",
        qt.block_parameter, qt.congestion
    );
}

fn main() {
    let g = gen::grid(12, 12);
    let parts = Partition::new(&g, gen::grid_row_partition(12, 12)).unwrap();
    explore("planar grid, rows as parts", &g, &parts);

    let g = gen::ktree(144, 3, 5);
    let parts = gen::random_connected_partition(&g, 12, 3);
    explore("treewidth-3 k-tree, random regions", &g, &parts);

    let g = gen::grid_with_apex(12, 32);
    let parts = Partition::new(&g, gen::grid_row_partition_with_apex(12, 32)).unwrap();
    explore("Figure 2 apex grid, rows as parts", &g, &parts);

    let g = gen::hypercube(7);
    let parts = gen::random_connected_partition(&g, 11, 9);
    explore("hypercube d=7, random regions", &g, &parts);
}
