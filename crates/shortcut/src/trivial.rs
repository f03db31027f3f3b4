//! The universal fallback shortcut: `b = 1`, `c ≤ √n`.
//!
//! Section 1.3 of the paper: *"every graph admits a tree-restricted
//! shortcut with block parameter b = 1 and congestion c = √n"*. The
//! construction (folklore, from Ghaffari–Haeupler): parts with at least
//! `√n` nodes — there are at most `√n` of them — are each given the whole
//! BFS tree (`Hᵢ = E[T]`, one block, congestion ≤ #large parts ≤ √n);
//! smaller parts get `Hᵢ = ∅` and are handled by direct intra-part
//! broadcast, which costs `O(√n)` rounds because their induced diameter is
//! below their size `< √n`.

use rmo_graph::{num::ceil_sqrt, Graph, Partition, RootedTree};

use crate::model::Shortcut;

/// Builds the trivial `b = 1, c ≤ √n` shortcut with the default threshold
/// `⌈√n⌉`.
pub fn trivial_shortcut(g: &Graph, tree: &RootedTree, parts: &Partition) -> Shortcut {
    let threshold = ceil_sqrt(g.n());
    trivial_shortcut_with_threshold(tree, parts, threshold.max(1))
}

/// Builds the trivial shortcut with an explicit size threshold: parts with
/// `|Pᵢ| ≥ threshold` receive the whole tree; smaller parts none.
///
/// Congestion is the number of large parts, at most `n / threshold`.
///
/// # Panics
/// Panics if `threshold == 0`.
pub fn trivial_shortcut_with_threshold(
    tree: &RootedTree,
    parts: &Partition,
    threshold: usize,
) -> Shortcut {
    assert!(threshold > 0, "threshold must be positive");
    let all = tree.tree_edge_ids();
    let assignments = parts
        .part_ids()
        .map(|p| {
            if parts.part_size(p) >= threshold {
                all.clone()
            } else {
                Vec::new()
            }
        })
        .collect();
    Shortcut::new(parts, tree, assignments).expect("tree edges are tree edges")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quality::measure;
    use rmo_graph::{bfs_tree, gen};

    #[test]
    fn large_parts_get_tree_small_parts_direct() {
        let g = gen::grid(4, 9); // n = 36, sqrt = 6
        let assign: Vec<usize> = (0..36).map(|v| if v < 27 { v / 9 } else { 3 }).collect();
        let parts = Partition::new(&g, assign).unwrap();
        let (tree, _) = bfs_tree(&g, 0);
        let sc = trivial_shortcut(&g, &tree, &parts);
        for p in 0..parts.num_parts() {
            assert_eq!(sc.is_direct(p), parts.part_size(p) < 6);
        }
    }

    #[test]
    fn congestion_bounded_by_large_part_count() {
        let g = gen::grid(10, 10); // n = 100, threshold 10
        let parts = Partition::new(&g, gen::grid_row_partition(10, 10)).unwrap();
        let (tree, _) = bfs_tree(&g, 0);
        let sc = trivial_shortcut(&g, &tree, &parts);
        let q = measure(&g, &parts, &sc);
        assert!(q.congestion <= 10, "c = {} exceeds sqrt(n)", q.congestion);
        assert_eq!(q.block_parameter, 1);
    }

    #[test]
    fn custom_threshold_respected() {
        let g = gen::path(12);
        let parts = Partition::new(&g, gen::path_blocks(12, 3)).unwrap();
        let (tree, _) = bfs_tree(&g, 0);
        let sc = trivial_shortcut_with_threshold(&tree, &parts, 3);
        for p in 0..4 {
            assert!(!sc.is_direct(p), "all parts have size 3 >= threshold");
        }
        let sc2 = trivial_shortcut_with_threshold(&tree, &parts, 4);
        for p in 0..4 {
            assert!(sc2.is_direct(p));
        }
    }

    #[test]
    fn singleton_partition_all_direct() {
        let g = gen::cycle(9);
        let parts = Partition::singletons(&g);
        let (tree, _) = bfs_tree(&g, 0);
        let sc = trivial_shortcut(&g, &tree, &parts);
        for p in parts.part_ids() {
            assert!(sc.is_direct(p));
        }
    }
}
