//! Diagnostic statistics over shortcuts: congestion histograms, per-part
//! block profiles, edge-usage summaries — what you'd want in front of you
//! when tuning a construction or debugging a bad instance.

use rmo_graph::{Graph, Partition, RootedTree};

use crate::model::Shortcut;

/// A full diagnostic profile of a shortcut.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShortcutProfile {
    /// Per-part number of blocks (Definition 2.3, all members as
    /// terminals).
    pub blocks_per_part: Vec<usize>,
    /// Per-part number of assigned tree edges (`|Hᵢ|`).
    pub edges_per_part: Vec<usize>,
    /// Histogram of per-edge congestion: `histogram[c]` = number of tree
    /// edges used by exactly `c` parts (index 0 = unused tree edges).
    pub congestion_histogram: Vec<usize>,
    /// Number of direct (empty-`Hᵢ`) parts.
    pub direct_parts: usize,
    /// Total edge assignments (`Σᵢ |Hᵢ|` — the memory/state footprint).
    pub total_assignments: usize,
}

impl ShortcutProfile {
    /// Max congestion (`c` of Definition 2.1).
    pub fn max_congestion(&self) -> usize {
        self.congestion_histogram.len().saturating_sub(1)
    }

    /// Mean congestion over *used* tree edges.
    pub fn mean_congestion(&self) -> f64 {
        let used: usize = self.congestion_histogram.iter().skip(1).sum();
        if used == 0 {
            return 0.0;
        }
        let weighted: usize = self
            .congestion_histogram
            .iter()
            .enumerate()
            .skip(1)
            .map(|(c, &k)| c * k)
            .sum();
        weighted as f64 / used as f64
    }
}

/// Profiles `sc` against its partition and tree.
pub fn profile(g: &Graph, tree: &RootedTree, parts: &Partition, sc: &Shortcut) -> ShortcutProfile {
    let blocks_per_part: Vec<usize> = parts
        .part_ids()
        .map(|p| {
            if sc.is_direct(p) {
                0
            } else {
                sc.block_count_of(g, tree, parts, p)
            }
        })
        .collect();
    let edges_per_part: Vec<usize> = parts.part_ids().map(|p| sc.edges_of(p).len()).collect();
    let cong = sc.congestion_map(g);
    let tree_edges = tree.tree_edge_ids();
    let max_c = tree_edges.iter().map(|&e| cong[e]).max().unwrap_or(0);
    let mut congestion_histogram = vec![0usize; max_c + 1];
    for &e in &tree_edges {
        congestion_histogram[cong[e]] += 1;
    }
    let direct_parts = parts.part_ids().filter(|&p| sc.is_direct(p)).count();
    let total_assignments = edges_per_part.iter().sum();
    ShortcutProfile {
        blocks_per_part,
        edges_per_part,
        congestion_histogram,
        direct_parts,
        total_assignments,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trivial::trivial_shortcut_with_threshold;
    use rmo_graph::{bfs_tree, gen};

    #[test]
    fn profile_of_full_tree_shortcut() {
        let g = gen::grid(4, 4);
        let parts = Partition::new(&g, gen::grid_row_partition(4, 4)).unwrap();
        let (tree, _) = bfs_tree(&g, 0);
        let sc = trivial_shortcut_with_threshold(&g, &tree, &parts, 1);
        let p = profile(&g, &tree, &parts, &sc);
        assert_eq!(p.max_congestion(), 4, "all four rows share every tree edge");
        assert_eq!(p.direct_parts, 0);
        assert_eq!(p.total_assignments, 4 * (g.n() - 1));
        assert_eq!(p.blocks_per_part, vec![1; 4]);
        // Histogram: every tree edge used by exactly 4 parts.
        assert_eq!(p.congestion_histogram[4], g.n() - 1);
        assert!((p.mean_congestion() - 4.0).abs() < 1e-9);
    }

    #[test]
    fn profile_of_empty_shortcut() {
        let g = gen::path(8);
        let parts = Partition::new(&g, gen::path_blocks(8, 2)).unwrap();
        let (tree, _) = bfs_tree(&g, 0);
        let sc = Shortcut::empty(parts.num_parts());
        let p = profile(&g, &tree, &parts, &sc);
        assert_eq!(p.direct_parts, 4);
        assert_eq!(p.total_assignments, 0);
        assert_eq!(p.max_congestion(), 0);
        assert_eq!(p.mean_congestion(), 0.0);
        assert_eq!(p.congestion_histogram[0], 7, "all tree edges unused");
    }

    #[test]
    fn histogram_sums_to_tree_edges() {
        let g = gen::grid(5, 6);
        let parts = Partition::new(&g, gen::grid_row_partition(5, 6)).unwrap();
        let (tree, _) = bfs_tree(&g, 0);
        let sc = trivial_shortcut_with_threshold(&g, &tree, &parts, 1);
        let p = profile(&g, &tree, &parts, &sc);
        let total: usize = p.congestion_histogram.iter().sum();
        assert_eq!(total, g.n() - 1);
    }
}
