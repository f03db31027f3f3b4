//! Exact quality measures of a shortcut: congestion, block parameter and
//! dilation (Definitions 2.1–2.3).

use std::collections::{BTreeMap, VecDeque};

use rmo_graph::{Graph, NodeId, Partition};

use crate::model::{BlockCounter, Shortcut};

/// The measured quality of a shortcut.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Quality {
    /// Max parts sharing one tree edge (`c`, Definition 2.1 condition 1).
    pub congestion: usize,
    /// Max number of blocks of any **block-handled** part (`b`,
    /// Definition 2.3). Parts with empty `Hᵢ` are handled directly by the
    /// PA algorithm's small-part branch and do not contribute.
    pub block_parameter: usize,
    /// Max diameter of `(Pᵢ ∪ V(Hᵢ), E[Pᵢ] ∪ Hᵢ)` over all parts
    /// (`d`, Definition 2.1 condition 2).
    pub dilation: usize,
}

/// Measures congestion, block parameter and dilation of `sc` exactly;
/// all three read only the tree edge ids `sc` holds.
///
/// # Panics
/// Panics if the shortcut's part count does not match the partition.
pub fn measure(g: &Graph, parts: &Partition, sc: &Shortcut) -> Quality {
    assert_eq!(
        sc.num_parts(),
        parts.num_parts(),
        "shortcut does not match partition"
    );
    let congestion = sc.congestion_map(g).into_iter().max().unwrap_or(0);
    let mut counter = BlockCounter::new();
    let block_parameter = parts
        .part_ids()
        .filter(|&p| !sc.is_direct(p))
        .map(|p| counter.count(g, sc.edges_of(p), parts.members(p)))
        .max()
        .unwrap_or(1);
    let dilation = parts
        .part_ids()
        .map(|p| part_dilation(g, parts, sc, p))
        .max()
        .unwrap_or(0);
    Quality {
        congestion,
        block_parameter,
        dilation,
    }
}

/// Diameter of the "augmented part" `(Pᵢ ∪ V(Hᵢ), E[Pᵢ] ∪ Hᵢ)` of part `p`.
fn part_dilation(g: &Graph, parts: &Partition, sc: &Shortcut, p: usize) -> usize {
    // Build the augmented node set and adjacency.
    let mut nodes: Vec<NodeId> = parts.members(p).to_vec();
    for &e in sc.edges_of(p) {
        let (u, v) = g.endpoints(e);
        nodes.push(u);
        nodes.push(v);
    }
    nodes.sort_unstable();
    nodes.dedup();
    let index: BTreeMap<NodeId, usize> = nodes.iter().enumerate().map(|(i, &v)| (v, i)).collect();
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); nodes.len()];
    // E[Pi]: graph edges with both endpoints in the part.
    for &v in parts.members(p) {
        for (u, _) in g.neighbors(v) {
            if parts.part_of(u) == p && u > v {
                adj[index[&v]].push(index[&u]);
                adj[index[&u]].push(index[&v]);
            }
        }
    }
    for &e in sc.edges_of(p) {
        let (u, v) = g.endpoints(e);
        adj[index[&u]].push(index[&v]);
        adj[index[&v]].push(index[&u]);
    }
    // Double BFS over every source — exact diameter on the (small) augmented part.
    let mut best = 0;
    for s in 0..nodes.len() {
        let mut dist = vec![usize::MAX; nodes.len()];
        dist[s] = 0;
        let mut q = VecDeque::from([s]);
        while let Some(u) = q.pop_front() {
            for &w in &adj[u] {
                if dist[w] == usize::MAX {
                    dist[w] = dist[u] + 1;
                    q.push_back(w);
                }
            }
        }
        for (i, &d) in dist.iter().enumerate() {
            // Only distances between part nodes matter for PA; Steiner
            // nodes are relays. Measure part-node pairs.
            if d != usize::MAX
                && parts.part_of(nodes[s]) == p
                && parts.part_of(nodes[i]) == p
                && d > best
            {
                best = d;
            }
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trivial::trivial_shortcut;
    use rmo_graph::{bfs_tree, gen};

    #[test]
    fn empty_shortcut_dilation_is_part_diameter() {
        let g = gen::grid(2, 6);
        let parts = Partition::new(&g, gen::grid_row_partition(2, 6)).unwrap();
        let sc = Shortcut::empty(2);
        assert_eq!(
            part_dilation(&g, &parts, &sc, 0),
            5,
            "row of 6 has diameter 5"
        );
    }

    #[test]
    fn trivial_shortcut_quality_on_grid() {
        let g = gen::grid(8, 8);
        let parts = Partition::new(&g, gen::grid_row_partition(8, 8)).unwrap();
        let (tree, _) = bfs_tree(&g, 0);
        let sc = trivial_shortcut(&g, &tree, &parts);
        let q = measure(&g, &parts, &sc);
        // Rows have 8 >= sqrt(64) nodes, so all get the whole tree:
        assert_eq!(q.block_parameter, 1);
        assert_eq!(q.congestion, 8, "all 8 rows share every tree edge");
    }

    #[test]
    fn shortcut_edges_shrink_dilation() {
        // A long thin grid: one row as one part has huge diameter; the
        // full tree shortcut collapses it to O(D_tree).
        let g = gen::grid(2, 40);
        let parts = Partition::new(&g, gen::grid_row_partition(2, 40)).unwrap();
        let (tree, _) = bfs_tree(&g, 0);
        let empty = Shortcut::empty(2);
        let full = Shortcut::new(
            &parts,
            &tree,
            vec![tree.tree_edge_ids(), tree.tree_edge_ids()],
        )
        .unwrap();
        let d_empty = part_dilation(&g, &parts, &empty, 1);
        let d_full = part_dilation(&g, &parts, &full, 1);
        assert_eq!(d_empty, 39);
        assert!(d_full <= d_empty, "shortcuts cannot hurt");
    }

    #[test]
    fn congestion_zero_for_empty() {
        let g = gen::path(6);
        let parts = Partition::new(&g, gen::path_blocks(6, 2)).unwrap();
        let q = measure(&g, &parts, &Shortcut::empty(3));
        assert_eq!(q.congestion, 0);
        assert_eq!(q.block_parameter, 1, "no block-handled parts");
    }
}
