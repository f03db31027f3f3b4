//! The shortcut data model: per-part tree-edge sets and their blocks.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use rmo_graph::{DisjointSets, EdgeId, Graph, NodeId, Partition, RootedTree};

/// Errors from structural validation of a [`Shortcut`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShortcutError {
    /// The number of per-part edge sets differed from the partition size.
    PartCountMismatch { expected: usize, got: usize },
    /// A part's set contained an edge that is not a tree edge.
    NonTreeEdge { part: usize, edge: EdgeId },
}

impl fmt::Display for ShortcutError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShortcutError::PartCountMismatch { expected, got } => {
                write!(f, "shortcut has {got} parts, partition has {expected}")
            }
            ShortcutError::NonTreeEdge { part, edge } => {
                write!(f, "part {part} uses non-tree edge {edge}")
            }
        }
    }
}

impl std::error::Error for ShortcutError {}

/// One block of a part: a connected component of `(Pᵢ ∪ V(Hᵢ), Hᵢ)`
/// (Definition 2.3). Because `Hᵢ` consists of tree edges, each block is a
/// subtree of `T` and has a unique shallowest node, its **root** — the
/// sink of `BlockRoute` convergecasts within the block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Block {
    /// The shallowest node of the block.
    pub root: NodeId,
    /// All nodes of the block (part nodes and Steiner relay nodes).
    pub nodes: Vec<NodeId>,
    /// The nodes of the block that belong to the part itself.
    pub part_nodes: Vec<NodeId>,
    /// Tree edges of the block (`⊆ Hᵢ`).
    pub edges: Vec<EdgeId>,
}

/// A `T`-restricted shortcut: for each part `Pᵢ`, a set `Hᵢ` of tree
/// edges (Definition 2.2).
///
/// An empty `Hᵢ` means the part is handled "directly" by Algorithm 1
/// (intra-part broadcast along its own spanning tree) — the small-part
/// regime.
///
/// # Example
/// ```rust
/// use rmo_graph::{gen, bfs_tree, Partition};
/// use rmo_shortcut::Shortcut;
///
/// let g = gen::grid(2, 4);
/// let parts = Partition::new(&g, gen::grid_row_partition(2, 4))?;
/// let (tree, _) = bfs_tree(&g, 0);
/// // Give row 0 the whole tree, leave row 1 direct.
/// let sc = Shortcut::new(&parts, &tree, vec![tree.tree_edge_ids(), vec![]])?;
/// assert!(!sc.is_direct(0));
/// assert!(sc.is_direct(1));
/// assert_eq!(sc.blocks_of(&g, &tree, &parts, 0).len(), 1);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Shortcut {
    /// `assignments[i]` = the edge ids of `Hᵢ` (tree edges).
    assignments: Vec<Vec<EdgeId>>,
}

impl Shortcut {
    /// A shortcut assigning no edges to any of `num_parts` parts
    /// (every part handled directly).
    pub fn empty(num_parts: usize) -> Shortcut {
        Shortcut {
            assignments: vec![Vec::new(); num_parts],
        }
    }

    /// Builds a shortcut from per-part edge sets, validating that every
    /// edge is a tree edge and the part count matches.
    ///
    /// # Errors
    /// Returns [`ShortcutError`] on mismatch or non-tree edges.
    pub fn new(
        parts: &Partition,
        tree: &RootedTree,
        assignments: Vec<Vec<EdgeId>>,
    ) -> Result<Shortcut, ShortcutError> {
        if assignments.len() != parts.num_parts() {
            return Err(ShortcutError::PartCountMismatch {
                expected: parts.num_parts(),
                got: assignments.len(),
            });
        }
        let tree_edges: BTreeSet<EdgeId> = tree.tree_edge_ids().into_iter().collect();
        for (i, set) in assignments.iter().enumerate() {
            for &e in set {
                if !tree_edges.contains(&e) {
                    return Err(ShortcutError::NonTreeEdge { part: i, edge: e });
                }
            }
        }
        let mut assignments = assignments;
        for set in &mut assignments {
            set.sort_unstable();
            set.dedup();
        }
        Ok(Shortcut { assignments })
    }

    /// Number of parts covered.
    pub fn num_parts(&self) -> usize {
        self.assignments.len()
    }

    /// The tree edges `Hᵢ` of part `i`.
    pub fn edges_of(&self, part: usize) -> &[EdgeId] {
        &self.assignments[part]
    }

    /// Whether part `i` is handled directly (no shortcut edges).
    pub fn is_direct(&self, part: usize) -> bool {
        self.assignments[part].is_empty()
    }

    /// The blocks of part `i` (Definition 2.3): connected components of
    /// `(Pᵢ ∪ V(Hᵢ), Hᵢ)`. Part nodes not touched by `Hᵢ` form singleton
    /// blocks.
    pub fn blocks_of(
        &self,
        g: &Graph,
        tree: &RootedTree,
        parts: &Partition,
        part: usize,
    ) -> Vec<Block> {
        self.blocks_for_terminals(g, tree, part, parts.members(part))
    }

    /// Blocks of part `i` counting only the given **terminal** nodes as
    /// part nodes: connected components of `(Tᵢ ∪ V(Hᵢ), Hᵢ)` where `Tᵢ`
    /// is the terminal set.
    ///
    /// This is the operative notion for the sub-part machinery
    /// (Section 3.2): only sub-part *representatives* inject values into
    /// `BlockRoute`, so the wave induction of Algorithm 1 — and hence the
    /// block-parameter verification of the constructions — counts
    /// components over representatives, with each sub-part collapsing onto
    /// its representative via its own spanning tree.
    pub fn blocks_for_terminals(
        &self,
        g: &Graph,
        tree: &RootedTree,
        part: usize,
        terminals: &[NodeId],
    ) -> Vec<Block> {
        let hi = &self.assignments[part];
        // Collect involved nodes: terminals + endpoints of Hi.
        let mut involved: Vec<NodeId> = terminals.to_vec();
        for &e in hi {
            let (u, v) = g.endpoints(e);
            involved.push(u);
            involved.push(v);
        }
        involved.sort_unstable();
        involved.dedup();
        // Union-find over a dense relabeling of the involved nodes.
        let index: BTreeMap<NodeId, usize> =
            involved.iter().enumerate().map(|(i, &v)| (v, i)).collect();
        let mut dsu = DisjointSets::new(involved.len());
        for &e in hi {
            let (u, v) = g.endpoints(e);
            dsu.union(index[&u], index[&v]);
        }
        let mut groups: BTreeMap<usize, Vec<NodeId>> = BTreeMap::new();
        for &v in &involved {
            groups.entry(dsu.find(index[&v])).or_default().push(v);
        }
        let part_set: BTreeSet<NodeId> = terminals.iter().copied().collect();
        let mut by_edge: BTreeMap<usize, Vec<EdgeId>> = BTreeMap::new();
        for &e in hi {
            let (u, _) = g.endpoints(e);
            by_edge.entry(dsu.find(index[&u])).or_default().push(e);
        }
        let mut blocks: Vec<Block> = groups
            .into_iter()
            .map(|(rep, nodes)| {
                let root = nodes
                    .iter()
                    .copied()
                    .min_by_key(|&v| (tree.depth_of(v), v))
                    .expect("blocks are non-empty");
                let part_nodes: Vec<NodeId> = nodes
                    .iter()
                    .copied()
                    .filter(|v| part_set.contains(v))
                    .collect();
                let edges = by_edge.remove(&rep).unwrap_or_default();
                Block {
                    root,
                    nodes,
                    part_nodes,
                    edges,
                }
            })
            .collect();
        blocks.sort_by_key(|b| b.root);
        blocks
    }

    /// Number of blocks of part `i` — its block parameter term.
    pub fn block_count_of(
        &self,
        g: &Graph,
        tree: &RootedTree,
        parts: &Partition,
        part: usize,
    ) -> usize {
        self.blocks_of(g, tree, parts, part).len()
    }

    /// Per-tree-edge congestion map: `cong[e]` = number of parts whose
    /// `Hᵢ` contains edge `e` (0 for non-tree edges).
    pub fn congestion_map(&self, g: &Graph) -> Vec<usize> {
        let mut cong = vec![0usize; g.m()];
        for set in &self.assignments {
            for &e in set {
                cong[e] += 1;
            }
        }
        cong
    }

    /// Merges another edge set into part `i` (used by iterated
    /// constructions that accumulate claims over rounds). A part id
    /// outside the shortcut takes nothing.
    pub fn extend_part(&mut self, part: usize, edges: impl IntoIterator<Item = EdgeId>) {
        let Some(set) = self.assignments.get_mut(part) else {
            return;
        };
        set.extend(edges);
        set.sort_unstable();
        set.dedup();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rmo_graph::{bfs_tree, gen};

    use rmo_graph::Graph;

    /// 2x4 grid, rows as parts.
    fn setup2() -> (Graph, RootedTree, Partition) {
        let g = gen::grid(2, 4);
        let parts = Partition::new(&g, gen::grid_row_partition(2, 4)).unwrap();
        let (tree, _) = bfs_tree(&g, 0);
        (g, tree, parts)
    }

    #[test]
    fn empty_shortcut_all_direct() {
        let (g, tree, parts) = setup2();
        let sc = Shortcut::empty(parts.num_parts());
        assert!(sc.is_direct(0));
        assert!(sc.is_direct(1));
        // With no edges, each part node is its own block.
        assert_eq!(sc.block_count_of(&g, &tree, &parts, 0), 4);
    }

    #[test]
    fn rejects_non_tree_edge() {
        let (g, tree, parts) = setup2();
        let non_tree: Vec<EdgeId> = (0..g.m())
            .filter(|&e| !tree.tree_edge_ids().contains(&e))
            .collect();
        assert!(!non_tree.is_empty());
        let err = Shortcut::new(&parts, &tree, vec![vec![non_tree[0]], vec![]]).unwrap_err();
        assert!(matches!(err, ShortcutError::NonTreeEdge { .. }));
    }

    #[test]
    fn rejects_part_count_mismatch() {
        let (_, tree, parts) = setup2();
        let err = Shortcut::new(&parts, &tree, vec![vec![]]).unwrap_err();
        assert_eq!(
            err,
            ShortcutError::PartCountMismatch {
                expected: 2,
                got: 1
            }
        );
    }

    #[test]
    fn whole_tree_is_one_block() {
        let (g, tree, parts) = setup2();
        let all = tree.tree_edge_ids();
        let sc = Shortcut::new(&parts, &tree, vec![all.clone(), all]).unwrap();
        for p in 0..2 {
            let blocks = sc.blocks_of(&g, &tree, &parts, p);
            assert_eq!(blocks.len(), 1);
            assert_eq!(blocks[0].root, tree.root());
            assert_eq!(
                blocks[0].nodes.len(),
                g.n(),
                "spans every node via Steiner relays"
            );
            assert_eq!(blocks[0].part_nodes.len(), 4);
        }
    }

    #[test]
    fn congestion_map_counts_parts_per_edge() {
        let (g, tree, parts) = setup2();
        let all = tree.tree_edge_ids();
        let sc = Shortcut::new(&parts, &tree, vec![all.clone(), all.clone()]).unwrap();
        let cong = sc.congestion_map(&g);
        for &e in &tree.tree_edge_ids() {
            assert_eq!(cong[e], 2);
        }
    }

    #[test]
    fn block_roots_are_shallowest() {
        let (g, tree, parts) = setup2();
        // Give part 1 (bottom row) a partial set: just its vertical
        // connecting edges into the tree.
        let hi: Vec<EdgeId> = parts
            .members(1)
            .iter()
            .filter_map(|&v| tree.parent_edge_of(v))
            .collect();
        let sc = Shortcut::new(&parts, &tree, vec![vec![], hi]).unwrap();
        for b in sc.blocks_of(&g, &tree, &parts, 1) {
            for &v in &b.nodes {
                assert!(tree.depth_of(b.root) <= tree.depth_of(v));
            }
        }
    }

    #[test]
    fn extend_part_dedups() {
        let (_, tree, parts) = setup2();
        let mut sc = Shortcut::empty(parts.num_parts());
        let e = tree.tree_edge_ids()[0];
        sc.extend_part(0, [e, e]);
        sc.extend_part(0, [e]);
        assert_eq!(sc.edges_of(0), &[e]);
    }
}
