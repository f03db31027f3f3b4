//! Rooted spanning trees and heavy-path decompositions.
//!
//! Tree-restricted shortcuts (Definition 2.2) live on a rooted BFS tree
//! `T`; [`RootedTree`] is the shared representation. The deterministic
//! shortcut construction (Algorithm 8) decomposes `T` into heavy paths
//! (Definition 6.5, after Sleator–Tarjan), provided here as
//! [`HeavyPathDecomposition`], built once per tree
//! ([`RootedTree::heavy_paths`]).

use std::cmp::Reverse;
use std::fmt;
use std::sync::OnceLock;

use crate::graph::{EdgeId, NodeId};

/// Errors when assembling a [`RootedTree`] from parent arrays.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TreeError {
    /// Parent array length differed from the edge array length.
    LengthMismatch,
    /// The root's parent entry was not `usize::MAX`.
    RootHasParent { root: NodeId },
    /// A non-root node had no parent.
    MissingParent { node: NodeId },
    /// Parent pointers contain a cycle (or a node unreachable from the root).
    NotATree,
}

impl fmt::Display for TreeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TreeError::LengthMismatch => write!(f, "parent and edge arrays differ in length"),
            TreeError::RootHasParent { root } => write!(f, "root {root} has a parent"),
            TreeError::MissingParent { node } => write!(f, "non-root node {node} has no parent"),
            TreeError::NotATree => write!(f, "parent pointers do not form a tree"),
        }
    }
}

impl std::error::Error for TreeError {}

/// A rooted spanning tree over nodes `0..n`, stored as parent pointers.
///
/// Each non-root node records its parent and the id of the graph edge to
/// that parent, so shortcut structures can talk about "tree edges" using
/// graph edge ids. Children lists and depths are precomputed; the
/// heavy-path decomposition is built on first use and kept.
///
/// # Example
/// ```rust
/// use rmo_graph::{gen, bfs_tree};
/// let g = gen::path(4);
/// let (t, _) = bfs_tree(&g, 0);
/// assert_eq!(t.parent_of(3), Some(2));
/// assert_eq!(t.depth_of(3), 3);
/// assert_eq!(t.depth(), 3);
/// assert_eq!(t.children_of(1), &[2]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RootedTree {
    root: NodeId,
    parent: Vec<NodeId>,
    parent_edge: Vec<EdgeId>,
    children: Vec<Vec<NodeId>>,
    depth: Vec<usize>,
    order: Vec<NodeId>,
    /// [`RootedTree::heavy_paths`], built on its first call.
    heavy_paths: Memo<HeavyPathDecomposition>,
}

/// A value computed on first use from the fields beside it, so equality
/// and `Debug` ignore it: two trees are equal whether or not either has
/// built it yet.
#[derive(Clone)]
struct Memo<T>(OnceLock<T>);

impl<T> PartialEq for Memo<T> {
    fn eq(&self, _: &Memo<T>) -> bool {
        true
    }
}

impl<T> Eq for Memo<T> {}

impl<T> fmt::Debug for Memo<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("..")
    }
}

impl RootedTree {
    /// Builds a tree from parent pointers.
    ///
    /// `parent[v]` must be `usize::MAX` exactly for `v == root`;
    /// `parent_edge[v]` is the graph edge id from `v` to `parent[v]`
    /// (ignored, and conventionally `usize::MAX`, at the root).
    ///
    /// # Errors
    /// Returns [`TreeError`] if the arrays are inconsistent or the pointers
    /// do not form a tree spanning all `n` nodes.
    pub fn from_parents(
        root: NodeId,
        parent: Vec<NodeId>,
        parent_edge: Vec<EdgeId>,
    ) -> Result<RootedTree, TreeError> {
        let n = parent.len();
        if parent_edge.len() != n {
            return Err(TreeError::LengthMismatch);
        }
        if parent[root] != usize::MAX {
            return Err(TreeError::RootHasParent { root });
        }
        for (v, &p) in parent.iter().enumerate() {
            if v != root && p == usize::MAX {
                return Err(TreeError::MissingParent { node: v });
            }
            if v != root && p >= n {
                return Err(TreeError::NotATree);
            }
        }
        let mut children = vec![Vec::new(); n];
        for (v, &p) in parent.iter().enumerate() {
            if v != root {
                children[p].push(v);
            }
        }
        // BFS from the root to compute depths and detect unreachable nodes
        // (which imply cycles among the remaining parent pointers).
        let mut depth = vec![usize::MAX; n];
        let mut order = Vec::with_capacity(n);
        depth[root] = 0;
        let mut queue = std::collections::VecDeque::from([root]);
        while let Some(u) = queue.pop_front() {
            order.push(u);
            for &c in &children[u] {
                depth[c] = depth[u] + 1;
                queue.push_back(c);
            }
        }
        if order.len() != n {
            return Err(TreeError::NotATree);
        }
        Ok(RootedTree {
            root,
            parent,
            parent_edge,
            children,
            depth,
            order,
            heavy_paths: Memo(OnceLock::new()),
        })
    }

    /// Number of nodes spanned.
    pub fn n(&self) -> usize {
        self.parent.len()
    }

    /// The root node.
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// Parent of `v`, or `None` at the root.
    pub fn parent_of(&self, v: NodeId) -> Option<NodeId> {
        if v == self.root {
            None
        } else {
            Some(self.parent[v])
        }
    }

    /// Graph edge id from `v` up to its parent, or `None` at the root.
    pub fn parent_edge_of(&self, v: NodeId) -> Option<EdgeId> {
        if v == self.root {
            None
        } else {
            Some(self.parent_edge[v])
        }
    }

    /// Children of `v`.
    pub fn children_of(&self, v: NodeId) -> &[NodeId] {
        &self.children[v]
    }

    /// Depth of `v` (root has depth 0).
    pub fn depth_of(&self, v: NodeId) -> usize {
        self.depth[v]
    }

    /// Depth of the tree: maximum node depth.
    pub fn depth(&self) -> usize {
        self.depth.iter().copied().max().unwrap_or(0)
    }

    /// Nodes in BFS order from the root (parents before children).
    pub fn top_down_order(&self) -> &[NodeId] {
        &self.order
    }

    /// The tree's heavy-path decomposition, with Algorithm 8's sweep
    /// order and path levels. It depends on the tree alone, so it is
    /// built on the first call and every later call returns the same
    /// one.
    pub fn heavy_paths(&self) -> &HeavyPathDecomposition {
        self.heavy_paths
            .0
            .get_or_init(|| HeavyPathDecomposition::new(self))
    }

    /// Subtree sizes (`sizes[v]` = number of nodes in the subtree at `v`).
    fn subtree_sizes(&self) -> Vec<usize> {
        let mut size = vec![1usize; self.n()];
        for &v in self.order.iter().rev() {
            let (Some(p), Some(&sv)) = (self.parent_of(v), size.get(v)) else {
                continue;
            };
            if let Some(sp) = size.get_mut(p) {
                *sp += sv;
            }
        }
        size
    }

    /// The set of tree edges as graph edge ids.
    pub fn tree_edge_ids(&self) -> Vec<EdgeId> {
        (0..self.n())
            .filter(|&v| v != self.root)
            .map(|v| self.parent_edge[v])
            .collect()
    }

    /// Walks up from `v` toward the root, yielding `v` first and the root last.
    fn path_to_root(&self, v: NodeId) -> Vec<NodeId> {
        let mut path = vec![v];
        let mut cur = v;
        while let Some(p) = self.parent_of(cur) {
            path.push(p);
            cur = p;
        }
        path
    }
}

/// A heavy-path decomposition of a [`RootedTree`] (Definition 6.5).
///
/// A tree edge `(parent u, child v)` is *heavy* when `v`'s subtree holds
/// more than half of `u`'s subtree; the heavy edges partition the tree into
/// vertex-disjoint root-ward paths. Any leaf-to-root path meets at most
/// `⌊log₂ n⌋` distinct heavy paths, which is what Algorithm 8's bottom-up
/// sweep exploits.
///
/// # Example
/// ```rust
/// use rmo_graph::{gen, bfs_tree, HeavyPathDecomposition};
/// let g = gen::path(8);
/// let (t, _) = bfs_tree(&g, 0);
/// let hpd = HeavyPathDecomposition::new(&t);
/// // A path decomposes into a single heavy path.
/// assert_eq!(hpd.path_count(), 1);
/// assert_eq!(hpd.path_nodes(0).len(), 8);
/// ```
#[derive(Debug, Clone)]
pub struct HeavyPathDecomposition {
    /// `path_of[v]` — index of the heavy path containing `v`.
    path_of: Vec<usize>,
    /// For each path, its nodes ordered from deepest (source) to shallowest
    /// (sink, the path's topmost node).
    paths: Vec<Vec<NodeId>>,
    /// Path ids, children before parents (see [`Self::sweep_order`]).
    sweep_order: Vec<usize>,
    /// `level[p]` — see [`Self::levels`].
    level: Vec<usize>,
}

impl HeavyPathDecomposition {
    /// Decomposes `tree` into heavy paths.
    ///
    /// Every node belongs to exactly one path (an isolated node forms a
    /// trivial length-0 path). Within a path, nodes are ordered bottom-up.
    ///
    /// [`RootedTree::heavy_paths`] builds one per tree and keeps it.
    pub fn new(tree: &RootedTree) -> HeavyPathDecomposition {
        let n = tree.n();
        let sizes = tree.subtree_sizes();
        let size = |v: NodeId| sizes.get(v).copied().unwrap_or(0);
        // heavy_child[u] = child v with 2·size[v] >= size[u], if any. (The
        // non-strict variant of Definition 6.5; at most one child can
        // satisfy it because the parent counts itself, and it keeps a bare
        // path a single heavy path. The log₂ n crossing bound is
        // unaffected.)
        let mut heavy_child = vec![usize::MAX; n];
        for (u, heavy) in heavy_child.iter_mut().enumerate() {
            for &v in tree.children_of(u) {
                if 2 * size(v) >= size(u) {
                    *heavy = v;
                }
            }
        }
        let heavy_of = |v: NodeId| heavy_child.get(v).copied().unwrap_or(usize::MAX);
        let mut path_of = vec![usize::MAX; n];
        let mut paths: Vec<Vec<NodeId>> = Vec::new();
        // A node heads a path iff it is not the heavy child of its parent.
        for &v in tree.top_down_order() {
            if tree.parent_of(v).is_some_and(|p| heavy_of(p) == v) {
                continue;
            }
            let id = paths.len();
            let mut chain = vec![v];
            let mut cur = v;
            while heavy_of(cur) != usize::MAX {
                cur = heavy_of(cur);
                chain.push(cur);
            }
            for &w in &chain {
                if let Some(slot) = path_of.get_mut(w) {
                    *slot = id;
                }
            }
            chain.reverse(); // deepest first
            paths.push(chain);
        }
        // Child-before-parent order: a child path's top is strictly
        // deeper than its parent path's top. The sort is stable, so
        // same-depth paths keep path-id order.
        let top_depth = |p: usize| {
            paths
                .get(p)
                .and_then(|chain| chain.last())
                .map_or(0, |&top| tree.depth_of(top))
        };
        let mut sweep_order: Vec<usize> = (0..paths.len()).collect();
        sweep_order.sort_by_key(|&p| Reverse(top_depth(p)));
        let mut level = vec![1usize; paths.len()];
        for &p in &sweep_order {
            let Some(parent) = paths
                .get(p)
                .and_then(|chain| chain.last())
                .and_then(|&top| tree.parent_of(top))
            else {
                continue;
            };
            let lp = level.get(p).copied().unwrap_or(0);
            if let Some(lq) = path_of.get(parent).and_then(|&q| level.get_mut(q)) {
                *lq = (*lq).max(lp + 1);
            }
        }
        HeavyPathDecomposition {
            path_of,
            paths,
            sweep_order,
            level,
        }
    }

    /// Number of heavy paths.
    pub fn path_count(&self) -> usize {
        self.paths.len()
    }

    /// Heavy-path index of node `v`.
    pub fn path_of(&self, v: NodeId) -> usize {
        self.path_of[v]
    }

    /// Nodes of path `p`, ordered from deepest to shallowest.
    pub fn path_nodes(&self, p: usize) -> &[NodeId] {
        &self.paths[p]
    }

    /// The topmost (shallowest) node of path `p` — its "sink" in
    /// Algorithm 8's bottom-up sweep.
    pub fn path_top(&self, p: usize) -> NodeId {
        *self.paths[p].last().expect("paths are non-empty")
    }

    /// Path ids in the order Algorithm 8's bottom-up sweep visits them:
    /// by descending depth of the path's top node, so every path comes
    /// before the path its top hangs from; same-depth paths in path-id
    /// order.
    pub fn sweep_order(&self) -> &[usize] {
        &self.sweep_order
    }

    /// Level of each path, indexed by path id: 1 for a path nothing
    /// hangs from, else one more than the highest level of the paths
    /// hanging from it. Paths of one level are disjoint, so a sweep runs
    /// them in parallel.
    pub fn levels(&self) -> &[usize] {
        &self.level
    }

    /// Number of distinct heavy paths intersected by the root-ward path
    /// from `v` (used to validate the `⌊log₂ n⌋` bound in tests).
    pub fn paths_on_root_walk(&self, tree: &RootedTree, v: NodeId) -> usize {
        let mut count = 0;
        let mut last = usize::MAX;
        for u in tree.path_to_root(v) {
            if self.path_of[u] != last {
                count += 1;
                last = self.path_of[u];
            }
        }
        count
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bfs::bfs_tree;
    use crate::gen;

    #[test]
    fn from_parents_validates() {
        // 0 <- 1 <- 2
        let t =
            RootedTree::from_parents(0, vec![usize::MAX, 0, 1], vec![usize::MAX, 0, 1]).unwrap();
        assert_eq!(t.depth(), 2);
        assert_eq!(t.path_to_root(2), vec![2, 1, 0]);
        assert_eq!(t.tree_edge_ids(), vec![0, 1]);
    }

    #[test]
    fn rejects_cycle() {
        let err = RootedTree::from_parents(0, vec![usize::MAX, 2, 1], vec![usize::MAX, 0, 1])
            .unwrap_err();
        assert_eq!(err, TreeError::NotATree);
    }

    #[test]
    fn rejects_root_with_parent() {
        let err = RootedTree::from_parents(0, vec![1, 0], vec![0, 0]).unwrap_err();
        assert_eq!(err, TreeError::RootHasParent { root: 0 });
    }

    #[test]
    fn rejects_missing_parent() {
        let err = RootedTree::from_parents(
            0,
            vec![usize::MAX, usize::MAX],
            vec![usize::MAX, usize::MAX],
        )
        .unwrap_err();
        assert_eq!(err, TreeError::MissingParent { node: 1 });
    }

    #[test]
    fn subtree_sizes_on_star() {
        let g = gen::star(5);
        let (t, _) = bfs_tree(&g, 0);
        let sizes = t.subtree_sizes();
        assert_eq!(sizes, [5, 1, 1, 1, 1]);
    }

    #[test]
    fn hpd_on_balanced_tree_respects_log_bound() {
        let g = gen::balanced_binary_tree(6); // 63 nodes
        let (t, _) = bfs_tree(&g, 0);
        let hpd = HeavyPathDecomposition::new(&t);
        let log2n = t.n().ilog2() as usize;
        for v in 0..t.n() {
            assert!(
                hpd.paths_on_root_walk(&t, v) <= log2n + 1,
                "node {v} crosses too many heavy paths"
            );
        }
    }

    #[test]
    fn hpd_partitions_nodes() {
        let g = gen::grid(5, 5);
        let (t, _) = bfs_tree(&g, 0);
        let hpd = HeavyPathDecomposition::new(&t);
        let mut seen = vec![false; t.n()];
        for p in 0..hpd.path_count() {
            for &v in hpd.path_nodes(p) {
                assert!(!seen[v], "node {v} in two paths");
                seen[v] = true;
                assert_eq!(hpd.path_of(v), p);
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn hpd_paths_are_bottom_up_chains() {
        let g = gen::grid(4, 9);
        let (t, _) = bfs_tree(&g, 0);
        let hpd = HeavyPathDecomposition::new(&t);
        for p in 0..hpd.path_count() {
            let nodes = hpd.path_nodes(p);
            for w in nodes.windows(2) {
                assert_eq!(t.parent_of(w[0]), Some(w[1]), "path must walk rootward");
            }
        }
    }

    #[test]
    fn path_top_is_shallowest() {
        let g = gen::balanced_binary_tree(4);
        let (t, _) = bfs_tree(&g, 0);
        let hpd = HeavyPathDecomposition::new(&t);
        for p in 0..hpd.path_count() {
            let top = hpd.path_top(p);
            for &v in hpd.path_nodes(p) {
                assert!(t.depth_of(top) <= t.depth_of(v));
            }
        }
    }
}
