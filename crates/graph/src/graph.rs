//! Compact undirected weighted graph with stable edge identifiers.
//!
//! The CONGEST simulator, the shortcut machinery and the reference solvers
//! all share this one representation. Nodes are dense indices `0..n`
//! ([`NodeId`]); edges are dense indices `0..m` ([`EdgeId`]) in insertion
//! order, each carrying a `u64` weight (weights default to 1 for
//! unweighted uses). Parallel edges and self-loops are rejected: the
//! paper's model is a simple graph.

use std::collections::HashSet;
use std::fmt;

/// Dense node identifier, `0..n`.
pub type NodeId = usize;
/// Dense edge identifier, `0..m`, in insertion order.
pub type EdgeId = usize;

/// Errors produced while building or validating a [`Graph`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    /// An endpoint was `>= n`.
    NodeOutOfRange { node: NodeId, n: usize },
    /// A self-loop `(u, u)` was added.
    SelfLoop { node: NodeId },
    /// The same undirected edge was added twice.
    DuplicateEdge { u: NodeId, v: NodeId },
    /// An operation required a connected graph but the graph was not.
    Disconnected,
    /// An edge weight of zero was supplied (weights must be in `[1, poly(n)]`).
    ZeroWeight { u: NodeId, v: NodeId },
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::NodeOutOfRange { node, n } => {
                write!(f, "node {node} out of range for graph with {n} nodes")
            }
            GraphError::SelfLoop { node } => write!(f, "self-loop at node {node}"),
            GraphError::DuplicateEdge { u, v } => write!(f, "duplicate edge ({u}, {v})"),
            GraphError::Disconnected => write!(f, "graph is not connected"),
            GraphError::ZeroWeight { u, v } => write!(f, "zero weight on edge ({u}, {v})"),
        }
    }
}

impl std::error::Error for GraphError {}

/// An undirected, weighted, simple graph.
///
/// Construct via [`GraphBuilder`] or the convenience constructor
/// [`Graph::from_edges`]. Adjacency is stored as, for each node, a list of
/// `(neighbor, edge_id)` pairs, so algorithms can address "the message I
/// received over edge e" the way CONGEST algorithms do.
///
/// # Example
/// ```rust
/// use rmo_graph::Graph;
/// let g = Graph::from_edges(3, &[(0, 1, 5), (1, 2, 7)]).unwrap();
/// assert_eq!(g.n(), 3);
/// assert_eq!(g.m(), 2);
/// assert_eq!(g.weight(0), 5);
/// assert_eq!(g.degree(1), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Graph {
    n: usize,
    edges: Vec<(NodeId, NodeId, u64)>,
    adj: Vec<Vec<(NodeId, EdgeId)>>,
}

impl Graph {
    /// Builds a graph with `n` nodes from `(u, v, weight)` triples.
    ///
    /// # Errors
    /// Returns [`GraphError`] on out-of-range endpoints, self-loops,
    /// duplicate edges or zero weights.
    pub fn from_edges(n: usize, edges: &[(NodeId, NodeId, u64)]) -> Result<Graph, GraphError> {
        let mut b = GraphBuilder::new(n);
        for &(u, v, w) in edges {
            b.add_edge(u, v, w)?;
        }
        Ok(b.build())
    }

    /// Builds an unweighted graph (all weights 1) from `(u, v)` pairs.
    ///
    /// # Errors
    /// Same conditions as [`Graph::from_edges`].
    pub fn from_unweighted_edges(
        n: usize,
        edges: &[(NodeId, NodeId)],
    ) -> Result<Graph, GraphError> {
        let weighted: Vec<(NodeId, NodeId, u64)> = edges.iter().map(|&(u, v)| (u, v, 1)).collect();
        Graph::from_edges(n, &weighted)
    }

    /// Number of nodes.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of edges.
    pub fn m(&self) -> usize {
        self.edges.len()
    }

    /// Endpoints of edge `e` as stored (insertion order).
    ///
    /// # Panics
    /// Panics if `e >= m`.
    pub fn endpoints(&self, e: EdgeId) -> (NodeId, NodeId) {
        let (u, v, _) = self.edges[e];
        (u, v)
    }

    /// Weight of edge `e`.
    ///
    /// # Panics
    /// Panics if `e >= m`.
    pub fn weight(&self, e: EdgeId) -> u64 {
        self.edges[e].2
    }

    /// Degree of node `v`.
    pub fn degree(&self, v: NodeId) -> usize {
        self.adj[v].len()
    }

    /// Iterator over `(neighbor, edge_id)` pairs of `v`.
    pub fn neighbors(&self, v: NodeId) -> impl Iterator<Item = (NodeId, EdgeId)> + '_ {
        // rmo-lint: allow(R1) — `v` is a node of this graph: callers pass `0..n` or ids read from its own edges, as for `degree`.
        self.adj[v].iter().copied()
    }

    /// Iterator over all edges as `(edge_id, u, v, weight)`.
    pub fn edges(&self) -> impl Iterator<Item = (EdgeId, NodeId, NodeId, u64)> + '_ {
        self.edges
            .iter()
            .enumerate()
            .map(|(e, &(u, v, w))| (e, u, v, w))
    }

    /// The edge id joining `u` and `v`, if one exists.
    pub fn edge_between(&self, u: NodeId, v: NodeId) -> Option<EdgeId> {
        self.adj[u].iter().find(|&&(w, _)| w == v).map(|&(_, e)| e)
    }

    /// Whether the graph is connected (the empty graph counts as connected).
    pub fn is_connected(&self) -> bool {
        if self.n == 0 {
            return true;
        }
        let mut seen = vec![false; self.n];
        let mut stack = vec![0];
        seen[0] = true;
        let mut count = 1;
        while let Some(u) = stack.pop() {
            for (v, _) in self.neighbors(u) {
                if !seen[v] {
                    seen[v] = true;
                    count += 1;
                    stack.push(v);
                }
            }
        }
        count == self.n
    }

    /// Returns a copy of the graph with all weights replaced by `f(edge_id, weight)`.
    ///
    /// Useful for the min-cut sampling reductions which repeatedly re-weight.
    ///
    /// # Panics
    /// Panics if `f` returns 0 for some edge.
    pub fn reweighted(&self, mut f: impl FnMut(EdgeId, u64) -> u64) -> Graph {
        let mut g = self.clone();
        for (e, edge) in g.edges.iter_mut().enumerate() {
            edge.2 = f(e, edge.2);
            // rmo-lint: allow(R1) — documented precondition; the serving path's only reweighting (min-cut's perturbation) maps every weight to at least 1.
            assert!(edge.2 > 0, "reweighted edge {e} to zero");
        }
        g
    }

    /// Returns the subgraph induced by keeping only edges with `keep[e]`,
    /// preserving node ids. Edge ids are re-assigned densely; the mapping
    /// from new edge id to old edge id is returned alongside.
    pub fn edge_subgraph(&self, keep: &[bool]) -> (Graph, Vec<EdgeId>) {
        assert_eq!(keep.len(), self.m());
        let mut b = GraphBuilder::new(self.n);
        let mut map = Vec::new();
        for (e, u, v, w) in self.edges() {
            if keep[e] {
                b.add_edge(u, v, w)
                    .expect("subgraph of a valid graph is valid");
                map.push(e);
            }
        }
        (b.build(), map)
    }
}

/// Incremental builder for [`Graph`].
///
/// # Example
/// ```rust
/// use rmo_graph::GraphBuilder;
/// let mut b = GraphBuilder::new(4);
/// b.add_edge(0, 1, 1).unwrap();
/// b.add_edge(1, 2, 2).unwrap();
/// b.add_edge(2, 3, 3).unwrap();
/// let g = b.build();
/// assert_eq!(g.m(), 3);
/// ```
#[derive(Debug, Clone)]
pub struct GraphBuilder {
    n: usize,
    edges: Vec<(NodeId, NodeId, u64)>,
    seen: HashSet<(NodeId, NodeId)>,
}

impl GraphBuilder {
    /// Creates a builder for a graph on `n` nodes and no edges.
    pub fn new(n: usize) -> GraphBuilder {
        GraphBuilder {
            n,
            edges: Vec::new(),
            seen: HashSet::new(),
        }
    }

    /// Adds the undirected edge `(u, v)` with the given weight.
    ///
    /// # Errors
    /// Rejects out-of-range endpoints, self-loops, duplicates and zero
    /// weights.
    pub fn add_edge(&mut self, u: NodeId, v: NodeId, weight: u64) -> Result<EdgeId, GraphError> {
        if u >= self.n {
            return Err(GraphError::NodeOutOfRange { node: u, n: self.n });
        }
        if v >= self.n {
            return Err(GraphError::NodeOutOfRange { node: v, n: self.n });
        }
        if u == v {
            return Err(GraphError::SelfLoop { node: u });
        }
        if weight == 0 {
            return Err(GraphError::ZeroWeight { u, v });
        }
        let key = (u.min(v), u.max(v));
        if !self.seen.insert(key) {
            return Err(GraphError::DuplicateEdge { u, v });
        }
        let id = self.edges.len();
        self.edges.push((u, v, weight));
        Ok(id)
    }

    /// Whether the undirected edge `(u, v)` has already been added.
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.seen.contains(&(u.min(v), u.max(v)))
    }

    /// Number of edges added so far.
    pub fn m(&self) -> usize {
        self.edges.len()
    }

    /// Finalizes the builder into a [`Graph`].
    pub fn build(self) -> Graph {
        let mut adj = vec![Vec::new(); self.n];
        for (e, &(u, v, _)) in self.edges.iter().enumerate() {
            adj[u].push((v, e));
            adj[v].push((u, e));
        }
        Graph {
            n: self.n,
            edges: self.edges,
            adj,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_and_query() {
        let g = Graph::from_edges(4, &[(0, 1, 2), (1, 2, 3), (2, 3, 4), (3, 0, 5)]).unwrap();
        assert_eq!(g.n(), 4);
        assert_eq!(g.m(), 4);
        assert_eq!(g.endpoints(1), (1, 2));
        assert_eq!(g.weight(3), 5);
        assert_eq!(g.degree(0), 2);
        assert!(g.is_connected());
        assert_eq!(g.edges().map(|(_, _, _, w)| w).sum::<u64>(), 14);
    }

    #[test]
    fn rejects_self_loop() {
        assert_eq!(
            Graph::from_edges(2, &[(1, 1, 1)]).unwrap_err(),
            GraphError::SelfLoop { node: 1 }
        );
    }

    #[test]
    fn rejects_duplicate_even_reversed() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1, 1).unwrap();
        assert_eq!(
            b.add_edge(1, 0, 9).unwrap_err(),
            GraphError::DuplicateEdge { u: 1, v: 0 }
        );
    }

    #[test]
    fn rejects_out_of_range() {
        assert_eq!(
            Graph::from_edges(2, &[(0, 5, 1)]).unwrap_err(),
            GraphError::NodeOutOfRange { node: 5, n: 2 }
        );
    }

    #[test]
    fn rejects_zero_weight() {
        assert_eq!(
            Graph::from_edges(2, &[(0, 1, 0)]).unwrap_err(),
            GraphError::ZeroWeight { u: 0, v: 1 }
        );
    }

    #[test]
    fn disconnected_detected() {
        let g = Graph::from_edges(4, &[(0, 1, 1), (2, 3, 1)]).unwrap();
        assert!(!g.is_connected());
    }

    #[test]
    fn empty_graph_is_connected() {
        let g = Graph::from_edges(0, &[]).unwrap();
        assert!(g.is_connected());
        assert_eq!(g.n(), 0);
    }

    #[test]
    fn single_node_is_connected() {
        let g = Graph::from_edges(1, &[]).unwrap();
        assert!(g.is_connected());
    }

    #[test]
    fn edge_between_finds_edge() {
        let g = Graph::from_edges(3, &[(0, 1, 1), (1, 2, 1)]).unwrap();
        assert_eq!(g.edge_between(0, 1), Some(0));
        assert_eq!(g.edge_between(1, 0), Some(0));
        assert_eq!(g.edge_between(0, 2), None);
    }

    #[test]
    fn edge_subgraph_keeps_mapping() {
        let g = Graph::from_edges(4, &[(0, 1, 1), (1, 2, 2), (2, 3, 3)]).unwrap();
        let (sub, map) = g.edge_subgraph(&[true, false, true]);
        assert_eq!(sub.m(), 2);
        assert_eq!(map, vec![0, 2]);
        assert_eq!(sub.weight(1), 3);
        assert_eq!(sub.endpoints(1), (2, 3));
    }

    #[test]
    fn reweighted_changes_weights() {
        let g = Graph::from_edges(3, &[(0, 1, 2), (1, 2, 4)]).unwrap();
        let g2 = g.reweighted(|_, w| w * 10);
        assert_eq!(g2.weight(0), 20);
        assert_eq!(g2.weight(1), 40);
        assert_eq!(g.weight(0), 2, "original untouched");
    }
}
