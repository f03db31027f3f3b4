//! Graph substrate for the `rmo` workspace.
//!
//! This crate provides everything the distributed algorithms need from the
//! *sequential* world:
//!
//! * [`Graph`] — a compact undirected weighted graph with stable edge ids.
//! * [`RootedTree`] — rooted spanning trees (parent arrays), plus
//!   heavy-path decompositions ([`HeavyPathDecomposition`], used by the
//!   paper's deterministic shortcut construction, Algorithm 8).
//! * Traversals and metrics: [`bfs`], diameters, connectivity.
//! * [`Partition`] — vertex partitions into connected parts, the input
//!   shape of Part-Wise Aggregation (Definition 1.1 of the paper).
//! * Reference (centralized) solvers used as ground truth in tests and
//!   benchmarks: Kruskal MST ([`reference::kruskal`]), Dijkstra
//!   ([`reference::dijkstra`]), Stoer–Wagner min-cut
//!   ([`reference::stoer_wagner`]).
//! * [`gen`] — generators for every graph family the paper's Tables 1–2
//!   discuss (grids/planar, k-trees/treewidth, k-paths/pathwidth, random
//!   graphs) and the adversarial instances of Figure 2.
//!
//! # Example
//!
//! ```rust
//! use rmo_graph::{gen, reference};
//!
//! let g = gen::grid(8, 8);
//! assert_eq!(g.n(), 64);
//! let (tree, _) = rmo_graph::bfs::bfs_tree(&g, 0);
//! assert_eq!(tree.root(), 0);
//! let mst = reference::kruskal(&g);
//! assert_eq!(mst.edges.len(), g.n() - 1);
//! ```

#![forbid(unsafe_code)]

pub mod bfs;
pub mod biconnectivity;
pub mod dsu;
pub mod gen;
pub mod graph;
pub mod num;
pub mod partition;
pub mod reference;
pub mod tree;

pub use crate::graph::{EdgeId, Graph, GraphBuilder, GraphError, NodeId};
pub use bfs::{
    bfs_distances, bfs_tree, diameter_exact, farthest_source_distances,
    two_sweep_diameter_lower_bound,
};
pub use biconnectivity::{biconnected_components, is_two_edge_connected, Biconnectivity};
pub use dsu::DisjointSets;
pub use partition::{Partition, PartitionError};
pub use tree::{HeavyPathDecomposition, RootedTree, TreeError};
