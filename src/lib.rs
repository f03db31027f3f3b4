//! # rmo — Round- and Message-Optimal Distributed Graph Algorithms
//!
//! A Rust reproduction of Haeupler, Hershkowitz and Wajc,
//! *"Round- and Message-Optimal Distributed Graph Algorithms"* (PODC 2018).
//!
//! This facade crate re-exports the full workspace:
//!
//! * [`graph`] — graph representation, generators and sequential reference
//!   algorithms (Kruskal, Dijkstra, Stoer–Wagner, heavy-path decomposition).
//! * [`congest`] — a synchronous CONGEST-model network simulator with exact
//!   round and message accounting.
//! * [`shortcut`] — tree-restricted low-congestion shortcuts: quality
//!   measures, verification, and the paper's randomized (Algorithm 4) and
//!   deterministic (Algorithms 7–8) constructions.
//! * [`core`] — the paper's primary contribution: Part-Wise Aggregation
//!   (Algorithm 1), sub-part divisions (Algorithms 3 and 6), star joinings
//!   (Algorithm 5), `BlockRoute` (Lemma 4.2) and leaderless PA
//!   (Algorithm 9).
//! * [`apps`] — applications: MST, approximate min-cut, approximate SSSP,
//!   connected components, graph verification, k-dominating sets and
//!   connected dominating sets.
//!
//! ## Quickstart
//!
//! One [`core::PaEngine`] session per graph: leader election and the BFS
//! tree run once, and pipeline artifacts are cached per partition, so
//! every further PA call — or application built from PA calls — is
//! charged only its incremental cost:
//!
//! ```rust
//! use rmo::graph::gen;
//! use rmo::core::{Aggregate, EngineConfig, PaEngine};
//!
//! // A 16x16 grid, partitioned into its rows (part id per node).
//! let g = gen::grid(16, 16);
//! let parts = gen::grid_row_partition(16, 16);
//! let values: Vec<u64> = (0..g.n() as u64).collect();
//!
//! let mut engine = PaEngine::new(&g, EngineConfig::new());
//! let result = engine.solve(&parts, &values, Aggregate::Min).unwrap();
//! // Every node of every part now knows its part's minimum value.
//! for v in 0..g.n() {
//!     assert_eq!(result.value_at(v), (v / 16 * 16) as u64);
//! }
//! // Same partition again: served from the artifact cache, waves only.
//! let again = engine.solve(&parts, &values, Aggregate::Min).unwrap();
//! assert!(again.cost.rounds < result.cost.rounds);
//! ```
//!
//! The engine is the only way to run PA or an application: a one-shot
//! call is a fresh engine used once, and [`core::EngineConfig`] is the
//! one configuration type.

#![forbid(unsafe_code)]

pub use rmo_apps as apps;
pub use rmo_congest as congest;
pub use rmo_core as core;
pub use rmo_graph as graph;
pub use rmo_shortcut as shortcut;
