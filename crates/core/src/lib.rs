//! Part-Wise Aggregation (PA) — the paper's primary contribution.
//!
//! PA (Definition 1.1): given a graph `G`, a partition of `V` into
//! connected parts, an `O(log n)`-bit value per node and a commutative
//! associative function `f`, make every node of every part learn the
//! part's aggregate. Theorem 1.2 solves PA in `Õ(bD + c)` rounds
//! (randomized) or `Õ(b(D + c))` rounds (deterministic) with `Õ(m)`
//! messages, where `(b, c)` are the block parameter and congestion of a
//! tree-restricted shortcut.
//!
//! Module map (paper algorithm → module):
//!
//! | Paper | Module |
//! |---|---|
//! | Algorithm 1 (PA given shortcut + division) | [`solve`] |
//! | Algorithm 2 (block-parameter verification) | [`verify_block`] |
//! | Algorithm 3 (randomized sub-part division) | [`subparts_random`] |
//! | Algorithm 5 (deterministic star joining, Cole–Vishkin) | [`star_join`], [`cole_vishkin`] |
//! | Algorithm 6 (deterministic sub-part division) | [`subparts_det`] |
//! | Algorithm 9 (leaderless PA) | [`leaderless`] |
//! | Section 3.1 baselines | [`baseline`] |
//! | Pipeline stages (Theorem 1.2) | [`pipeline`] |
//! | Session engine (cached pipelines) | [`engine`] |
//!
//! # Quickstart
//!
//! Construct a [`PaEngine`] once per graph; it runs leader election and
//! BFS exactly once and memoizes the partition-specific pipeline stages
//! (leaders, sub-part division, shortcut) across solves, so repeated
//! aggregations — Borůvka phases, min-cut sketches, verification suites —
//! only pay for the waves themselves:
//!
//! ```rust
//! use rmo_graph::gen;
//! use rmo_core::{Aggregate, EngineConfig, PaEngine};
//!
//! let g = gen::grid(8, 8);
//! // Part id per node; the engine validates it on the first solve.
//! let parts = gen::grid_row_partition(8, 8);
//! let values: Vec<u64> = (0..g.n() as u64).collect();
//!
//! let mut engine = PaEngine::new(&g, EngineConfig::new());
//! let result = engine.solve(&parts, &values, Aggregate::Min).unwrap();
//! for v in 0..g.n() {
//!     assert_eq!(result.value_at(v), (v / 8 * 8) as u64);
//! }
//! // A second call on the same partition hits the artifact cache:
//! let again = engine.solve(&parts, &values, Aggregate::Min).unwrap();
//! assert!(again.cost.rounds < result.cost.rounds);
//! assert_eq!(engine.stats().hits, 1);
//! ```
//!
//! [`EngineConfig`] is the one configuration type: its builder spans the
//! whole ablation grid (variant × shortcut × division). A one-shot solve
//! is a fresh engine used once. Below the engine, the value-blind stages
//! ([`build_artifacts`], Algorithm 2, the phase-A wave) take the graph
//! and the partition; only Algorithm 1's phases B and C ([`solve_with`],
//! [`solve_on`]), which fold the values along phase A's delivery record,
//! take a value-carrying [`PaInstance`].

#![forbid(unsafe_code)]

pub mod aggregate;
pub mod baseline;
pub mod cole_vishkin;
pub mod engine;
pub mod instance;
pub mod leaderless;
pub mod pipeline;
pub mod solve;
pub mod star_join;
pub mod subparts;
pub mod subparts_det;
pub mod subparts_random;
pub mod verify_block;

pub use aggregate::Aggregate;
pub use engine::{
    partition_fingerprint, word_fingerprint, DivisionStrategy, EngineConfig, EngineCore,
    EngineStats, PaEngine,
};
pub use instance::{PaError, PaInstance};
pub use pipeline::{build_artifacts, PipelineArtifacts, ShortcutStrategy};
pub use solve::{solve_on, solve_with, PaResult, PaSetup, SolveScratch, Variant, WavePlan};
pub use subparts::SubPartDivision;
