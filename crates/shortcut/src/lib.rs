//! Tree-restricted low-congestion shortcuts (Definitions 2.1–2.3 of the
//! paper) and their constructions.
//!
//! A shortcut assigns to each part `Pᵢ` of a partition a set `Hᵢ` of
//! edges of a rooted spanning tree `T` (here: a BFS tree). Quality is
//! measured by
//!
//! * **congestion** `c` — the maximum number of parts using any one tree
//!   edge, and
//! * **block parameter** `b` — the maximum, over parts, of the number of
//!   connected components ("blocks") of `(Pᵢ ∪ V(Hᵢ), Hᵢ)`.
//!
//! This crate provides:
//!
//! * [`Shortcut`] — the data model, with block extraction
//!   ([`Shortcut::blocks_of`]) used by `BlockRoute`, and
//!   [`BlockCounter`], which counts blocks without building them;
//! * [`quality`] — exact congestion / block-parameter / dilation
//!   computation and structural validation;
//! * [`trivial`] — the universal `b = 1, c = √n` fallback every graph
//!   admits (Section 1.3);
//! * [`corefast`] — the randomized iterated claim-and-verify construction
//!   (Algorithm 4, after the CoreFast routine of Haeupler–Izumi–Zuzic);
//! * [`alg7`] — the deterministic doubling construction on paths
//!   (Algorithm 7, Lemma 6.6);
//! * [`alg8`] — the deterministic construction on general trees via
//!   heavy-path decomposition (Algorithm 8, Lemma 6.7).
//!
//! The constructions take explicit budgets. The Section 1.3 doubling
//! trick that finds them lives in one place, the engine's pipeline
//! (`rmo_core::pipeline::build_artifacts`); `PaEngine::pipeline_for`
//! returns the shortcut it settles on, which is what Table 1 and the
//! `shortcut_explorer` example report.
//!
//! # Example
//!
//! ```rust
//! use rmo_graph::{gen, bfs_tree, Partition};
//! use rmo_shortcut::{trivial, quality};
//!
//! let g = gen::grid(8, 8);
//! let parts = Partition::new(&g, gen::grid_row_partition(8, 8)).unwrap();
//! let (tree, _) = bfs_tree(&g, 0);
//! let sc = trivial::trivial_shortcut(&g, &tree, &parts);
//! let q = quality::measure(&g, &parts, &sc);
//! assert_eq!(q.block_parameter, 1);
//! ```

#![forbid(unsafe_code)]

pub mod alg7;
pub mod alg8;
pub mod corefast;
pub mod model;
pub mod quality;
pub mod trivial;

pub use alg7::{construct_on_path, PathConstructionResult};
pub use alg8::{construct_deterministic, DetConstructionResult};
pub use corefast::{construct_randomized, RandConstructionResult};
pub use model::{Block, BlockCounter, Shortcut, ShortcutError};
pub use quality::{measure, Quality};
pub use trivial::trivial_shortcut;
