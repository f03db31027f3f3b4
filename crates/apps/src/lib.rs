//! Applications of round- and message-optimal Part-Wise Aggregation.
//!
//! Every module implements one of the paper's corollaries by plugging the
//! PA algorithm (`rmo-core`) into a known reduction, and measures the
//! composed round/message cost:
//!
//! * [`mst`] — MST via Borůvka over PA (Corollary 1.3).
//! * [`mincut`] — `(1+ε)`-approximate min-cut via sampled spanning trees
//!   (Corollary 1.4, after Ghaffari–Haeupler and Karger).
//! * [`sssp`] — approximate SSSP via low-diameter decompositions
//!   (Corollary 1.5, after Haeupler–Li and Miller–Peng–Xu).
//! * [`components`] — Thurimella's connected-component labeling as one PA
//!   call (the engine of the verification suite).
//! * [`verify`] — the Das Sarma et al. graph verification problems
//!   (Corollary A.1): connectivity, spanning tree, cut, bipartiteness.
//! * [`kdom`] — `k`-dominating sets of size `≤ 6n/k` (Corollary A.3).
//! * [`eccentricity`] — additive-`2k` eccentricity/radius/diameter
//!   estimation on top of k-domination (the Holzer–Wattenhofer
//!   application the paper cites).
//! * [`cds`] — `O(log n)`-approximate minimum-weight connected dominating
//!   set (Corollary A.2).
//!
//! Every application runs on a caller-held [`rmo_core::PaEngine`], so a
//! whole workload on one graph — say an MST build followed by its
//! verification and a batch of aggregations — pays for leader election
//! and the BFS tree once and shares cached pipeline artifacts. A
//! one-shot call passes a fresh engine:
//! `pa_mst(&mut PaEngine::new(&g, EngineConfig::new()))`.
//!
//! Three further modules turn the eight applications into a service:
//!
//! * [`dispatch`] — the unified [`Query`] / [`QueryResponse`]
//!   vocabulary and the single [`run_query`] entry point over every
//!   app, with typed [`dispatch::FailReason`]s.
//! * [`service`] — [`PaCluster`]: a sharded worker pool serving mixed
//!   query traffic over many graphs concurrently, with warm per-graph
//!   engines and a deterministic load-balancing scheduler (LPT
//!   placement by estimated work, plus replayable work stealing).
//! * [`stream`] — [`StreamGateway`]: the streaming front-end over the
//!   cluster — logical arrival ticks, adaptive batching (size or
//!   deadline), typed admission-control rejections, per-query response
//!   streaming, and an [`stream::ArrivalLog`] that replays a recorded
//!   run bit-for-bit.

#![forbid(unsafe_code)]

pub mod cds;
pub mod certificate;
pub mod components;
// The serving path (dispatch + service) finished its de-unwrap sweep;
// clippy keeps it that way at compile time, and the rmo-lint P1 ratchet
// (budget 0 for both files) keeps it that way across refactors. The
// `not(test)` guard frees the in-file `#[cfg(test)]` suites, which are
// entitled to unwrap.
#[cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
pub mod dispatch;
pub mod eccentricity;
pub mod kdom;
pub mod mincut;
pub mod mst;
#[cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
pub mod service;
pub mod sssp;
#[cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
pub mod stream;
pub mod verify;

pub use components::{component_labels, ComponentLabels};
pub use dispatch::{run_query, FailReason, Query, QueryResponse, VerifyCheck};
pub use mincut::{approx_min_cut, MinCutConfig, MinCutResult};
pub use mst::{pa_mst, PaMstResult};
pub use service::{
    colliding_graph_ids, mixed_workload, zipf_workload, ClusterStats, GraphId, PaCluster,
    SchedulePolicy, ServeLog, ServeReport, StealEvent,
};
pub use sssp::{approx_sssp, SsspConfig, SsspResult};
pub use stream::{
    mixed_arrivals, stamp_arrivals, zipf_arrivals, Arrival, ArrivalLog, RejectReason,
    ReplayMismatch, StreamConfig, StreamEvent, StreamGateway, StreamReport,
};
