//! The unified query surface over every application.
//!
//! Each app module exposes one entry point that runs on a [`PaEngine`];
//! serving layers want a single dispatch instead of eight ad-hoc call
//! sites. [`Query`]
//! names one request against one graph, [`run_query`] executes it on a
//! caller-held [`PaEngine`] session, and [`QueryResponse`] carries the
//! typed result (every variant reports its measured [`CostReport`]).
//!
//! This is the vocabulary [`crate::service::PaCluster`] routes: a shard
//! worker pops `(graph, Query)` jobs off its queue and feeds them through
//! [`run_query`] on the graph's warm engine. The dispatch itself is
//! deliberately dumb — no scheduling, no caching policy — so it is also
//! the natural entry point for one-off callers that already hold an
//! engine.

use std::fmt;

use rmo_congest::CostReport;
use rmo_graph::{EdgeId, NodeId};

use rmo_core::{partition_fingerprint, Aggregate, PaEngine, PaError};

use crate::cds::{approx_mwcds, CdsResult};
use crate::components::{component_labels, ComponentLabels};
use crate::eccentricity::{approx_eccentricities, EccentricityResult};
use crate::kdom::{k_dominating_set, KDomResult};
use crate::mincut::{approx_min_cut, MinCutConfig, MinCutResult};
use crate::mst::{pa_mst, PaMstResult};
use crate::sssp::{approx_sssp, SsspConfig, SsspResult};
use crate::verify::{
    verify_bipartite, verify_connected_spanning, verify_cut, verify_forest, verify_mst,
    verify_spanning_tree, verify_two_edge_connected, Verdict,
};

/// Which verification predicate a [`Query::Verify`] checks (the
/// Corollary A.1 suite; every check takes the subgraph `H` as an edge
/// list except `TwoEdgeConnected`, which inspects the network itself).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VerifyCheck {
    /// `H` is connected and spans `V`.
    ConnectedSpanning,
    /// `H` is a spanning tree.
    SpanningTree,
    /// Removing `H` disconnects the graph.
    Cut,
    /// `H` is bipartite.
    Bipartite,
    /// `H` is acyclic.
    Forest,
    /// `H` is a minimum spanning tree.
    Mst,
    /// The network itself is 2-edge-connected (`H` is ignored).
    TwoEdgeConnected,
}

/// One request against one graph — the vocabulary the serving layer
/// routes and batches.
///
/// Queries carry *values*, not borrows, so they can cross shard-thread
/// channels; [`run_query`] validates them against the engine's graph
/// (e.g. a `Pa` assignment of the wrong length is a [`QueryResponse::Failed`],
/// not a panic).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Query {
    /// One Part-Wise Aggregation solve (Definition 1.1).
    Pa {
        /// Part id per node (each part connected).
        assignment: Vec<usize>,
        /// One value per node.
        values: Vec<u64>,
        /// The commutative-associative fold.
        agg: Aggregate,
    },
    /// MST via Borůvka over PA (Corollary 1.3).
    Mst,
    /// Approximate SSSP from `source` (Corollary 1.5).
    Sssp {
        /// The source node.
        source: NodeId,
    },
    /// `(1+ε)`-approximate min cut (Corollary 1.4) with an explicit
    /// trial budget (the serving layer keeps this bounded; pass the
    /// `O(log n/ε²)` default through [`MinCutConfig`] directly for the
    /// full guarantee).
    MinCut {
        /// Number of sampled spanning trees.
        trials: usize,
    },
    /// `k`-dominating set (Corollary A.3).
    Kdom {
        /// The domination radius.
        k: usize,
    },
    /// Additive-`k` eccentricity estimates (Holzer–Wattenhofer on top of
    /// k-domination).
    Eccentricity {
        /// The additive slack.
        k: usize,
    },
    /// `O(log n)`-approximate minimum-weight CDS (Corollary A.2).
    Cds {
        /// Cost of including each node.
        node_weights: Vec<u64>,
    },
    /// Thurimella component labels of the subgraph `H` (Appendix A.2).
    Components {
        /// The subgraph, as edge ids of the network graph.
        h_edges: Vec<EdgeId>,
    },
    /// One Corollary A.1 verification predicate.
    Verify {
        /// Which predicate.
        check: VerifyCheck,
        /// The subgraph under test.
        h_edges: Vec<EdgeId>,
    },
}

impl Query {
    /// The cache-affinity class of this query: two queries with equal
    /// keys (on the same graph) want the engine in the same warm state —
    /// same partition artifacts, same division memo. The shard scheduler
    /// batches equal keys back-to-back so the second query is a cache
    /// hit. Stable across runs and platforms (FNV-1a, like the engine's
    /// partition fingerprint).
    pub fn affinity(&self) -> u64 {
        // Distinct per-variant tags keep unrelated classes from sharing
        // a batch by accident.
        match self {
            Query::Pa { assignment, .. } => 0x10 ^ partition_fingerprint(assignment),
            Query::Mst => 0x20,
            Query::Sssp { .. } => 0x30,
            Query::MinCut { .. } => 0x40,
            // Kdom and Eccentricity with equal k share the division memo.
            Query::Kdom { k } | Query::Eccentricity { k } => {
                0x50 ^ partition_fingerprint(&[0x50, *k])
            }
            Query::Cds { .. } => 0x60,
            // Components and Verify on equal H solve PA over the same
            // H-component partition.
            Query::Components { h_edges } | Query::Verify { h_edges, .. } => {
                0x70 ^ partition_fingerprint(h_edges)
            }
        }
    }

    /// A cheap a-priori cost estimate for this query on a graph with `n`
    /// nodes and `m` edges, in abstract *work units* comparable to
    /// `CostReport::rounds + messages` (what one simulated phase bills).
    ///
    /// The serving scheduler uses this to size *graph groups* before any
    /// query has run; once a graph has demand history (observed response
    /// costs), the history supersedes the estimate. The estimate only
    /// has to rank workloads correctly — a wave over the graph costs
    /// `Θ(n + m)` messages, and each application runs a known number of
    /// wave-like phases (Borůvka runs `O(log n)` PA calls, min-cut one
    /// sketch per trial, CDS the heaviest composition).
    pub fn weight(&self, n: usize, m: usize) -> u64 {
        let n = n as u64;
        let m = m as u64;
        // One broadcast/convergecast wave's bill over the whole graph.
        let wave = n + 2 * m + 1;
        let log_n = u64::from(64 - n.leading_zeros()).max(1);
        let waves = match self {
            Query::Pa { .. } => 6,
            Query::Components { .. } | Query::Verify { .. } => 10,
            Query::Kdom { .. } | Query::Eccentricity { .. } => 12,
            Query::Mst => 6 * log_n,
            Query::Sssp { .. } => 20,
            // Saturating: a hostile `trials` must mis-rank, not abort the
            // scheduler that is sizing groups around it.
            Query::MinCut { trials } => (*trials as u64).max(1).saturating_mul(10),
            Query::Cds { .. } => 24,
        };
        waves.saturating_mul(wave)
    }
}

/// Why a query could not be served — the typed vocabulary behind
/// [`QueryResponse::Failed`]. Every variant renders ([`fmt::Display`])
/// to the exact diagnostic string the serving layer has always
/// produced, so failure handling can match on structure while log
/// output and string-based assertions stay stable.
///
/// The variants split into three families: *engine errors*
/// ([`FailReason::Engine`] — a [`PaError`] from validation or the
/// pipeline), *contract violations* (a well-formed query whose
/// parameters violate an application's documented preconditions), and
/// *cluster-level* failures (routing problems the dispatch layer never
/// sees). Admission rejections of the streaming front-end are a
/// separate type — [`crate::stream::RejectReason`] — because a rejected
/// query was never accepted at all.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FailReason {
    /// The engine rejected the instance ([`PaError`] preserved intact:
    /// partition validation, value-count mismatches, pipeline errors).
    Engine(PaError),
    /// `Query::Sssp` named a source outside the graph.
    SsspSourceOutOfRange {
        /// The offending source id.
        source: NodeId,
        /// The graph's node count.
        nodes: usize,
    },
    /// A subgraph query named an edge id outside the graph.
    EdgeOutOfRange {
        /// The first offending edge id.
        edge: EdgeId,
        /// The graph's edge count.
        edges: usize,
    },
    /// `Query::MinCut` asked for zero sampling trials.
    MinCutZeroTrials,
    /// `Query::MinCut` on a graph with fewer than two nodes.
    MinCutTooSmall {
        /// The graph's node count.
        nodes: usize,
    },
    /// `Query::Kdom` asked for radius zero.
    KdomZeroRadius,
    /// `Query::Eccentricity` asked for slack zero.
    EccentricityZeroSlack,
    /// The query named a [`crate::service::GraphId`] the cluster does
    /// not hold (the raw id; rendered as `g{id}` like the `GraphId`).
    UnregisteredGraph {
        /// The raw graph id.
        id: u64,
    },
    /// The batch finished without the scheduler ever placing this
    /// query: an internal invariant violation, or a replay log that
    /// does not fit the batch.
    NeverScheduled,
}

impl fmt::Display for FailReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FailReason::Engine(e) => write!(f, "{e}"),
            FailReason::SsspSourceOutOfRange { source, nodes } => write!(
                f,
                "sssp source {source} out of range (graph has {nodes} nodes)"
            ),
            FailReason::EdgeOutOfRange { edge, edges } => write!(
                f,
                "subgraph edge id {edge} out of range (graph has {edges} edges)"
            ),
            FailReason::MinCutZeroTrials => {
                write!(f, "min-cut needs at least one sampling trial (got 0)")
            }
            FailReason::MinCutTooSmall { nodes } => {
                write!(f, "min-cut needs at least 2 nodes (graph has {nodes})")
            }
            FailReason::KdomZeroRadius => {
                write!(f, "k-dominating set needs a positive radius k (got 0)")
            }
            FailReason::EccentricityZeroSlack => {
                write!(
                    f,
                    "eccentricity estimation needs a positive slack k (got 0)"
                )
            }
            FailReason::UnregisteredGraph { id } => {
                write!(f, "graph g{id} is not registered with this cluster")
            }
            FailReason::NeverScheduled => write!(f, "internal: query was never scheduled"),
        }
    }
}

impl From<PaError> for FailReason {
    fn from(e: PaError) -> FailReason {
        FailReason::Engine(e)
    }
}

/// The typed result of one [`Query`], bit-comparable for determinism
/// tests (threaded and sequential serving must produce equal responses).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueryResponse {
    /// From [`Query::Pa`].
    Pa(rmo_core::PaResult),
    /// From [`Query::Mst`].
    Mst(PaMstResult),
    /// From [`Query::Sssp`].
    Sssp(SsspResult),
    /// From [`Query::MinCut`].
    MinCut(MinCutResult),
    /// From [`Query::Kdom`].
    Kdom(KDomResult),
    /// From [`Query::Eccentricity`].
    Eccentricity(EccentricityResult),
    /// From [`Query::Cds`].
    Cds(CdsResult),
    /// From [`Query::Components`].
    Components(ComponentLabels),
    /// From [`Query::Verify`].
    Verify(Verdict),
    /// The query was invalid for its graph (typed [`FailReason`];
    /// its `Display` renders the classic diagnostic string).
    Failed(FailReason),
}

impl QueryResponse {
    /// The measured CONGEST cost of serving this query (zero for
    /// failures, which never reach the simulator).
    pub fn cost(&self) -> CostReport {
        match self {
            QueryResponse::Pa(r) => r.cost,
            QueryResponse::Mst(r) => r.cost,
            QueryResponse::Sssp(r) => r.cost,
            QueryResponse::MinCut(r) => r.cost,
            QueryResponse::Kdom(r) => r.cost,
            QueryResponse::Eccentricity(r) => r.cost,
            QueryResponse::Cds(r) => r.cost,
            QueryResponse::Components(r) => r.cost,
            QueryResponse::Verify(r) => r.cost,
            QueryResponse::Failed(_) => CostReport::zero(),
        }
    }

    /// Whether the query was served (not [`QueryResponse::Failed`]).
    pub fn is_ok(&self) -> bool {
        !matches!(self, QueryResponse::Failed(_))
    }
}

fn fail(err: PaError) -> QueryResponse {
    QueryResponse::Failed(FailReason::Engine(err))
}

/// The first out-of-range edge id in `h_edges`, as a `Failed` response.
fn bad_edge(engine: &PaEngine<'_>, h_edges: &[rmo_graph::EdgeId]) -> Option<QueryResponse> {
    let m = engine.graph().m();
    h_edges
        .iter()
        .find(|&&e| e >= m)
        .map(|&e| QueryResponse::Failed(FailReason::EdgeOutOfRange { edge: e, edges: m }))
}

/// Executes one query on a caller-held session — the single entry point
/// over all eight application modules. Validation failures surface as
/// [`QueryResponse::Failed`], never a panic: graph-relative checks
/// (part vectors, value lengths, node and edge id ranges) *and* the
/// apps' own contract preconditions (`k == 0`, a degenerate min-cut
/// instance) are caught here, so no well-formed-but-invalid query can
/// kill a shard worker.
pub fn run_query(engine: &mut PaEngine<'_>, query: &Query) -> QueryResponse {
    match query {
        Query::Pa {
            assignment,
            values,
            agg,
        } => match engine.solve(assignment, values, *agg) {
            Ok(r) => QueryResponse::Pa(r),
            Err(e) => fail(e),
        },
        Query::Mst => match pa_mst(engine) {
            Ok(r) => QueryResponse::Mst(r),
            Err(e) => fail(e),
        },
        Query::Sssp { source } => {
            if *source >= engine.graph().n() {
                return QueryResponse::Failed(FailReason::SsspSourceOutOfRange {
                    source: *source,
                    nodes: engine.graph().n(),
                });
            }
            let config = SsspConfig {
                seed: engine.config().seed,
                ..SsspConfig::default()
            };
            match approx_sssp(engine, *source, &config) {
                Ok(r) => QueryResponse::Sssp(r),
                Err(e) => fail(e),
            }
        }
        Query::MinCut { trials } => {
            // approx_min_cut's contract: at least one trial,
            // at least one edge to cut. Enforce it here so the serving
            // path degrades instead of tripping the assert.
            if *trials == 0 {
                return QueryResponse::Failed(FailReason::MinCutZeroTrials);
            }
            if engine.graph().n() < 2 {
                return QueryResponse::Failed(FailReason::MinCutTooSmall {
                    nodes: engine.graph().n(),
                });
            }
            let config = MinCutConfig {
                seed: engine.config().seed,
                trials: Some(*trials),
                ..MinCutConfig::default()
            };
            match approx_min_cut(engine, &config) {
                Ok(r) => QueryResponse::MinCut(r),
                Err(e) => fail(e),
            }
        }
        Query::Kdom { k } => {
            // k_dominating_set's contract: a positive radius.
            if *k == 0 {
                return QueryResponse::Failed(FailReason::KdomZeroRadius);
            }
            QueryResponse::Kdom(k_dominating_set(engine, *k))
        }
        Query::Eccentricity { k } => {
            // Same positive-k contract as Kdom, which it builds on.
            if *k == 0 {
                return QueryResponse::Failed(FailReason::EccentricityZeroSlack);
            }
            QueryResponse::Eccentricity(approx_eccentricities(engine, *k))
        }
        Query::Cds { node_weights } => {
            if node_weights.len() != engine.graph().n() {
                return fail(PaError::ValueCountMismatch {
                    expected: engine.graph().n(),
                    got: node_weights.len(),
                });
            }
            match approx_mwcds(engine, node_weights) {
                Ok(r) => QueryResponse::Cds(r),
                Err(e) => fail(e),
            }
        }
        Query::Components { h_edges } => {
            if let Some(failed) = bad_edge(engine, h_edges) {
                return failed;
            }
            match component_labels(engine, h_edges) {
                Ok(r) => QueryResponse::Components(r),
                Err(e) => fail(e),
            }
        }
        Query::Verify { check, h_edges } => {
            if let Some(failed) = bad_edge(engine, h_edges) {
                return failed;
            }
            let verdict = match check {
                VerifyCheck::ConnectedSpanning => verify_connected_spanning(engine, h_edges),
                VerifyCheck::SpanningTree => verify_spanning_tree(engine, h_edges),
                VerifyCheck::Cut => verify_cut(engine, h_edges),
                VerifyCheck::Bipartite => verify_bipartite(engine, h_edges),
                VerifyCheck::Forest => verify_forest(engine, h_edges),
                VerifyCheck::Mst => verify_mst(engine, h_edges),
                VerifyCheck::TwoEdgeConnected => verify_two_edge_connected(engine),
            };
            match verdict {
                Ok(r) => QueryResponse::Verify(r),
                Err(e) => fail(e),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rmo_core::EngineConfig;
    use rmo_graph::{gen, PartitionError};

    #[test]
    fn dispatch_matches_direct_calls() {
        let g = gen::grid(6, 6);
        let rows = gen::grid_row_partition(6, 6);
        let values: Vec<u64> = (0..36u64).collect();

        // Pa through dispatch == engine.solve directly.
        let mut a = PaEngine::new(&g, EngineConfig::new());
        let via_dispatch = run_query(
            &mut a,
            &Query::Pa {
                assignment: rows.clone(),
                values: values.clone(),
                agg: Aggregate::Min,
            },
        );
        let mut b = PaEngine::new(&g, EngineConfig::new());
        let direct = b.solve(&rows, &values, Aggregate::Min).unwrap();
        assert_eq!(via_dispatch, QueryResponse::Pa(direct));

        // Mst through dispatch == pa_mst on an equal session.
        let mut c = PaEngine::new(&g, EngineConfig::new());
        let mst = run_query(&mut c, &Query::Mst);
        let mut d = PaEngine::new(&g, EngineConfig::new());
        assert_eq!(mst, QueryResponse::Mst(pa_mst(&mut d).unwrap()));
    }

    #[test]
    fn invalid_queries_fail_without_panicking() {
        let g = gen::path(8);
        let mut engine = PaEngine::new(&g, EngineConfig::new());
        // Wrong-length assignment.
        let bad = run_query(
            &mut engine,
            &Query::Pa {
                assignment: vec![0; 3],
                values: vec![0; 8],
                agg: Aggregate::Sum,
            },
        );
        assert!(!bad.is_ok());
        assert_eq!(bad.cost(), CostReport::zero());
        // Wrong-length CDS weights.
        let bad = run_query(
            &mut engine,
            &Query::Cds {
                node_weights: vec![1; 2],
            },
        );
        assert!(matches!(bad, QueryResponse::Failed(_)));
        // Out-of-range node and edge ids fail instead of panicking in a
        // shard worker.
        let bad = run_query(&mut engine, &Query::Sssp { source: 8 });
        assert!(matches!(&bad, QueryResponse::Failed(m) if m.to_string().contains("out of range")));
        assert!(matches!(
            &bad,
            QueryResponse::Failed(FailReason::SsspSourceOutOfRange {
                source: 8,
                nodes: 8
            })
        ));
        let bad = run_query(
            &mut engine,
            &Query::Components {
                h_edges: vec![0, 7],
            },
        );
        assert!(matches!(&bad, QueryResponse::Failed(m) if m.to_string().contains("edge id 7")));
        assert!(matches!(
            &bad,
            QueryResponse::Failed(FailReason::EdgeOutOfRange { edge: 7, edges: 7 })
        ));
        let bad = run_query(
            &mut engine,
            &Query::Verify {
                check: VerifyCheck::Forest,
                h_edges: vec![99],
            },
        );
        assert!(!bad.is_ok());
        // The engine is still usable afterwards.
        let ok = run_query(&mut engine, &Query::Kdom { k: 4 });
        assert!(ok.is_ok());
    }

    /// `Query::Pa` with `assignment` and one value per node.
    fn pa(assignment: Vec<usize>, values: usize) -> Query {
        Query::Pa {
            assignment,
            values: vec![1; values],
            agg: Aggregate::Sum,
        }
    }

    #[test]
    fn hostile_part_ids_fail_without_panicking() {
        // Sizing member lists by the largest id used to overflow `id + 1`,
        // overflow the allocation size, or abort on a 24 TiB allocation.
        let g = gen::grid(4, 6);
        let n = g.n();
        let rows = gen::grid_row_partition(4, 6);
        let mut cold = PaEngine::new(&g, EngineConfig::new());
        let mut warm = PaEngine::new(&g, EngineConfig::new());
        assert!(run_query(&mut warm, &pa(rows.clone(), n)).is_ok());
        for hostile in [n, 1 << 40, usize::MAX / 2 + 1, usize::MAX] {
            let mut assignment = rows.clone();
            assignment[n - 1] = hostile;
            // Row 3 loses its last node to the hostile id, so ids 0..=3
            // are all still taken; 4 is the smallest id nobody holds.
            let expected = QueryResponse::Failed(FailReason::Engine(PaError::Partition(
                PartitionError::NonDenseParts { missing: 4 },
            )));
            assert_eq!(run_query(&mut cold, &pa(assignment.clone(), n)), expected);
            assert_eq!(run_query(&mut warm, &pa(assignment, n)), expected);
            let expected = QueryResponse::Failed(FailReason::Engine(PaError::Partition(
                PartitionError::NonDenseParts { missing: 0 },
            )));
            assert_eq!(run_query(&mut warm, &pa(vec![hostile; n], n)), expected);
        }
        assert!(run_query(&mut warm, &pa(rows, n)).is_ok());
    }

    #[test]
    fn huge_slack_and_node_weights_answer_without_panicking() {
        // `d + k` and the CDS weight sums must saturate: an overflow
        // panics a debug build and wraps to wrong answers in release.
        for g in [gen::path(8), gen::grid(4, 6)] {
            let n = g.n();
            let ecc = Query::Eccentricity { k: usize::MAX };
            let cds = Query::Cds {
                node_weights: vec![u64::MAX; n],
            };
            let mut engine = PaEngine::new(&g, EngineConfig::new());
            // The first pass runs cold, the second on the warm caches.
            for _ in 0..2 {
                let QueryResponse::Eccentricity(res) = run_query(&mut engine, &ecc) else {
                    panic!("eccentricity query failed");
                };
                for v in 0..n {
                    assert!(
                        res.estimates[v]
                            >= rmo_graph::bfs_distances(&g, &[v])
                                .into_iter()
                                .max()
                                .unwrap_or(0),
                        "node {v}"
                    );
                }
                let QueryResponse::Cds(res) = run_query(&mut engine, &cds) else {
                    panic!("CDS query failed");
                };
                assert!(crate::cds::is_connected_dominating_set(&g, &res.set));
            }
        }
    }

    #[test]
    fn warm_engine_rejects_what_a_cold_one_rejects_and_counts_nothing() {
        let g = gen::grid(4, 6);
        let n = g.n();
        let rows = gen::grid_row_partition(4, 6);
        let mut warm = PaEngine::new(&g, EngineConfig::new());
        assert!(run_query(&mut warm, &pa(rows.clone(), n)).is_ok());
        let warmed = warm.stats();

        let mut non_dense = rows.clone();
        non_dense[0] = 5;
        // Part 0 is columns 0, 2 and 4: three stripes that never touch.
        let disconnected: Vec<usize> = (0..n).map(|v| (v % 6) % 2).collect();
        // (part vector, value count); a partition error wins over a
        // value-count error.
        let mut bad = vec![
            (vec![0; n - 1], n),
            (non_dense.clone(), n),
            (disconnected.clone(), n),
            (rows.clone(), n - 1),
            (rows.clone(), n + 1),
            (non_dense, n - 1),
            (disconnected, 0),
        ];
        for hostile in [n, 1 << 40, usize::MAX / 2 + 1, usize::MAX] {
            bad.push((vec![hostile; n], n));
            bad.push((vec![hostile; n], 0));
        }
        for (assignment, values) in bad {
            let partition_error = assignment != rows;
            let query = pa(assignment, values);
            let mut cold = PaEngine::new(&g, EngineConfig::new());
            let fresh = cold.stats();
            let expected = run_query(&mut cold, &query);
            assert_eq!(
                matches!(
                    expected,
                    QueryResponse::Failed(FailReason::Engine(PaError::Partition(_)))
                ),
                partition_error,
                "{query:?}"
            );
            assert!(matches!(expected, QueryResponse::Failed(_)), "{query:?}");
            assert_eq!(run_query(&mut warm, &query), expected, "{query:?}");
            assert_eq!(cold.stats(), fresh, "{query:?}");
            assert_eq!(warm.stats(), warmed, "{query:?}");
        }
        assert!(run_query(&mut warm, &pa(rows, n)).is_ok());
        assert_eq!(warm.stats().hits, warmed.hits + 1);
    }

    #[test]
    fn contract_violations_fail_gracefully_instead_of_panicking() {
        let g = gen::path(8);
        let mut engine = PaEngine::new(&g, EngineConfig::new());
        // k == 0 used to trip `assert!(k > 0)` inside the app and kill
        // the shard worker; now it degrades to a Failed response.
        let bad = run_query(&mut engine, &Query::Kdom { k: 0 });
        assert!(
            matches!(&bad, QueryResponse::Failed(m) if m.to_string().contains("positive radius"))
        );
        assert!(matches!(
            &bad,
            QueryResponse::Failed(FailReason::KdomZeroRadius)
        ));
        let bad = run_query(&mut engine, &Query::Eccentricity { k: 0 });
        assert!(
            matches!(&bad, QueryResponse::Failed(m) if m.to_string().contains("positive slack"))
        );
        // Degenerate min-cut instances likewise.
        let bad = run_query(&mut engine, &Query::MinCut { trials: 0 });
        assert!(matches!(&bad, QueryResponse::Failed(m) if m.to_string().contains("trial")));
        let single = gen::path(1);
        let mut tiny = PaEngine::new(&single, EngineConfig::new());
        let bad = run_query(&mut tiny, &Query::MinCut { trials: 2 });
        assert!(
            matches!(&bad, QueryResponse::Failed(m) if m.to_string().contains("at least 2 nodes"))
        );
        // Failures bill nothing and leave the engine serviceable.
        assert_eq!(bad.cost(), CostReport::zero());
        assert!(run_query(&mut engine, &Query::Mst).is_ok());
    }

    #[test]
    fn fail_reason_display_is_the_classic_diagnostic() {
        // The typed reasons render to the exact strings the serving
        // layer produced before FailReason existed — log output and
        // string assertions must not drift.
        let cases: Vec<(FailReason, &str)> = vec![
            (
                FailReason::Engine(PaError::Disconnected),
                "graph must be connected",
            ),
            (
                FailReason::SsspSourceOutOfRange {
                    source: 8,
                    nodes: 8,
                },
                "sssp source 8 out of range (graph has 8 nodes)",
            ),
            (
                FailReason::EdgeOutOfRange { edge: 7, edges: 7 },
                "subgraph edge id 7 out of range (graph has 7 edges)",
            ),
            (
                FailReason::MinCutZeroTrials,
                "min-cut needs at least one sampling trial (got 0)",
            ),
            (
                FailReason::MinCutTooSmall { nodes: 1 },
                "min-cut needs at least 2 nodes (graph has 1)",
            ),
            (
                FailReason::KdomZeroRadius,
                "k-dominating set needs a positive radius k (got 0)",
            ),
            (
                FailReason::EccentricityZeroSlack,
                "eccentricity estimation needs a positive slack k (got 0)",
            ),
            (
                FailReason::UnregisteredGraph { id: 99 },
                "graph g99 is not registered with this cluster",
            ),
            (
                FailReason::NeverScheduled,
                "internal: query was never scheduled",
            ),
        ];
        for (reason, rendered) in cases {
            assert_eq!(reason.to_string(), rendered);
        }
        // PaError conversion keeps the error intact for matching.
        let reason: FailReason = PaError::ValueCountMismatch {
            expected: 4,
            got: 2,
        }
        .into();
        assert_eq!(
            reason,
            FailReason::Engine(PaError::ValueCountMismatch {
                expected: 4,
                got: 2
            })
        );
    }

    #[test]
    fn weight_saturates_instead_of_overflowing() {
        // A hostile trial budget must mis-rank, not abort the scheduler
        // in debug builds.
        let w = Query::MinCut { trials: usize::MAX }.weight(1 << 20, 1 << 22);
        assert_eq!(w, u64::MAX);
        assert!(w >= Query::MinCut { trials: 1 }.weight(1 << 20, 1 << 22));
    }

    #[test]
    fn weight_ranks_heavier_queries_above_lighter() {
        let (n, m) = (64usize, 128usize);
        let pa = Query::Pa {
            assignment: vec![0; n],
            values: vec![0; n],
            agg: Aggregate::Min,
        };
        // A Borůvka MST (log n PA phases) outweighs one PA solve; more
        // min-cut trials cost more; bigger graphs cost more.
        assert!(Query::Mst.weight(n, m) > pa.weight(n, m));
        assert!(
            Query::MinCut { trials: 8 }.weight(n, m) > Query::MinCut { trials: 1 }.weight(n, m)
        );
        assert!(pa.weight(4 * n, 4 * m) > pa.weight(n, m));
        assert!(pa.weight(1, 0) > 0, "weights are never zero");
    }

    #[test]
    fn affinity_groups_cache_friends() {
        let pa1 = Query::Pa {
            assignment: vec![0, 0, 1, 1],
            values: vec![1; 4],
            agg: Aggregate::Min,
        };
        let pa2 = Query::Pa {
            assignment: vec![0, 0, 1, 1],
            values: vec![9; 4],
            agg: Aggregate::Sum,
        };
        let pa3 = Query::Pa {
            assignment: vec![0, 1, 1, 1],
            values: vec![1; 4],
            agg: Aggregate::Min,
        };
        // Same partition => same class, regardless of values/aggregate.
        assert_eq!(pa1.affinity(), pa2.affinity());
        assert_ne!(pa1.affinity(), pa3.affinity());
        // Kdom and Eccentricity share the division memo per k.
        assert_eq!(
            Query::Kdom { k: 6 }.affinity(),
            Query::Eccentricity { k: 6 }.affinity()
        );
        assert_ne!(
            Query::Kdom { k: 6 }.affinity(),
            Query::Kdom { k: 8 }.affinity()
        );
        // Components and Verify share the H-component partition per H.
        assert_eq!(
            Query::Components {
                h_edges: vec![1, 2]
            }
            .affinity(),
            Query::Verify {
                check: VerifyCheck::Forest,
                h_edges: vec![1, 2],
            }
            .affinity()
        );
    }
}
