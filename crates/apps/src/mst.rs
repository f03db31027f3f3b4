//! Corollary 1.3: MST via Borůvka over Part-Wise Aggregation.
//!
//! Borůvka's algorithm runs `O(log n)` phases. In each phase every
//! current component finds its minimum-weight outgoing edge — *"an
//! example of Part-Wise Aggregation"* (the paper's proof of
//! Corollary 1.3) — and merges along it. Components are connected
//! subgraphs, so they form a valid PA partition; the aggregate is `Min`
//! over packed `(weight, edge id)` keys.
//!
//! Costs: leader election and the BFS tree are paid once (by the
//! [`PaEngine`] session); every phase pays for a fresh sub-part division
//! and shortcut construction on the new partition plus two PA solves
//! (find the minimum edge; distribute the merged component identity),
//! exactly the composition the corollary charges (`O(log n)` PA
//! invocations).

use rmo_congest::programs::bfs::run_bfs;
use rmo_congest::programs::leader::run_leader_election;
use rmo_congest::{CostReport, Network};
use rmo_graph::{num::ceil_log2, DisjointSets, EdgeId, Graph, Partition};

use rmo_core::{Aggregate, EngineConfig, PaEngine, PaError, PaInstance};

use crate::components::dense_ids;

/// Result of [`pa_mst`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PaMstResult {
    /// MST edge ids, sorted.
    pub edges: Vec<EdgeId>,
    /// Total MST weight.
    pub total_weight: u64,
    /// Borůvka phases executed (`O(log n)`).
    pub phases: usize,
    /// Measured total cost across all phases.
    pub cost: CostReport,
}

/// Packs `(weight, edge)` into one word so `Min` picks the lightest edge,
/// ties broken by edge id. Requires `weight < 2^40` and `edge < 2^24`.
fn pack(weight: u64, edge: EdgeId) -> u64 {
    assert!(weight < 1 << 40, "weight too large to pack");
    assert!(edge < 1 << 24, "edge id too large to pack");
    (weight << 24) | edge as u64
}

fn unpack_edge(key: u64) -> EdgeId {
    (key & ((1 << 24) - 1)) as EdgeId
}

/// Computes the MST of the engine's graph with Borůvka over PA.
///
/// The engine's BFS tree is shared by every Borůvka phase (no per-phase
/// clone); election + BFS are charged once per engine, so a warm engine
/// pays only the per-phase division/shortcut/solve costs. A one-shot
/// caller passes a fresh engine: `pa_mst(&mut PaEngine::new(g, config))`.
///
/// # Errors
/// Propagates [`PaError`] from the PA solves.
///
/// # Panics
/// Panics if weights exceed `2^40` (the engine already rejects empty
/// and disconnected graphs).
pub fn pa_mst(engine: &mut PaEngine<'_>) -> Result<PaMstResult, PaError> {
    let g = engine.graph();
    assert!(g.n() > 0, "MST of an empty graph");
    let mut cost = CostReport::zero();

    let mut dsu = DisjointSets::new(g.n());
    let mut chosen: Vec<EdgeId> = Vec::new();
    let mut phases = 0usize;
    let max_phases = 2 * ceil_log2(g.n().max(2)) + 2;

    while dsu.set_count() > 1 {
        phases += 1;
        assert!(
            phases <= max_phases,
            "Borůvka must halve components per phase"
        );
        // Current components as a dense partition.
        let root_of: Vec<usize> = (0..g.n()).map(|v| dsu.find(v)).collect();
        let (part_of, _) = dense_ids(root_of.iter().copied(), g.n());
        // Node value: lightest incident outgoing edge (packed), or identity.
        let values: Vec<u64> = (0..g.n())
            .map(|v| {
                g.neighbors(v)
                    .filter(|&(u, _)| root_of[u] != root_of[v])
                    .map(|(_, e)| pack(g.weight(e), e))
                    .min()
                    .unwrap_or(Aggregate::Min.identity())
            })
            .collect();
        let res = engine.solve(&part_of, &values, Aggregate::Min)?;
        // The engine charged setup (and, on the very first solve, election
        // + BFS) into `res.cost`. Distributing the merged component
        // identity is one more PA of the same shape on the now-cached
        // partition, i.e. three more wave phases.
        cost += res.cost + res.broadcast_cost.repeated(3);
        // Merge along each part's chosen edge.
        for &key in &res.aggregates {
            if key == Aggregate::Min.identity() {
                continue; // isolated component (only possible when done)
            }
            let e = unpack_edge(key);
            let (u, v) = g.endpoints(e);
            if dsu.union(u, v) {
                chosen.push(e);
            }
        }
    }
    chosen.sort_unstable();
    chosen.dedup();
    let total_weight = chosen.iter().map(|&e| g.weight(e)).sum();
    Ok(PaMstResult {
        edges: chosen,
        total_weight,
        phases,
        cost,
    })
}

/// Baseline MST: Borůvka where every phase aggregates with the
/// **prior-work** block algorithm (no sub-part division — every node
/// climbs the shortcut individually, Section 3.1). Same output, message-
/// suboptimal: `Ω(nD)` per phase on the Figure 2 instances.
///
/// # Errors
/// Propagates [`PaError`] from the PA solves.
///
/// # Panics
/// Panics if `g` is empty or disconnected, or weights exceed `2^40`.
pub fn naive_mst(g: &Graph, config: &EngineConfig) -> Result<PaMstResult, PaError> {
    use rmo_core::baseline::naive_block_pa;
    use rmo_shortcut::trivial::trivial_shortcut_with_threshold;

    assert!(g.n() > 0, "MST of an empty graph");
    assert!(g.is_connected(), "MST requires a connected graph");
    let mut cost = CostReport::zero();
    let net = Network::new(g, config.seed);
    let (root, _, elect_cost) = run_leader_election(g, &net).expect("election terminates");
    cost += elect_cost;
    let (tree, _, bfs_cost) = run_bfs(g, &net, root).expect("BFS terminates");
    cost += bfs_cost;

    let mut dsu = DisjointSets::new(g.n());
    let mut chosen: Vec<EdgeId> = Vec::new();
    let mut phases = 0usize;
    let max_phases = 2 * ceil_log2(g.n().max(2)) + 2;
    while dsu.set_count() > 1 {
        phases += 1;
        assert!(
            phases <= max_phases,
            "Borůvka must halve components per phase"
        );
        let root_of: Vec<usize> = (0..g.n()).map(|v| dsu.find(v)).collect();
        let (part_of, _) = dense_ids(root_of.iter().copied(), g.n());
        let values: Vec<u64> = (0..g.n())
            .map(|v| {
                g.neighbors(v)
                    .filter(|&(u, _)| root_of[u] != root_of[v])
                    .map(|(_, e)| pack(g.weight(e), e))
                    .min()
                    .unwrap_or(Aggregate::Min.identity())
            })
            .collect();
        let parts = Partition::new(g, part_of)?;
        let inst = PaInstance::from_partition(g, parts, values, Aggregate::Min)?;
        // Prior work: every part uses the whole tree (one block), and all
        // nodes climb it themselves.
        let sc = trivial_shortcut_with_threshold(&tree, inst.partition(), 1);
        let leaders: Vec<usize> = inst
            .partition()
            .part_ids()
            .map(|p| inst.partition().members(p)[0])
            .collect();
        let res = naive_block_pa(&inst, &tree, &sc, &leaders, config.variant, 1)?;
        cost += res.cost + res.cost;
        for p in inst.partition().part_ids() {
            let key = res.aggregates[p];
            if key == Aggregate::Min.identity() {
                continue;
            }
            let e = unpack_edge(key);
            let (u, v) = g.endpoints(e);
            if dsu.union(u, v) {
                chosen.push(e);
            }
        }
    }
    chosen.sort_unstable();
    chosen.dedup();
    let total_weight = chosen.iter().map(|&e| g.weight(e)).sum();
    Ok(PaMstResult {
        edges: chosen,
        total_weight,
        phases,
        cost,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rmo_graph::{gen, reference};

    fn mst(g: &Graph, config: EngineConfig) -> PaMstResult {
        pa_mst(&mut PaEngine::new(g, config)).expect("MST solves")
    }

    #[test]
    fn naive_mst_matches_kruskal_but_costs_more_messages() {
        let g = gen::grid_weighted(6, 12, 5);
        let smart = mst(&g, EngineConfig::new());
        let naive = naive_mst(&g, &EngineConfig::new()).unwrap();
        let k = reference::kruskal(&g);
        assert_eq!(naive.total_weight, k.total_weight);
        assert_eq!(smart.total_weight, k.total_weight);
    }

    fn check_against_kruskal(g: &Graph, config: EngineConfig) -> PaMstResult {
        let res = mst(g, config);
        let k = reference::kruskal(g);
        assert_eq!(
            res.total_weight, k.total_weight,
            "weight must match Kruskal"
        );
        assert_eq!(res.edges.len(), g.n() - 1);
        // Distinct weights -> unique MST -> identical edge sets.
        res
    }

    #[test]
    fn grid_mst_matches_kruskal() {
        let g = gen::grid_weighted(6, 8, 3);
        let res = check_against_kruskal(&g, EngineConfig::new());
        let k = reference::kruskal(&g);
        assert_eq!(res.edges, k.edges);
    }

    #[test]
    fn random_graph_mst_matches() {
        let g = gen::random_connected_weighted(60, 150, 7);
        let res = check_against_kruskal(&g, EngineConfig::new());
        assert_eq!(res.edges, reference::kruskal(&g).edges);
    }

    #[test]
    fn randomized_pipeline_matches() {
        let g = gen::random_connected_weighted(40, 90, 2);
        let res = check_against_kruskal(&g, EngineConfig::new().randomized(5));
        assert_eq!(res.edges, reference::kruskal(&g).edges);
    }

    #[test]
    fn phases_are_logarithmic() {
        let g = gen::random_connected_weighted(128, 300, 4);
        let res = mst(&g, EngineConfig::new());
        assert!(res.phases <= 9, "phases = {} > log2(128) + 2", res.phases);
    }

    #[test]
    fn tree_input_returns_itself() {
        let g = gen::random_spanning_tree(30, 6);
        let res = mst(&g, EngineConfig::new());
        assert_eq!(res.edges.len(), 29);
        assert_eq!(res.total_weight, 29, "unit weights");
    }

    #[test]
    fn two_nodes() {
        let g = Graph::from_edges(2, &[(0, 1, 7)]).unwrap();
        let res = mst(&g, EngineConfig::new());
        assert_eq!(res.edges, vec![0]);
        assert_eq!(res.total_weight, 7);
        assert_eq!(res.phases, 1);
    }

    use rmo_graph::Graph;

    #[test]
    fn dumbbell_bridge_always_chosen() {
        let g = gen::dumbbell(5, 1);
        let res = mst(&g, EngineConfig::new());
        let bridge = g.edge_between(4, 5).unwrap();
        assert!(
            res.edges.contains(&bridge),
            "the only inter-clique edge is forced"
        );
    }
}
