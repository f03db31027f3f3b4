//! Thurimella's connected-component labeling as one PA call
//! (Appendix A.2 of the paper).
//!
//! Input: the network `G` and a subgraph `H ⊆ E(G)`. Output: a label per
//! node such that `ℓ(u) = ℓ(v)` iff `u` and `v` are in the same connected
//! component of `H`. The paper observes this "is easily cast as an
//! instance of PA, by having each part elect a leader … and use the
//! leader's ID as a label" — which is exactly what this module does: the
//! parts are the `H`-components (each connected in `G`), and one `Min`
//! aggregation over node ids labels everyone.

use rmo_congest::CostReport;
use rmo_graph::{DisjointSets, EdgeId};

use rmo_core::{Aggregate, PaEngine, PaError};

/// Component labels plus the measured PA cost.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ComponentLabels {
    /// `labels[v]` — the minimum node id in `v`'s `H`-component.
    pub labels: Vec<u64>,
    /// Dense component index per node (derived from labels).
    pub component_of: Vec<usize>,
    /// Number of `H`-components.
    pub num_components: usize,
    /// Measured cost (one PA call).
    pub cost: CostReport,
}

/// Labels the connected components of the subgraph given by `h_edges`
/// with one PA call on the engine. Repeated labelings of the same `H`
/// hit the artifact cache, so callers issuing several labelings on one
/// graph should hold one engine.
///
/// # Errors
/// Propagates [`PaError`].
pub fn component_labels(
    engine: &mut PaEngine<'_>,
    h_edges: &[EdgeId],
) -> Result<ComponentLabels, PaError> {
    let g = engine.graph();
    // H-components as a partition of V (connected in H => connected in G).
    let mut dsu = DisjointSets::new(g.n());
    for &e in h_edges {
        let (u, v) = g.endpoints(e);
        dsu.union(u, v);
    }
    let (part_of, _) = dense_ids((0..g.n()).map(|v| dsu.find(v)), g.n());
    let values: Vec<u64> = (0..g.n() as u64).collect();
    let res = engine.solve(&part_of, &values, Aggregate::Min)?;
    let labels = res.node_values.clone();
    // Dense component ids from labels, which are node ids.
    let (component_of, num_components) = dense_ids(
        labels
            .iter()
            .map(|&l| usize::try_from(l).unwrap_or(usize::MAX)),
        g.n(),
    );
    Ok(ComponentLabels {
        labels,
        num_components,
        component_of,
        cost: res.cost,
    })
}

/// Numbers the distinct keys densely in order of first appearance:
/// returns each key's number in turn, and how many distinct keys there
/// were. The keys are node ids, below `n`, so a node-indexed table does
/// what a hash map would. (A key at or above `n` gets a number of its
/// own.)
pub(crate) fn dense_ids(keys: impl IntoIterator<Item = usize>, n: usize) -> (Vec<usize>, usize) {
    let mut id_of = vec![usize::MAX; n];
    let mut count = 0;
    let ids = keys
        .into_iter()
        .map(|key| match id_of.get_mut(key) {
            Some(id) if *id != usize::MAX => *id,
            slot => {
                let id = count;
                count += 1;
                if let Some(slot) = slot {
                    *slot = id;
                }
                id
            }
        })
        .collect();
    (ids, count)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rmo_core::EngineConfig;
    use rmo_graph::{gen, Graph};

    fn labels(g: &Graph, h_edges: &[EdgeId]) -> ComponentLabels {
        component_labels(&mut PaEngine::new(g, EngineConfig::new()), h_edges).unwrap()
    }

    #[test]
    fn labels_match_h_connectivity() {
        let g = gen::grid(5, 5);
        // H = horizontal edges only -> components are the rows.
        let h: Vec<EdgeId> = g
            .edges()
            .filter(|&(_, u, v, _)| u / 5 == v / 5)
            .map(|(e, _, _, _)| e)
            .collect();
        let out = labels(&g, &h);
        assert_eq!(out.num_components, 5);
        for u in 0..25 {
            for v in 0..25 {
                assert_eq!(
                    out.labels[u] == out.labels[v],
                    u / 5 == v / 5,
                    "nodes {u},{v}"
                );
            }
        }
    }

    #[test]
    fn empty_h_gives_singletons() {
        let g = gen::cycle(7);
        let out = labels(&g, &[]);
        assert_eq!(out.num_components, 7);
        for v in 0..7 {
            assert_eq!(out.labels[v], v as u64, "own id is the only candidate");
        }
    }

    #[test]
    fn full_h_gives_one_component() {
        let g = gen::grid(4, 4);
        let all: Vec<EdgeId> = (0..g.m()).collect();
        let out = labels(&g, &all);
        assert_eq!(out.num_components, 1);
        assert!(out.labels.iter().all(|&l| l == 0));
    }

    #[test]
    fn labels_are_min_ids() {
        let g = gen::path(9);
        // H = two segments: edges 0..3 (nodes 0..4) and 5..7 (nodes 5..8).
        let h: Vec<EdgeId> = vec![0, 1, 2, 3, 5, 6, 7];
        let out = labels(&g, &h);
        for v in 0..5 {
            assert_eq!(out.labels[v], 0);
        }
        for v in 5..9 {
            assert_eq!(out.labels[v], 5);
        }
    }
}
