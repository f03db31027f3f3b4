//! Thurimella's sparse certificates for k-edge-connectivity.
//!
//! The verification results the paper inherits from Das Sarma et al.
//! lean on Thurimella's sub-linear algorithms for *sparse certificates*:
//! a subgraph `H ⊆ G` with `O(kn)` edges that is k-edge-connected iff
//! `G` is. The classical construction (Nagamochi–Ibaraki via Thurimella's
//! distributed framing): take `k` successive spanning forests
//! `F₁, …, F_k`, each a spanning forest of `G` minus the previous
//! forests; their union is the certificate.
//!
//! Each forest is one connected-components computation — an instance of
//! PA (see [`component_labels`]) — so the whole certificate costs `k` PA
//! calls: `Õ(k(D + √n))` rounds, `Õ(km)` messages, matching the paper's
//! accounting.

use rmo_congest::CostReport;
use rmo_graph::{DisjointSets, EdgeId, Graph};

use crate::components::component_labels;
use rmo_core::{EngineConfig, PaEngine, PaError};

/// A sparse certificate plus its measured cost.
#[derive(Debug, Clone)]
pub struct SparseCertificate {
    /// Edges of the certificate (union of the k forests), sorted.
    pub edges: Vec<EdgeId>,
    /// `forest_of[j]` — the edges of forest `j` (1-based order of
    /// extraction).
    pub forests: Vec<Vec<EdgeId>>,
    /// Measured cost (`k` component-labeling passes).
    pub cost: CostReport,
}

/// Computes a sparse certificate for k-edge-connectivity: the union of
/// `k` successive spanning forests. Each forest's labeling pass runs on
/// a fresh engine built from `config`, so every pass pays its own setup.
///
/// # Errors
/// Propagates [`PaError`] from the PA-based coordination.
///
/// # Panics
/// Panics if `k == 0`.
pub fn sparse_certificate(
    g: &Graph,
    k: usize,
    config: &EngineConfig,
) -> Result<SparseCertificate, PaError> {
    assert!(k > 0, "certificate order must be positive");
    let mut used = vec![false; g.m()];
    let mut forests: Vec<Vec<EdgeId>> = Vec::with_capacity(k);
    let mut cost = CostReport::zero();
    for _ in 0..k {
        // One spanning forest of the remaining graph. Distributedly this
        // is a Borůvka/components pass — one PA call on the current
        // forest components; we charge the measured PA cost of a
        // component labeling on G.
        let labels = component_labels(&mut PaEngine::new(g, *config), &[])?;
        cost += labels.cost;
        let mut dsu = DisjointSets::new(g.n());
        let mut forest = Vec::new();
        for (e, u, v, _) in g.edges() {
            if !used[e] && dsu.union(u, v) {
                used[e] = true;
                forest.push(e);
            }
        }
        if forest.is_empty() {
            break; // no edges left to take
        }
        forests.push(forest);
    }
    let mut edges: Vec<EdgeId> = forests.iter().flat_map(|f| f.iter().copied()).collect();
    edges.sort_unstable();
    Ok(SparseCertificate {
        edges,
        forests,
        cost,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rmo_graph::gen;

    /// Minimum number of edges whose removal disconnects `g` (global edge
    /// connectivity), by |V| − 1 max-flow-free contractions — a reference
    /// oracle for small graphs (uses Stoer–Wagner on unit weights).
    fn edge_connectivity(g: &Graph) -> u64 {
        if g.n() < 2 || !g.is_connected() {
            return 0;
        }
        let unit = g.reweighted(|_, _| 1);
        rmo_graph::reference::stoer_wagner(&unit).weight
    }

    /// Checks the certificate property on small graphs: `cert` preserves
    /// k-edge-connectivity decisions, i.e.
    /// `min(k, λ(G)) == min(k, λ(H))` where `λ` is edge connectivity.
    fn certificate_preserves_connectivity(g: &Graph, cert: &[EdgeId], k: usize) -> bool {
        let lambda_g = edge_connectivity(g).min(k as u64);
        let keep: Vec<bool> = {
            let set: std::collections::HashSet<EdgeId> = cert.iter().copied().collect();
            (0..g.m()).map(|e| set.contains(&e)).collect()
        };
        let (h, _) = g.edge_subgraph(&keep);
        let lambda_h = if h.is_connected() {
            edge_connectivity(&h).min(k as u64)
        } else {
            0
        };
        lambda_g == lambda_h
    }

    #[test]
    fn certificate_is_sparse() {
        let g = gen::complete(14); // m = 91
        let cert = sparse_certificate(&g, 3, &EngineConfig::new()).unwrap();
        assert!(cert.edges.len() <= 3 * (g.n() - 1), "at most k(n-1) edges");
        assert!(cert.edges.len() < g.m(), "sparser than the clique");
    }

    #[test]
    fn forests_are_forests_and_disjoint() {
        let g = gen::gnp_connected(30, 0.3, 2);
        let cert = sparse_certificate(&g, 4, &EngineConfig::new()).unwrap();
        let mut seen = std::collections::HashSet::new();
        for forest in &cert.forests {
            let mut dsu = DisjointSets::new(g.n());
            for &e in forest {
                assert!(seen.insert(e), "edge {e} in two forests");
                let (u, v) = g.endpoints(e);
                assert!(dsu.union(u, v), "cycle inside a forest");
            }
        }
    }

    #[test]
    fn first_forest_spans_connected_graph() {
        let g = gen::grid(5, 6);
        let cert = sparse_certificate(&g, 2, &EngineConfig::new()).unwrap();
        assert_eq!(cert.forests[0].len(), g.n() - 1);
    }

    #[test]
    fn certificate_preserves_k_connectivity_decisions() {
        for (g, k) in [
            (gen::complete(8), 3usize),
            (gen::cycle(10), 2),
            (gen::dumbbell(5, 1).reweighted(|_, _| 1), 2),
            (gen::grid(4, 5), 2),
            (gen::torus(4, 4), 3),
        ] {
            let cert = sparse_certificate(&g, k, &EngineConfig::new()).unwrap();
            assert!(
                certificate_preserves_connectivity(&g, &cert.edges, k),
                "certificate broke lambda decision at k = {k}"
            );
        }
    }

    #[test]
    fn edge_connectivity_reference() {
        assert_eq!(edge_connectivity(&gen::cycle(7)), 2);
        assert_eq!(edge_connectivity(&gen::path(5)), 1);
        assert_eq!(edge_connectivity(&gen::complete(6)), 5);
        assert_eq!(
            edge_connectivity(&gen::dumbbell(4, 1).reweighted(|_, _| 1)),
            1
        );
    }

    #[test]
    fn cost_scales_with_k() {
        let g = gen::grid(6, 6);
        let c2 = sparse_certificate(&g, 2, &EngineConfig::new()).unwrap();
        let c4 = sparse_certificate(&g, 4, &EngineConfig::new()).unwrap();
        assert!(
            c4.cost.messages >= c2.cost.messages,
            "more forests, more passes"
        );
    }
}
