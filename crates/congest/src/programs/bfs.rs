//! Distributed BFS-tree construction by flooding.
//!
//! The root announces distance 0; every node adopts the first announcement
//! it hears (ties broken by lowest arrival port, deterministically), then
//! re-announces with distance +1. `O(D)` rounds, exactly 2 messages per
//! edge (`2m` total): each endpoint of each edge announces once.
//!
//! After quiescence the caller extracts parent ports and assembles a
//! [`RootedTree`] via [`extract_tree`].
//!
//! Active-set contract audit: with an empty inbox and `wants_round()
//! == false` (non-root before any announcement arrives, or any node
//! after announcing), `on_round` neither mutates state nor sends — the
//! root drives rounds only until it has announced.

use rmo_graph::{Graph, NodeId, RootedTree};

use crate::network::{Network, PortId};
use crate::payload::Payload;
use crate::sim::{NodeProgram, RoundCtx, SimError, Simulator};
use crate::CostReport;

const TAG_ANNOUNCE: u16 = 1;

/// Per-node state of the BFS protocol.
#[derive(Debug, Clone)]
pub struct BfsProgram {
    is_root: bool,
    announced: bool,
    distance: Option<usize>,
    parent_port: Option<PortId>,
}

impl BfsProgram {
    /// Creates the program; exactly one node per network must have
    /// `is_root = true`.
    pub fn new(is_root: bool) -> BfsProgram {
        BfsProgram {
            is_root,
            announced: false,
            distance: None,
            parent_port: None,
        }
    }

    /// BFS distance from the root, once the run has quiesced.
    pub fn distance(&self) -> Option<usize> {
        self.distance
    }

    /// Port toward this node's BFS parent (`None` at the root).
    pub fn parent_port(&self) -> Option<PortId> {
        self.parent_port
    }
}

impl NodeProgram for BfsProgram {
    fn on_round(&mut self, ctx: &mut RoundCtx<'_>) {
        if self.is_root && self.distance.is_none() {
            self.distance = Some(0);
        }
        if self.distance.is_none() {
            // Adopt the first announcement; lowest port wins ties so the
            // tree is deterministic given the network.
            let best = ctx
                .inbox()
                .iter()
                .filter(|(_, m)| m.tag == TAG_ANNOUNCE)
                .min_by_key(|(p, _)| *p)
                .copied();
            if let Some((port, msg)) = best {
                // BFS distances are < n, which always fits a `usize`.
                #[allow(clippy::cast_possible_truncation)]
                let d = msg.a as usize + 1;
                self.distance = Some(d);
                self.parent_port = Some(port);
            }
        }
        if let (Some(d), false) = (self.distance, self.announced) {
            self.announced = true;
            ctx.send_all(Payload::one(TAG_ANNOUNCE, d as u64));
        }
    }

    fn wants_round(&self) -> bool {
        self.is_root && !self.announced
    }
}

/// Runs distributed BFS from `root` on `net` and returns the tree, the
/// distances and the exact cost.
///
/// # Errors
/// Propagates simulator errors (round cap `4n + 4` should never bind on a
/// connected graph).
///
/// # Panics
/// Panics if the underlying graph is disconnected (some node never joins
/// the tree).
pub fn run_bfs(
    g: &Graph,
    net: &Network,
    root: NodeId,
) -> Result<(RootedTree, Vec<usize>, CostReport), SimError> {
    let mut sim = Simulator::new(net, |v| BfsProgram::new(v == root));
    let cost = sim.run_until_quiescent(4 * g.n() + 4)?;
    let (tree, dist) = extract_tree(g, net, root, |v| {
        let p = sim.program(v);
        (p.distance(), p.parent_port())
    });
    Ok((tree, dist, cost))
}

/// Assembles a [`RootedTree`] from per-node `(distance, parent_port)`
/// observations.
///
/// # Panics
/// Panics if some node has no distance (graph disconnected) or the
/// parent pointers do not form a tree.
pub fn extract_tree(
    g: &Graph,
    net: &Network,
    root: NodeId,
    state: impl Fn(NodeId) -> (Option<usize>, Option<PortId>),
) -> (RootedTree, Vec<usize>) {
    let n = g.n();
    let mut parent = vec![usize::MAX; n];
    let mut parent_edge = vec![usize::MAX; n];
    let mut dist = Vec::with_capacity(n);
    for (v, (p, pe)) in parent.iter_mut().zip(parent_edge.iter_mut()).enumerate() {
        let (d, pp) = state(v);
        // rmo-lint: allow(R1) — the engine only runs BFS on connected graphs (`PaEngine::new` asserts it), where every node gets a distance and a parent port.
        dist.push(d.expect("disconnected graph: node missing BFS distance"));
        if v != root {
            // rmo-lint: allow(R1) — as above: on a connected graph every non-root node has a parent port.
            let port = pp.expect("non-root node missing parent port");
            let (e, u, _) = net.port_target(v, port);
            *p = u;
            *pe = e;
        }
    }
    let tree = RootedTree::from_parents(root, parent, parent_edge);
    // rmo-lint: allow(R1) — on a connected graph the BFS parent ports form a tree rooted at `root`.
    (tree.expect("BFS parent ports form a tree"), dist)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rmo_graph::{bfs_distances, gen};

    #[test]
    fn distributed_bfs_matches_sequential_distances() {
        let g = gen::grid(5, 7);
        let net = Network::new(&g, 11);
        let (_, dist, _) = run_bfs(&g, &net, 3).unwrap();
        assert_eq!(dist, bfs_distances(&g, &[3]));
    }

    #[test]
    fn bfs_message_cost_is_2m() {
        let g = gen::random_connected(60, 150, 4);
        let net = Network::new(&g, 4);
        let (_, _, cost) = run_bfs(&g, &net, 0).unwrap();
        assert_eq!(
            cost.messages,
            2 * g.m() as u64,
            "each endpoint announces once"
        );
    }

    #[test]
    fn bfs_round_cost_is_linear_in_depth() {
        let g = gen::path(40);
        let net = Network::new(&g, 1);
        let (tree, _, cost) = run_bfs(&g, &net, 0).unwrap();
        assert_eq!(tree.depth(), 39);
        // announcement wave takes D rounds + constant bookkeeping
        assert!(cost.rounds <= 39 + 3, "rounds = {}", cost.rounds);
    }

    #[test]
    fn bfs_tree_parents_strictly_closer() {
        let g = gen::gnp_connected(50, 0.08, 9);
        let net = Network::new(&g, 9);
        let (tree, dist, _) = run_bfs(&g, &net, 7).unwrap();
        for v in 0..50 {
            if v != 7 {
                assert_eq!(dist[tree.parent_of(v).unwrap()] + 1, dist[v]);
            }
        }
    }

    #[test]
    fn bfs_on_single_edge() {
        let g = gen::path(2);
        let net = Network::new(&g, 0);
        let (tree, dist, _) = run_bfs(&g, &net, 1).unwrap();
        assert_eq!(tree.root(), 1);
        assert_eq!(dist, vec![1, 0]);
        assert_eq!(tree.parent_of(0), Some(1));
    }
}
