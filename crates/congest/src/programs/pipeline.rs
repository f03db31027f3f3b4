//! Pipelined multi-token broadcast: the root injects `k` tokens, every
//! node receives all of them in `O(depth + k)` rounds — the classic
//! CONGEST pipelining pattern that underlies the `O(D + c)` shape of
//! BlockRoute (Lemma 4.2) in its simplest form.
//!
//! Each node forwards tokens down its tree children in FIFO order, one
//! per child edge per round; `k` tokens stream behind each other instead
//! of taking `k·depth` rounds.
//!
//! Active-set contract audit: `wants_round` is true exactly while
//! tokens remain to inject or forward; with an empty inbox and both
//! queues drained, `on_round` pops nothing and sends nothing.

use std::collections::VecDeque;

use rmo_graph::{Graph, NodeId, RootedTree};

use crate::network::{Network, PortId};
use crate::payload::Payload;
use crate::sim::{NodeProgram, RoundCtx, SimError, Simulator};
use crate::CostReport;

const TAG_TOKEN: u16 = 5;

/// Per-node state of the pipelined broadcast.
pub struct PipelineBroadcast {
    /// Tokens to inject (root only), reversed so `pop` yields in order.
    inject: Vec<u64>,
    parent_port: Option<PortId>,
    child_ports: Vec<PortId>,
    /// Tokens received, in arrival order.
    received: Vec<u64>,
    /// Tokens awaiting forwarding.
    queue: VecDeque<u64>,
}

impl PipelineBroadcast {
    /// The root, injecting `tokens` in order.
    pub fn root(mut tokens: Vec<u64>, child_ports: Vec<PortId>) -> PipelineBroadcast {
        tokens.reverse();
        PipelineBroadcast {
            inject: tokens,
            parent_port: None,
            child_ports,
            received: Vec::new(),
            queue: VecDeque::new(),
        }
    }

    /// A non-root node with its tree ports.
    pub fn node(parent_port: PortId, child_ports: Vec<PortId>) -> PipelineBroadcast {
        PipelineBroadcast {
            inject: Vec::new(),
            parent_port: Some(parent_port),
            child_ports,
            received: Vec::new(),
            queue: VecDeque::new(),
        }
    }

    /// Tokens received so far (in order).
    pub fn received(&self) -> &[u64] {
        &self.received
    }
}

impl NodeProgram for PipelineBroadcast {
    fn on_round(&mut self, ctx: &mut RoundCtx<'_>) {
        // Receive from the parent.
        for &(p, msg) in ctx.inbox() {
            if msg.tag == TAG_TOKEN && Some(p) == self.parent_port {
                self.received.push(msg.a);
                self.queue.push_back(msg.a);
            }
        }
        // Root injects one fresh token per round (itself pipelined).
        if self.parent_port.is_none() {
            if let Some(t) = self.inject.pop() {
                self.received.push(t);
                self.queue.push_back(t);
            }
        }
        // Forward one queued token to every child edge this round.
        if let Some(t) = self.queue.pop_front() {
            for &c in &self.child_ports {
                ctx.send(c, Payload::one(TAG_TOKEN, t));
            }
        }
    }

    fn wants_round(&self) -> bool {
        !self.inject.is_empty() || !self.queue.is_empty()
    }
}

/// Broadcasts `tokens` from `tree.root()` to every node, pipelined.
/// Returns the per-node received sequences and the exact cost.
///
/// # Errors
/// Propagates simulator errors.
pub fn run_pipeline_broadcast(
    g: &Graph,
    net: &Network,
    tree: &RootedTree,
    tokens: &[u64],
) -> Result<(Vec<Vec<u64>>, CostReport), SimError> {
    let child_ports = |v: NodeId| -> Vec<PortId> {
        tree.children_of(v)
            .iter()
            .map(|&c| net.port_for_edge(v, tree.parent_edge_of(c).expect("child edge")))
            .collect()
    };
    let mut sim = Simulator::new(net, |v: NodeId| {
        if v == tree.root() {
            PipelineBroadcast::root(tokens.to_vec(), child_ports(v))
        } else {
            let pe = tree.parent_edge_of(v).expect("non-root");
            PipelineBroadcast::node(net.port_for_edge(v, pe), child_ports(v))
        }
    });
    let cost = sim.run_until_quiescent(4 * (g.n() + tokens.len()) + 8)?;
    let received = (0..g.n())
        .map(|v| sim.program(v).received().to_vec())
        .collect();
    Ok((received, cost))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::programs::bfs::run_bfs;
    use rmo_graph::gen;

    #[test]
    fn all_tokens_reach_everyone_in_order() {
        let g = gen::grid(5, 5);
        let net = Network::new(&g, 4);
        let (tree, _, _) = run_bfs(&g, &net, 0).unwrap();
        let tokens: Vec<u64> = (100..120).collect();
        let (recv, _) = run_pipeline_broadcast(&g, &net, &tree, &tokens).unwrap();
        assert_eq!(recv.len(), g.n());
        for (v, got) in recv.iter().enumerate() {
            assert_eq!(got, &tokens, "node {v} order/content");
        }
    }

    #[test]
    fn rounds_are_depth_plus_k_not_product() {
        let g = gen::path(40);
        let net = Network::new(&g, 1);
        let (tree, _, _) = run_bfs(&g, &net, 0).unwrap();
        let k = 30usize;
        let tokens: Vec<u64> = (0..k as u64).collect();
        let (_, cost) = run_pipeline_broadcast(&g, &net, &tree, &tokens).unwrap();
        let depth = tree.depth();
        assert!(
            cost.rounds <= depth + k + 4,
            "rounds {} should be ~D+k = {}",
            cost.rounds,
            depth + k
        );
        assert!(cost.rounds >= depth.max(k), "cannot beat max(D, k)");
        // One message per token per tree edge.
        assert_eq!(cost.messages, (k * (g.n() - 1)) as u64);
    }

    #[test]
    fn single_token_reduces_to_plain_broadcast() {
        let g = gen::balanced_binary_tree(5);
        let net = Network::new(&g, 2);
        let (tree, _, _) = run_bfs(&g, &net, 0).unwrap();
        let (recv, cost) = run_pipeline_broadcast(&g, &net, &tree, &[7]).unwrap();
        assert!(recv.iter().all(|r| r == &[7]));
        assert_eq!(cost.messages, (g.n() - 1) as u64);
    }

    #[test]
    fn empty_token_list_is_free() {
        let g = gen::path(5);
        let net = Network::new(&g, 0);
        let (tree, _, _) = run_bfs(&g, &net, 0).unwrap();
        let (recv, cost) = run_pipeline_broadcast(&g, &net, &tree, &[]).unwrap();
        assert!(recv.iter().all(Vec::is_empty));
        assert_eq!(cost.messages, 0);
    }
}
