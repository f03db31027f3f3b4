//! Differential equivalence: the flat-arena, active-set [`Simulator`]
//! must be **bit-for-bit** equivalent to the dense-sweep
//! [`ReferenceSimulator`] — same program end states ("responses"), same
//! rounds, same messages, same per-round [`RoundStats`] — on random
//! graphs × all five building-block programs × random seeds, plus the
//! BFS-tree-fed `TreeRouter` jobs that ride on the simulated trees.

use proptest::prelude::*;

use rmo_congest::programs::bfs::{extract_tree, BfsProgram};
use rmo_congest::programs::broadcast::TreeBroadcast;
use rmo_congest::programs::convergecast::TreeConvergecast;
use rmo_congest::programs::leader::LeaderElect;
use rmo_congest::programs::pipeline::PipelineBroadcast;
use rmo_congest::reference::ReferenceSimulator;
use rmo_congest::{
    CostReport, DowncastJob, Network, NodeProgram, PortId, RoundStats, Simulator, TreeRouter,
    UpcastJob,
};
use rmo_graph::{gen, Graph, NodeId, RootedTree};

/// Runs one program family on both engines and returns
/// `(fast cost, fast history, reference cost, reference history)`,
/// asserting the per-node end states match via `snapshot`.
fn run_both<P: NodeProgram, S: PartialEq + std::fmt::Debug>(
    net: &Network,
    max_rounds: usize,
    make: impl Fn(NodeId) -> P + Copy,
    snapshot: impl Fn(&P) -> S,
) -> (CostReport, Vec<RoundStats>, CostReport, Vec<RoundStats>) {
    let mut fast = Simulator::new(net, make);
    fast.trace_rounds(true);
    let fast_cost = fast.run_until_quiescent(max_rounds).expect("fast run");
    let mut dense = ReferenceSimulator::new(net, make);
    let dense_cost = dense.run_until_quiescent(max_rounds).expect("dense run");
    for v in 0..net.n() {
        assert_eq!(
            snapshot(fast.program(v)),
            snapshot(dense.program(v)),
            "node {v} end state diverged"
        );
    }
    (
        fast_cost,
        fast.round_history().to_vec(),
        dense_cost,
        dense.round_history().to_vec(),
    )
}

/// Full bit-match battery for one `(graph, seed)` instance.
fn check_instance(g: &Graph, seed: u64) {
    let net = Network::new(g, seed);
    let n = g.n();
    let cap = 4 * n + 4;
    let root = usize::try_from(seed % n as u64).expect("below n");

    // BFS.
    let (fc, fh, dc, dh) = run_both(
        &net,
        cap,
        |v| BfsProgram::new(v == root),
        |p| (p.distance(), p.parent_port()),
    );
    assert_eq!((fc, &fh), (dc, &dh), "bfs cost/history");

    // The fast-built and dense-built BFS trees are identical; reuse one.
    let mut sim = Simulator::new(&net, |v| BfsProgram::new(v == root));
    sim.run_until_quiescent(cap).expect("bfs for tree");
    let (tree, _) = extract_tree(g, &net, root, |v| {
        let p = sim.program(v);
        (p.distance(), p.parent_port())
    });

    let child_ports = |v: NodeId| -> Vec<PortId> {
        tree.children_of(v)
            .iter()
            .map(|&c| net.port_for_edge(v, tree.parent_edge_of(c).expect("child edge")))
            .collect()
    };
    let parent_port = |v: NodeId| {
        tree.parent_edge_of(v)
            .map(|e| net.port_for_edge(v, e))
            .unwrap_or(usize::MAX)
    };

    // Tree broadcast (known child ports).
    let (fc, fh, dc, dh) = run_both(
        &net,
        cap,
        |v| {
            let prog = if v == tree.root() {
                TreeBroadcast::root(seed ^ 0xB0)
            } else {
                TreeBroadcast::node(parent_port(v))
            };
            prog.with_children(child_ports(v))
        },
        |p| p.value(),
    );
    assert_eq!((fc, &fh), (dc, &dh), "broadcast cost/history");

    // Tree convergecast.
    let (fc, fh, dc, dh) = run_both(
        &net,
        cap,
        |v| {
            let pp = tree.parent_edge_of(v).map(|e| net.port_for_edge(v, e));
            TreeConvergecast::new(
                (v as u64).wrapping_mul(seed | 1),
                u64::wrapping_add,
                pp,
                tree.children_of(v).len(),
            )
        },
        |p| p.result(),
    );
    assert_eq!((fc, &fh), (dc, &dh), "convergecast cost/history");

    // Leader election.
    let (fc, fh, dc, dh) = run_both(&net, cap, |_| LeaderElect::new(), |p| p.leader_id());
    assert_eq!((fc, &fh), (dc, &dh), "election cost/history");

    // Pipelined k-token broadcast.
    let tokens: Vec<u64> = (0..(seed % 9) + 2).map(|t| t * 31 + seed).collect();
    let (fc, fh, dc, dh) = run_both(
        &net,
        4 * (n + tokens.len()) + 8,
        |v| {
            if v == tree.root() {
                PipelineBroadcast::root(tokens.clone(), child_ports(v))
            } else {
                PipelineBroadcast::node(parent_port(v), child_ports(v))
            }
        },
        |p| p.received().to_vec(),
    );
    assert_eq!((fc, &fh), (dc, &dh), "pipeline cost/history");

    // Router jobs on the simulated tree: the router is deterministic in
    // the tree, and both engines produced the identical tree above — so
    // upcast/downcast results are a pure function of what the simulator
    // built. Exercise them once per instance for the end-to-end chain.
    check_router(&tree, seed);
}

fn check_router(tree: &RootedTree, seed: u64) {
    let router = TreeRouter::new(tree);
    let n = tree.n();
    let sources: Vec<(NodeId, u64)> = (0..n)
        .filter(|&v| (v as u64 ^ seed).is_multiple_of(3) && v != tree.root())
        .map(|v| (v, v as u64 + 1))
        .collect();
    let jobs = vec![UpcastJob {
        subtree: 0,
        root: tree.root(),
        sources: sources.clone(),
    }];
    let up = router.upcast(&jobs, u64::wrapping_add);
    if sources.is_empty() {
        assert_eq!(up.aggregates[0], None);
    } else {
        assert_eq!(
            up.aggregates[0],
            Some(sources.iter().map(|&(_, x)| x).sum::<u64>()),
            "upcast aggregate"
        );
    }
    let destinations: Vec<NodeId> = (0..n).filter(|&v| v != tree.root()).collect();
    let down = router.downcast(&[DowncastJob {
        subtree: 0,
        root: tree.root(),
        value: seed,
        destinations: destinations.clone(),
    }]);
    for &d in &destinations {
        assert_eq!(down.received[d], vec![(0, seed)], "downcast delivery");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn fast_simulator_matches_dense_reference_on_gnp(
        n in 4usize..48,
        p_mil in 60usize..400,
        seed in 0u64..10_000,
    ) {
        let g = gen::gnp_connected(n, p_mil as f64 / 1000.0, seed);
        check_instance(&g, seed);
    }

    #[test]
    fn fast_simulator_matches_dense_reference_on_grids(
        rows in 2usize..8,
        cols in 2usize..8,
        seed in 0u64..10_000,
    ) {
        let g = gen::grid(rows, cols);
        check_instance(&g, seed);
    }

    #[test]
    fn fast_simulator_matches_dense_reference_on_ktrees(
        n in 6usize..48,
        k in 2usize..4,
        seed in 0u64..10_000,
    ) {
        let g = gen::ktree(n, k, seed);
        check_instance(&g, seed);
    }
}

#[test]
fn capacity_multiplier_runs_match_too() {
    // The relaxed-capacity regime (randomized PA's O(log n) batches).
    let g = gen::gnp_connected(24, 0.2, 5);
    let net = Network::new(&g, 5);
    struct Burst {
        fired: bool,
    }
    impl NodeProgram for Burst {
        fn on_round(&mut self, ctx: &mut rmo_congest::RoundCtx<'_>) {
            if !self.fired {
                self.fired = true;
                for p in 0..ctx.degree() {
                    ctx.send(p, rmo_congest::Payload::one(1, 10));
                    ctx.send(p, rmo_congest::Payload::one(1, 20));
                    ctx.send(p, rmo_congest::Payload::one(1, 30));
                }
            }
        }
        fn wants_round(&self) -> bool {
            !self.fired
        }
    }
    let mut fast = Simulator::with_capacity(&net, 3, |_| Burst { fired: false });
    fast.trace_rounds(true);
    let fc = fast.run_until_quiescent(50).unwrap();
    let mut dense = ReferenceSimulator::with_capacity(&net, 3, |_| Burst { fired: false });
    let dc = dense.run_until_quiescent(50).unwrap();
    assert_eq!(fc, dc);
    assert_eq!(fast.round_history(), dense.round_history());
    assert_eq!(fc.capacity_multiplier, 3);
}

#[test]
fn capacity_violations_agree() {
    let g = gen::path(3);
    let net = Network::new(&g, 1);
    struct Spam;
    impl NodeProgram for Spam {
        fn on_round(&mut self, ctx: &mut rmo_congest::RoundCtx<'_>) {
            if ctx.round() == 0 {
                ctx.send(0, rmo_congest::Payload::tag_only(1));
                ctx.send(0, rmo_congest::Payload::tag_only(2));
            }
        }
        fn wants_round(&self) -> bool {
            true
        }
    }
    let fast_err = Simulator::new(&net, |_| Spam)
        .run_until_quiescent(5)
        .unwrap_err();
    let dense_err = ReferenceSimulator::new(&net, |_| Spam)
        .run_until_quiescent(5)
        .unwrap_err();
    assert_eq!(fast_err, dense_err, "same node, port and round reported");
}

#[test]
fn round_caps_bind_identically() {
    // The exact round cap errors at the same boundary on both engines.
    let g = gen::cycle(6);
    let net = Network::new(&g, 2);
    struct Chatter;
    impl NodeProgram for Chatter {
        fn on_round(&mut self, ctx: &mut rmo_congest::RoundCtx<'_>) {
            ctx.send(0, rmo_congest::Payload::tag_only(1));
        }
        fn wants_round(&self) -> bool {
            true
        }
    }
    for cap in [0usize, 1, 3, 7] {
        let fast = Simulator::new(&net, |_| Chatter).run_until_quiescent(cap);
        let dense = ReferenceSimulator::new(&net, |_| Chatter).run_until_quiescent(cap);
        assert_eq!(fast, dense, "cap {cap}");
        assert!(fast.is_err());
    }
}
