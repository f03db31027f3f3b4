//! Fidelity checks of the CONGEST substrate: the distributed programs
//! agree with their sequential counterparts on arbitrary graphs, and the
//! simulator's accounting invariants hold.

use proptest::prelude::*;

use rmo::congest::programs::bfs::run_bfs;
use rmo::congest::programs::broadcast::run_tree_broadcast;
use rmo::congest::programs::convergecast::run_tree_convergecast;
use rmo::congest::programs::leader::run_leader_election;
use rmo::congest::Network;
use rmo::graph::{bfs_distances, gen};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn distributed_bfs_equals_sequential(
        n in 2usize..60,
        extra in 0usize..80,
        seed in 0u64..500,
        root_pick in 0usize..1000,
    ) {
        let m = (n - 1 + extra).min(n * (n - 1) / 2);
        let g = gen::random_connected(n, m, seed);
        let net = Network::new(&g, seed);
        let root = root_pick % n;
        let (tree, dist, cost) = run_bfs(&g, &net, root).expect("terminates");
        prop_assert_eq!(&dist, &bfs_distances(&g, &[root]));
        prop_assert_eq!(tree.root(), root);
        // Exactly two announcements per edge.
        prop_assert_eq!(cost.messages, 2 * g.m() as u64);
        // Rounds track the BFS depth, not n.
        let depth = *dist.iter().max().unwrap();
        prop_assert!(cost.rounds <= depth + 3);
        // Parent depths are strictly decreasing toward the root.
        for v in 0..n {
            if v != root {
                prop_assert_eq!(dist[tree.parent_of(v).unwrap()] + 1, dist[v]);
            }
        }
    }

    #[test]
    fn broadcast_then_convergecast_roundtrip(
        n in 2usize..50,
        extra in 0usize..40,
        seed in 0u64..200,
        value in 0u64..1_000_000,
    ) {
        let m = (n - 1 + extra).min(n * (n - 1) / 2);
        let g = gen::random_connected(n, m, seed);
        let net = Network::new(&g, seed ^ 1);
        let (tree, _, _) = run_bfs(&g, &net, 0).expect("terminates");
        let (values, bcost) = run_tree_broadcast(&g, &net, &tree, value).expect("terminates");
        prop_assert!(values.iter().all(|&v| v == value));
        prop_assert_eq!(bcost.messages, (n - 1) as u64);
        // Count the nodes back up: Sum convergecast of ones.
        let ones = vec![1u64; n];
        let (count, ccost) =
            run_tree_convergecast(&g, &net, &tree, &ones, |a, b| a + b).expect("terminates");
        prop_assert_eq!(count, n as u64);
        prop_assert_eq!(ccost.messages, (n - 1) as u64);
    }

    #[test]
    fn election_finds_global_max_id(
        n in 2usize..40,
        extra in 0usize..40,
        seed in 0u64..200,
    ) {
        let m = (n - 1 + extra).min(n * (n - 1) / 2);
        let g = gen::random_connected(n, m, seed);
        let net = Network::new(&g, seed ^ 99);
        let (leader, id, _) = run_leader_election(&g, &net).expect("terminates");
        let max_id = (0..n).map(|v| net.id_of(v)).max().unwrap();
        prop_assert_eq!(id, max_id);
        prop_assert_eq!(net.id_of(leader), max_id);
    }
}

#[test]
fn bfs_on_every_special_topology() {
    let cases = vec![
        gen::torus(4, 5),
        gen::hypercube(5),
        gen::random_regular(40, 4, 1),
        gen::caterpillar(8, 3),
        gen::dumbbell(6, 2),
        gen::lollipop(7, 9),
        gen::broom(10, 10),
    ];
    for g in cases {
        let net = Network::new(&g, 3);
        let (_, dist, _) = run_bfs(&g, &net, 0).expect("terminates");
        assert_eq!(dist, bfs_distances(&g, &[0]));
    }
}
