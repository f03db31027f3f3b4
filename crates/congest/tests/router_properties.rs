//! Property tests of the BlockRoute engine (Lemma 4.2): delivery,
//! aggregation correctness against a centralized fold, the `D + c` round
//! envelope and the Observation 4.3 message bound — on random trees with
//! random subtree families.

use proptest::prelude::*;

use rmo_congest::router::{DowncastJob, TreeRouter, UpcastJob};
use rmo_graph::{bfs_tree, gen};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn upcast_aggregates_correctly_on_random_trees(
        n in 2usize..80,
        tree_seed in 0u64..300,
        jobs_n in 1usize..10,
        srcs_per_job in 1usize..6,
        mix in 0u64..1000,
    ) {
        let g = gen::random_spanning_tree(n, tree_seed);
        let (tree, _) = bfs_tree(&g, 0);
        let router = TreeRouter::new(&tree);
        // All jobs rooted at the tree root: every node is a descendant.
        let jobs: Vec<UpcastJob> = (0..jobs_n)
            .map(|j| {
                let sources: Vec<(usize, u64)> = (0..srcs_per_job)
                    .map(|s| {
                        let v = usize::try_from(((j * 31 + s * 17) as u64 ^ mix) % n as u64)
                            .expect("below n");
                        (v, (j * 100 + s) as u64 + 1)
                    })
                    .collect();
                UpcastJob { subtree: j, root: tree.root(), sources }
            })
            .collect();
        let res = router.upcast(&jobs, |a, b| a.max(b));
        for (j, job) in jobs.iter().enumerate() {
            let expect = job.sources.iter().map(|&(_, v)| v).max();
            prop_assert_eq!(res.aggregates[j], expect, "job {}", j);
        }
        // Lemma 4.2: rounds <= depth + #subtrees.
        prop_assert!(res.cost.rounds <= tree.depth() + jobs_n);
        // Observation 4.3: messages <= (#sources) * depth.
        let total_sources: usize = jobs.iter().map(|j| j.sources.len()).sum();
        prop_assert!(res.cost.messages <= (total_sources * tree.depth().max(1)) as u64);
    }

    #[test]
    fn upcast_sum_merging_is_lossless(
        n in 2usize..60,
        tree_seed in 0u64..200,
        srcs in 1usize..20,
    ) {
        let g = gen::random_spanning_tree(n, tree_seed);
        let (tree, _) = bfs_tree(&g, 0);
        let router = TreeRouter::new(&tree);
        let sources: Vec<(usize, u64)> =
            (0..srcs).map(|s| ((s * 13 + 7) % n, 1u64)).collect();
        // Sources at the same node pre-merge; compute the expected sum of
        // all injected values regardless.
        let expected: u64 = sources.len() as u64;
        let jobs = vec![UpcastJob { subtree: 0, root: tree.root(), sources }];
        let res = router.upcast(&jobs, |a, b| a + b);
        prop_assert_eq!(res.aggregates[0], Some(expected), "no packet lost or duplicated");
    }

    #[test]
    fn downcast_reaches_exactly_the_destinations(
        n in 2usize..60,
        tree_seed in 0u64..200,
        dest_mask in 0u64..u64::MAX,
    ) {
        let g = gen::random_spanning_tree(n, tree_seed);
        let (tree, _) = bfs_tree(&g, 0);
        let router = TreeRouter::new(&tree);
        let destinations: Vec<usize> =
            (0..n).filter(|v| (dest_mask >> (v % 64)) & 1 == 1).collect();
        let jobs = vec![DowncastJob {
            subtree: 0,
            root: tree.root(),
            value: 42,
            destinations: destinations.clone(),
        }];
        let res = router.downcast(&jobs);
        for v in 0..n {
            let got = res.received[v].iter().any(|&(s, val)| s == 0 && val == 42);
            prop_assert_eq!(got, destinations.contains(&v), "node {}", v);
        }
        // One message per tree edge on the union of root-paths, at most.
        prop_assert!(res.cost.messages <= (n - 1) as u64);
    }

    #[test]
    fn capacity_scaling_reduces_rounds(
        n in 10usize..60,
        jobs_n in 4usize..12,
    ) {
        let g = gen::path(n);
        let (tree, _) = bfs_tree(&g, 0);
        let jobs: Vec<UpcastJob> = (0..jobs_n)
            .map(|j| UpcastJob { subtree: j, root: 0, sources: vec![(n - 1, j as u64)] })
            .collect();
        let strict = TreeRouter::new(&tree).upcast(&jobs, u64::min);
        let batched = TreeRouter::with_capacity(&tree, 4).upcast(&jobs, u64::min);
        prop_assert!(batched.cost.rounds <= strict.cost.rounds);
        prop_assert_eq!(batched.cost.messages, strict.cost.messages,
            "capacity changes scheduling, not message count");
    }
}
