//! Property-based tests of the core data structures and sub-algorithms:
//! shortcut quality invariants, the block count against the built
//! blocks, Algorithm 7's congestion bound, star joinings, sub-part
//! divisions and the tree router.

use proptest::prelude::*;

use rmo::congest::router::{TreeRouter, UpcastJob};
use rmo::core::star_join::star_joining;
use rmo::core::subparts_det::deterministic_division;
use rmo::core::subparts_random::random_division;
use rmo::graph::{bfs_tree, gen, num::ceil_log2, Partition};
use rmo::shortcut::alg7::construct_on_path;
use rmo::shortcut::alg8::{construct_deterministic, DetParams};
use rmo::shortcut::corefast::{construct_randomized, RandParams};
use rmo::shortcut::trivial::trivial_shortcut;
use rmo::shortcut::{quality, BlockCounter, Shortcut};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn alg7_respects_lemma_6_6(
        len in 2usize..300,
        c in 1usize..10,
        density in 1usize..4,
        seed in 0u64..100,
    ) {
        let nodes: Vec<usize> = (0..len).collect();
        let edges: Vec<usize> = (0..len - 1).collect();
        let mut requests: Vec<Vec<usize>> = vec![Vec::new(); len];
        let mut part = 0usize;
        for (i, r) in requests.iter_mut().enumerate() {
            if (i as u64).wrapping_mul(seed | 1).is_multiple_of(density as u64) {
                r.push(part);
                part += 1;
            }
        }
        let res = construct_on_path(&nodes, &edges, &requests, c);
        let log_d = ceil_log2(len) + 1;
        prop_assert!(res.max_edge_load <= 2 * c * log_d,
            "load {} > 2c logD {}", res.max_edge_load, 2 * c * log_d);
        prop_assert!(res.cost.rounds <= 2 * (c * log_d + len),
            "rounds {} over Lemma 6.6", res.cost.rounds);
        // Parts that reached the top from strictly below must have claimed
        // edges on the way (parts entering at the top claim nothing).
        let top_entrants = &requests[len - 1];
        for p in &res.reached_top {
            if !top_entrants.contains(p) {
                prop_assert!(res.claimed.iter().any(|(q, _)| q == p));
            }
        }
    }

    #[test]
    fn alg8_congestion_envelope(
        side_r in 3usize..8,
        side_c in 3usize..10,
        budget in 2usize..8,
    ) {
        let g = gen::grid(side_r, side_c);
        let parts = Partition::new(&g, gen::grid_row_partition(side_r, side_c)).unwrap();
        let (tree, _) = bfs_tree(&g, 0);
        let terminals: Vec<Vec<usize>> = parts
            .part_ids()
            .map(|p| {
                let m = parts.members(p);
                vec![m[0], m[m.len() - 1]]
            })
            .collect();
        let res = construct_deterministic(
            &g, &tree, &parts, &terminals,
            DetParams::new(budget, budget, parts.num_parts()),
        );
        let q = quality::measure(&g, &parts, &res.shortcut);
        let log_d = ceil_log2(tree.depth().max(2)) + 1;
        prop_assert!(
            q.congestion <= 2 * budget * log_d * res.iterations.max(1) + res.iterations,
            "congestion {} breaks the Lemma 6.7 envelope", q.congestion
        );
    }

    #[test]
    fn block_count_matches_the_built_blocks(
        n in 4usize..80,
        extra in 0usize..80,
        seed in 0u64..1000,
        target in 1usize..8,
        root in 0usize..80,
        budget in 1usize..5,
    ) {
        let m = (n - 1 + extra).min(n * (n - 1) / 2);
        let g = gen::random_connected(n, m, seed);
        let parts = gen::random_connected_partition(&g, target, seed ^ 5);
        let (tree, _) = bfs_tree(&g, root % n);
        // About two thirds of each part, plus its first member twice.
        let terminals: Vec<Vec<usize>> = parts
            .part_ids()
            .map(|p| {
                let members = parts.members(p);
                let mut t: Vec<usize> = members
                    .iter()
                    .copied()
                    .filter(|&v| !(v as u64 ^ seed).is_multiple_of(3))
                    .collect();
                t.extend(members.first().into_iter().flat_map(|&v| [v, v]));
                t
            })
            .collect();
        // An arbitrary tree-edge subset per part.
        let tree_edges = tree.tree_edge_ids();
        let picked = parts
            .part_ids()
            .map(|p| {
                tree_edges
                    .iter()
                    .copied()
                    .filter(|&e| (e as u64).wrapping_mul(seed | 1).wrapping_add(p as u64).is_multiple_of(3))
                    .collect()
            })
            .collect();
        let k = parts.num_parts();
        let shortcuts = [
            construct_deterministic(&g, &tree, &parts, &terminals, DetParams::new(budget, budget, k))
                .shortcut,
            construct_randomized(&g, &tree, &parts, &terminals, RandParams::new(budget, budget, k, seed))
                .shortcut,
            trivial_shortcut(&g, &tree, &parts),
            Shortcut::new(&parts, &tree, picked).unwrap(),
        ];
        let mut counter = BlockCounter::new();
        for sc in &shortcuts {
            for p in parts.part_ids() {
                for t in [&terminals[p][..], parts.members(p), &[]] {
                    let blocks = sc.blocks_for_terminals(&g, &tree, p, t);
                    prop_assert_eq!(counter.count(&g, sc.edges_of(p), t), blocks.len());
                    // Blocks by ascending root; each one's terminals ascending.
                    prop_assert!(blocks.windows(2).all(|w| w[0].root < w[1].root));
                    for b in &blocks {
                        prop_assert!(b.part_nodes.windows(2).all(|w| w[0] < w[1]));
                    }
                }
            }
        }
    }

    #[test]
    fn star_joining_always_stars_and_merges(
        n in 2usize..80,
        seed in 0u64..500,
    ) {
        let out: Vec<Option<usize>> = (0..n)
            .map(|i| {
                let mut t = usize::try_from((i as u64).wrapping_mul(seed | 1).wrapping_add(seed) % n as u64)
                    .expect("below n");
                if t == i { t = (t + 1) % n; }
                Some(t)
            })
            .collect();
        let ids: Vec<u64> = (0..n as u64).map(|i| i.wrapping_mul(0x9e3779b97f4a7c15) | 1).collect();
        let r = star_joining(&out, &ids);
        // Star property.
        for j in r.joins.iter().flatten() {
            prop_assert!(r.joins[*j].is_none());
        }
        // Constant-fraction merge.
        let survivors = n - r.joiner_count();
        prop_assert!(survivors * 4 <= 3 * n + 4, "{survivors}/{n} survive");
    }

    #[test]
    fn divisions_satisfy_definition_4_1(
        n in 8usize..120,
        extra in 0usize..60,
        d in 2usize..20,
        seed in 0u64..100,
        target in 1usize..5,
    ) {
        let m = (n - 1 + extra).min(n * (n - 1) / 2);
        let g = gen::random_connected(n, m, seed);
        let parts = gen::random_connected_partition(&g, target, seed ^ 3);
        let leaders: Vec<usize> = parts.part_ids().map(|p| parts.members(p)[0]).collect();

        let rand = random_division(&g, &parts, &leaders, d, seed);
        let det = deterministic_division(&g, &parts, d);
        for div in [&rand.division, &det.division] {
            // Coverage and containment.
            for v in 0..n {
                let s = div.subpart_of(v);
                prop_assert_eq!(div.part_of_subpart(s), parts.part_of(v));
            }
            // Reps are members of their sub-parts with depth 0.
            for s in 0..div.num_subparts() {
                let r = div.rep_of_subpart(s);
                prop_assert_eq!(div.subpart_of(r), s);
                prop_assert_eq!(div.depth_of(r), 0);
            }
        }
        // Deterministic division: complete sub-parts hold >= min(d, |part|)
        // nodes, so each part has at most |P|/d + 1 sub-parts... within the
        // star-joining constant.
        for p in parts.part_ids() {
            let count = det.division.subpart_count_of_part(p);
            let bound = parts.part_size(p) / d + 1;
            prop_assert!(count <= 2 * bound, "part {p}: {count} sub-parts > {bound}");
        }
    }

    #[test]
    fn router_delivers_and_respects_bounds(
        len in 2usize..60,
        jobs_n in 1usize..12,
        seed in 0u64..100,
    ) {
        let g = gen::path(len);
        let (tree, _) = bfs_tree(&g, 0);
        let router = TreeRouter::new(&tree);
        let jobs: Vec<UpcastJob> = (0..jobs_n)
            .map(|j| {
                let src = 1 + usize::try_from((j as u64 * 7 + seed) % (len as u64 - 1)).expect("below len");
                UpcastJob { subtree: j, root: 0, sources: vec![(src, j as u64 + 1)] }
            })
            .collect();
        let res = router.upcast(&jobs, u64::max);
        for (j, agg) in res.aggregates.iter().enumerate() {
            prop_assert_eq!(*agg, Some(j as u64 + 1));
        }
        // Lemma 4.2 envelope: rounds <= D + c.
        prop_assert!(res.cost.rounds <= (len - 1) + jobs_n,
            "rounds {} > D + c", res.cost.rounds);
        // Observation 4.3: messages <= |S| * D.
        prop_assert!(res.cost.messages <= (jobs_n * (len - 1)) as u64);
    }
}
