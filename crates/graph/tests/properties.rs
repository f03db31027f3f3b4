//! Property-based tests of the graph substrate: generators produce what
//! they promise, reference algorithms agree with independent oracles, and
//! structural invariants hold on arbitrary inputs.

use proptest::prelude::*;

use rmo_graph::{
    bfs_distances, bfs_tree, biconnected_components, gen, reference, DisjointSets,
    HeavyPathDecomposition, Partition,
};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn random_connected_is_connected_with_exact_m(
        n in 2usize..80,
        extra in 0usize..100,
        seed in 0u64..1000,
    ) {
        let m = (n - 1 + extra).min(n * (n - 1) / 2);
        let g = gen::random_connected(n, m, seed);
        prop_assert!(g.is_connected());
        prop_assert_eq!(g.m(), m);
        prop_assert_eq!(g.n(), n);
    }

    #[test]
    fn kruskal_equals_prim_weight(
        n in 2usize..50,
        extra in 0usize..80,
        seed in 0u64..500,
    ) {
        let m = (n - 1 + extra).min(n * (n - 1) / 2);
        let g = gen::random_connected_weighted(n, m, seed);
        let k = reference::kruskal(&g);
        let p = reference::prim(&g);
        prop_assert_eq!(k.total_weight, p.total_weight);
        prop_assert_eq!(k.edges, p.edges, "distinct weights force a unique MST");
    }

    #[test]
    fn mst_is_acyclic_and_spanning(
        n in 2usize..60,
        extra in 0usize..60,
        seed in 0u64..500,
    ) {
        let m = (n - 1 + extra).min(n * (n - 1) / 2);
        let g = gen::random_connected_weighted(n, m, seed);
        let mst = reference::kruskal(&g);
        let mut dsu = DisjointSets::new(n);
        for &e in &mst.edges {
            let (u, v) = g.endpoints(e);
            prop_assert!(dsu.union(u, v), "cycle in MST");
        }
        prop_assert_eq!(dsu.set_count(), 1);
    }

    #[test]
    fn dijkstra_satisfies_triangle_inequality(
        n in 2usize..40,
        extra in 0usize..50,
        seed in 0u64..300,
    ) {
        let m = (n - 1 + extra).min(n * (n - 1) / 2);
        let g = gen::random_connected_weighted(n, m, seed);
        let d = reference::dijkstra(&g, 0);
        for (_, u, v, w) in g.edges() {
            prop_assert!(d[u] <= d[v].saturating_add(w), "edge ({u},{v}) violates relaxation");
            prop_assert!(d[v] <= d[u].saturating_add(w));
        }
        prop_assert_eq!(d[0], 0);
    }

    #[test]
    fn bfs_tree_depth_equals_max_distance(
        n in 2usize..60,
        extra in 0usize..60,
        seed in 0u64..300,
    ) {
        let m = (n - 1 + extra).min(n * (n - 1) / 2);
        let g = gen::random_connected(n, m, seed);
        let (tree, dist) = bfs_tree(&g, 0);
        prop_assert_eq!(tree.depth(), *dist.iter().max().unwrap());
        prop_assert_eq!(dist.len(), n);
        for (v, &d) in dist.iter().enumerate() {
            prop_assert_eq!(tree.depth_of(v), d, "tree depth = BFS distance");
        }
    }

    #[test]
    fn heavy_paths_cross_log_bound(
        n in 2usize..200,
        seed in 0u64..300,
    ) {
        let g = gen::random_spanning_tree(n, seed);
        let (tree, _) = bfs_tree(&g, 0);
        let hpd = HeavyPathDecomposition::new(&tree);
        let bound = n.ilog2() as usize + 1;
        for v in 0..n {
            prop_assert!(hpd.paths_on_root_walk(&tree, v) <= bound);
        }
    }

    #[test]
    fn stoer_wagner_cut_weight_is_realized(
        n in 3usize..16,
        extra in 2usize..20,
        seed in 0u64..200,
    ) {
        let m = (n - 1 + extra).min(n * (n - 1) / 2);
        let g = gen::random_connected_weighted(n, m, seed);
        let cut = reference::stoer_wagner(&g);
        prop_assert_eq!(cut.weight_on(&g), cut.weight);
        let side_size = cut.side.iter().filter(|&&s| s).count();
        prop_assert!(side_size > 0 && side_size < n, "cut must be proper");
    }

    #[test]
    fn bridges_disconnect_bridgeless_edges_dont(
        n in 3usize..30,
        extra in 0usize..20,
        seed in 0u64..200,
    ) {
        let m = (n - 1 + extra).min(n * (n - 1) / 2);
        let g = gen::random_connected(n, m, seed);
        let bc = biconnected_components(&g);
        for (e, _, _, _) in g.edges() {
            let keep: Vec<bool> = (0..g.m()).map(|x| x != e).collect();
            let (without, _) = g.edge_subgraph(&keep);
            let disconnects = !without.is_connected();
            prop_assert_eq!(
                bc.bridges.contains(&e),
                disconnects,
                "edge {} bridge classification", e
            );
        }
    }

    #[test]
    fn random_partitions_are_valid_and_cover(
        n in 4usize..80,
        extra in 0usize..60,
        parts_n in 1usize..8,
        seed in 0u64..300,
    ) {
        let m = (n - 1 + extra).min(n * (n - 1) / 2);
        let g = gen::random_connected(n, m, seed);
        let p = gen::random_connected_partition(&g, parts_n, seed ^ 5);
        let covered: usize = p.part_ids().map(|i| p.part_size(i)).sum();
        prop_assert_eq!(covered, n);
        // Round-trip through Partition::new revalidates connectivity.
        let p2 = Partition::new(&g, p.assignment().to_vec()).expect("still valid");
        prop_assert_eq!(p2.num_parts(), p.num_parts());
    }

    #[test]
    fn two_sweep_lower_bounds_distances(
        n in 2usize..50,
        extra in 0usize..60,
        seed in 0u64..300,
    ) {
        let m = (n - 1 + extra).min(n * (n - 1) / 2);
        let g = gen::random_connected(n, m, seed);
        let lb = rmo_graph::two_sweep_diameter_lower_bound(&g, 0);
        // It really is a lower bound on some true distance.
        let max_from_any: usize = (0..n)
            .map(|v| *bfs_distances(&g, v).iter().max().unwrap())
            .max()
            .unwrap();
        prop_assert!(lb <= max_from_any);
    }
}
