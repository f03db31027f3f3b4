//! Consistency between Algorithm 2's *behavioral* verdict (did the wave
//! cover everyone within `b` iterations?) and the *structural* block
//! count — on random instances, the two notions of "block parameter
//! exceeds `b`" must agree.

use proptest::prelude::*;

use rmo_core::solve::{PaSetup, Variant, WavePlan};
use rmo_core::subparts_det::deterministic_division;
use rmo_core::verify_block::verify_block_parameter;
use rmo_graph::{bfs_tree, gen};
use rmo_shortcut::alg8::{construct_deterministic, DetParams};
use rmo_shortcut::Shortcut;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn algorithm2_verdict_matches_structural_blocks(
        n in 10usize..70,
        extra in 0usize..50,
        seed in 0u64..200,
        parts_n in 1usize..6,
        budget_pick in 1usize..6,
    ) {
        let m = (n - 1 + extra).min(n * (n - 1) / 2);
        let g = gen::random_connected(n, m, seed);
        let parts = gen::random_connected_partition(&g, parts_n, seed ^ 11);
        let (tree, _) = bfs_tree(&g, 0);
        let leaders: Vec<usize> = parts.part_ids().map(|p| parts.members(p)[0]).collect();
        let d = tree.depth().max(1);
        let division = deterministic_division(&g, &parts, d).division;
        let terminals: Vec<Vec<usize>> =
            parts.part_ids().map(|p| division.reps_of_part(p).to_vec()).collect();
        let built = construct_deterministic(
            &g, &tree, &parts, &terminals,
            DetParams::new(4, 2, parts.num_parts()),
        );
        let sc = built.shortcut;

        // Structural block counts per part (singleton blocks for direct).
        let structural: Vec<usize> = parts
            .part_ids()
            .map(|p| {
                if sc.is_direct(p) {
                    division.subpart_count_of_part(p)
                } else {
                    sc.blocks_for_terminals(&g, &tree, p, &terminals[p]).len()
                }
            })
            .collect();
        let plan = WavePlan::build(&g, &tree, &sc, &division, &parts);
        let verdict = verify_block_parameter(
            &g,
            &parts,
            &PaSetup {
                tree: &tree,
                shortcut: &sc,
                division: &division,
                leaders: &leaders,
                block_budget: budget_pick,
            },
            &plan,
            Variant::Deterministic,
        );
        for p in parts.part_ids() {
            // The wave needs at most `structural[p]` iterations; it cannot
            // exceed the budget if blocks fit (sufficiency). It may still
            // finish early when the wave leaps blocks through part edges,
            // so only the sufficiency direction is exact.
            if structural[p] <= budget_pick {
                prop_assert!(
                    !verdict.exceeds[p],
                    "part {} with {} blocks flagged at budget {}",
                    p, structural[p], budget_pick
                );
            }
        }
    }

    #[test]
    fn empty_shortcut_needs_subpart_many_iterations(
        len in 8usize..60,
        block in 2usize..8,
    ) {
        // A path split into k sub-parts with NO shortcut: the wave needs
        // exactly k iterations, so budget k-1 must flag, budget k must pass.
        let len = (len / block) * block; // multiple of block
        prop_assume!(len >= 2 * block);
        let g = gen::path(len);
        let parts = rmo_graph::Partition::whole(&g).unwrap();
        let (tree, _) = bfs_tree(&g, 0);
        let sc = Shortcut::empty(1);
        let k = len / block;
        let division = rmo_core::SubPartDivision::new(
            &g,
            &parts,
            (0..len).map(|v| v / block).collect(),
            (0..len).map(|v| if v % block == 0 { None } else { Some(v - 1) }).collect(),
            (0..k).map(|s| s * block).collect(),
        ).unwrap();
        let setup = |b: usize| PaSetup {
            tree: &tree,
            shortcut: &sc,
            division: &division,
            leaders: &[0],
            block_budget: b,
        };
        let plan = WavePlan::build(&g, &tree, &sc, &division, &parts);
        let fail = verify_block_parameter(&g, &parts, &setup(k - 1), &plan, Variant::Deterministic);
        prop_assert!(fail.exceeds[0], "budget k-1 must be insufficient");
        let pass = verify_block_parameter(&g, &parts, &setup(k), &plan, Variant::Deterministic);
        prop_assert!(!pass.exceeds[0], "budget k must suffice");
    }
}
