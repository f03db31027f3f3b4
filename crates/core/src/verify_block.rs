//! Algorithm 2: block-parameter verification.
//!
//! Runs Algorithm 1's broadcast wave with an iteration budget `b`. If
//! every node receives the message, the part's block parameter is within
//! budget and one more wave informs everyone of the exact block count;
//! otherwise, nodes that did not receive it tell their part neighbors
//! (one round, `O(m)` messages), and one further wave (line 5) spreads
//! the verdict to the nodes that *did* receive it — so every node of
//! every part learns whether its part's block parameter exceeds `b`
//! (Lemma 4.5).
//!
//! Either second wave has line 2's inputs, and the wave is a
//! deterministic function of them (the randomized variant's delays are
//! seeded), so it is charged line 2's measured cost instead of being
//! simulated again. The verdict keeps line 2's wave: when it provably
//! repeats at the final block budget, the pipeline keeps it as
//! Algorithm 1's phase A instead of running that wave again.

use rmo_congest::CostReport;
use rmo_graph::{Graph, Partition};

use crate::solve::{run_wave, PaSetup, Variant, WaveOutcome, WavePlan};

/// The verdict of Algorithm 2.
#[derive(Debug, Clone)]
pub struct BlockVerification {
    /// `exceeds[p]` — whether part `p`'s block parameter exceeds the
    /// budget `b` under the given shortcut.
    pub exceeds: Vec<bool>,
    /// Charged cost: two waves, plus one notification round when some
    /// part exceeds the budget.
    pub cost: CostReport,
    /// Line 2's wave, at budget `b`.
    pub wave: WaveOutcome,
}

/// Runs Algorithm 2 with budget `b = setup.block_budget` on the parts of
/// `parts`, on a `plan` built (with [`WavePlan::build`]) for `parts` and
/// the setup's tree, shortcut and division.
pub fn verify_block_parameter(
    g: &Graph,
    parts: &Partition,
    setup: &PaSetup<'_>,
    plan: &WavePlan,
    variant: Variant,
) -> BlockVerification {
    // Line 2: broadcast an arbitrary message with budget b.
    let wave = run_wave(g, parts, setup, plan, variant);
    let mut cost = wave.cost;
    let mut exceeds = vec![false; parts.num_parts()];
    for (v, &ok) in wave.informed.iter().enumerate() {
        if !ok {
            exceeds[parts.part_of(v)] = true;
        }
    }
    // Lines 3-4: nodes that did not receive m̄ tell their part neighbors.
    if exceeds.iter().any(|&e| e) {
        let mut notify = 0u64;
        for v in 0..g.n() {
            if !wave.informed[v] {
                notify += g
                    .neighbors(v)
                    .filter(|&(u, _)| parts.part_of(u) == parts.part_of(v))
                    .count() as u64;
            }
        }
        cost += CostReport::new(1, notify);
    }
    // Line 5 (one more wave spreads the verdict among informed nodes) or
    // line 9 (one more wave communicates the exact block count): either
    // repeats line 2's wave.
    cost += wave.cost;
    BlockVerification {
        exceeds,
        cost,
        wave,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solve::broadcast_wave_outcome;
    use crate::subparts::SubPartDivision;
    use rmo_graph::{bfs_tree, gen, NodeId};
    use rmo_shortcut::trivial::trivial_shortcut_with_threshold;

    fn plan_for(g: &Graph, parts: &Partition, setup: &PaSetup<'_>) -> WavePlan {
        WavePlan::build(g, setup.tree, setup.shortcut, setup.division, parts)
    }

    #[test]
    fn good_shortcut_passes() {
        let g = gen::grid(6, 6);
        let parts = Partition::new(&g, gen::grid_row_partition(6, 6)).unwrap();
        let (tree, _) = bfs_tree(&g, 0);
        let sc = trivial_shortcut_with_threshold(&tree, &parts, 1);
        let leaders: Vec<NodeId> = parts.part_ids().map(|p| parts.members(p)[0]).collect();
        let division = SubPartDivision::one_per_part(&g, &parts, &leaders);
        let setup = PaSetup {
            tree: &tree,
            shortcut: &sc,
            division: &division,
            leaders: &leaders,
            block_budget: 1,
        };
        let plan = plan_for(&g, &parts, &setup);
        let v = verify_block_parameter(&g, &parts, &setup, &plan, Variant::Deterministic);
        assert!(v.exceeds.iter().all(|&e| !e));
    }

    #[test]
    fn starved_budget_flags_parts() {
        // Empty shortcut + multi-sub-part part: budget 1 cannot cover it.
        let g = gen::path(16);
        let parts = Partition::whole(&g).unwrap();
        let (tree, _) = bfs_tree(&g, 0);
        let sc = rmo_shortcut::Shortcut::empty(1);
        let division = SubPartDivision::new(
            &g,
            &parts,
            (0..16).map(|v| v / 4).collect(),
            (0..16usize)
                .map(|v| if v % 4 == 0 { None } else { Some(v - 1) })
                .collect(),
            vec![0, 4, 8, 12],
        )
        .unwrap();
        let setup = |b: usize| PaSetup {
            tree: &tree,
            shortcut: &sc,
            division: &division,
            leaders: &[0],
            block_budget: b,
        };
        let plan = plan_for(&g, &parts, &setup(1));
        let v = verify_block_parameter(&g, &parts, &setup(1), &plan, Variant::Deterministic);
        assert!(v.exceeds[0], "budget 1 cannot cover 4 singleton blocks");
        let v4 = verify_block_parameter(&g, &parts, &setup(4), &plan, Variant::Deterministic);
        assert!(!v4.exceeds[0], "budget 4 suffices");
    }

    #[test]
    fn cost_is_about_two_waves_on_success() {
        let g = gen::grid(4, 4);
        let parts = Partition::new(&g, gen::grid_row_partition(4, 4)).unwrap();
        let (tree, _) = bfs_tree(&g, 0);
        let sc = trivial_shortcut_with_threshold(&tree, &parts, 1);
        let leaders: Vec<NodeId> = parts.part_ids().map(|p| parts.members(p)[0]).collect();
        let division = SubPartDivision::one_per_part(&g, &parts, &leaders);
        let setup = PaSetup {
            tree: &tree,
            shortcut: &sc,
            division: &division,
            leaders: &leaders,
            block_budget: 1,
        };
        let wave = broadcast_wave_outcome(&g, &parts, &setup, Variant::Deterministic);
        let plan = plan_for(&g, &parts, &setup);
        let v = verify_block_parameter(&g, &parts, &setup, &plan, Variant::Deterministic);
        assert_eq!(v.cost.rounds, 2 * wave.cost.rounds);
        assert_eq!(v.cost.messages, 2 * wave.cost.messages);
    }
}
