//! Algorithm 9: PA without known leaders (Appendix B, Lemma B.1).
//!
//! Start from the singleton partition where every node leads itself;
//! repeat `O(log n)` times: every sub-partition class `P'ᵢ` that has not
//! yet grown to its full part picks an edge leaving it (within its part),
//! a star joining (Algorithm 5) merges a constant fraction of classes,
//! and the PA algorithm `A` — run on the *current* classes, which do know
//! leaders — informs every member of its new leader. After coarsening,
//! every part knows a leader and one final run of `A` solves the original
//! instance. Overhead: `O(log n · log* n)` invocations of `A`.

use std::collections::BTreeMap;

use rmo_congest::CostReport;
use rmo_graph::{num::ceil_log2, Graph, NodeId, RootedTree};
use rmo_shortcut::trivial::trivial_shortcut;

use crate::instance::{PaError, PaInstance};
use crate::solve::{broadcast_wave_outcome, solve_on, PaResult, PaSetup, Variant};
use crate::star_join::star_joining;
use crate::subparts::SubPartDivision;
use rmo_graph::Partition;

/// Result of leaderless PA: the usual [`PaResult`] plus the leaders that
/// were discovered along the way.
#[derive(Debug, Clone)]
pub struct LeaderlessResult {
    /// The PA outcome (total cost includes all coarsening rounds).
    pub result: PaResult,
    /// Discovered leader of each part.
    pub leaders: Vec<NodeId>,
    /// Coarsening iterations used (`O(log n)`).
    pub coarsening_iterations: usize,
}

/// Cost of one invocation of the underlying PA algorithm `A` on the given
/// intermediate classes: a trivial-shortcut, one-sub-part-per-class run.
/// Its three phases each cost the value-blind phase-A wave.
///
/// # Panics
/// Panics if the wave leaves a node uninformed, which the trivial
/// shortcut's block parameter of 1 rules out.
fn cost_of_a(
    g: &Graph,
    tree: &RootedTree,
    assignment: &[usize],
    leaders: &[NodeId],
    variant: Variant,
) -> CostReport {
    let classes =
        Partition::new(g, assignment.to_vec()).expect("coarsening classes stay connected");
    let sc = trivial_shortcut(g, tree, &classes);
    let division = SubPartDivision::one_per_part(g, &classes, leaders);
    let wave = broadcast_wave_outcome(
        g,
        &classes,
        &PaSetup {
            tree,
            shortcut: &sc,
            division: &division,
            leaders,
            block_budget: 1,
        },
        variant,
    );
    assert!(
        wave.informed.iter().all(|&i| i),
        "trivial shortcut has block parameter 1"
    );
    wave.cost.repeated(3)
}

/// Runs Algorithm 9: solves `inst` without assuming known leaders.
///
/// # Errors
/// Propagates [`PaError`] from the final PA run.
///
/// # Panics
/// Panics if coarsening fails to converge within `4⌈log₂ n⌉ + 8`
/// iterations (contradicting Lemma 6.3).
pub fn leaderless_pa(
    inst: &PaInstance<'_>,
    tree: &RootedTree,
    variant: Variant,
) -> Result<LeaderlessResult, PaError> {
    let g = inst.graph();
    let parts = inst.partition();
    let n = g.n();
    // Lines 1-2: singleton classes, every node its own leader.
    let mut class_of: Vec<usize> = (0..n).collect();
    let mut leader_of_class: BTreeMap<usize, NodeId> = (0..n).map(|v| (v, v)).collect();
    let mut cost = CostReport::zero();
    let max_iters = 4 * ceil_log2(n.max(2)) + 8;
    let mut iterations = 0usize;

    loop {
        // Classes still smaller than their parts pick an exit edge.
        let class_ids: Vec<usize> = leader_of_class.keys().copied().collect();
        let index: BTreeMap<usize, usize> =
            class_ids.iter().enumerate().map(|(k, &c)| (c, k)).collect();
        let mut chosen: Vec<Option<(NodeId, NodeId)>> = vec![None; class_ids.len()];
        for v in 0..n {
            let c = class_of[v];
            for (u, _) in g.neighbors(v) {
                if parts.part_of(u) == parts.part_of(v) && class_of[u] != c {
                    let k = index[&c];
                    if chosen[k].is_none_or(|cur| (v, u) < cur) {
                        chosen[k] = Some((v, u));
                    }
                }
            }
        }
        if chosen.iter().all(Option::is_none) {
            break; // every class spans its part
        }
        iterations += 1;
        assert!(iterations <= max_iters, "coarsening failed to converge");

        // Line 5 costs one run of A (selecting the minimum exit edge is a
        // part-wise aggregation over the classes).
        let (dense_assign, class_order) = remap(&class_of);
        let current_leaders: Vec<NodeId> = class_order.iter().map(|c| leader_of_class[c]).collect();
        let a_cost = cost_of_a(g, tree, &dense_assign, &current_leaders, variant);
        cost += a_cost;

        // Line 6: star joining over classes (O(log* n) runs of A).
        let out_edge: Vec<Option<usize>> = chosen
            .iter()
            .map(|e| e.map(|(_, u)| index[&class_of[u]]))
            .collect();
        let ids: Vec<u64> = class_ids
            .iter()
            .map(|&c| leader_of_class[&c] as u64 + 1)
            .collect();
        let sj = star_joining(&out_edge, &ids);
        cost += a_cost.repeated(sj.steps);

        // Lines 7-9: merge joiners into receivers; members learn the new
        // leader via one more run of A.
        for (k, join) in sj.joins.iter().enumerate() {
            if let Some(rk) = join {
                let from = class_ids[k];
                let into = class_ids[*rk];
                for c in class_of.iter_mut() {
                    if *c == from {
                        *c = into;
                    }
                }
                leader_of_class.remove(&from);
            }
        }
        cost += a_cost;
    }

    // Line 10: every part now has one class; run A on the real instance.
    let leaders: Vec<NodeId> = parts
        .part_ids()
        .map(|p| leader_of_class[&class_of[parts.members(p)[0]]])
        .collect();
    let sc = trivial_shortcut(g, tree, parts);
    let division = SubPartDivision::one_per_part(g, parts, &leaders);
    let mut result = solve_on(
        inst,
        &PaSetup {
            tree,
            shortcut: &sc,
            division: &division,
            leaders: &leaders,
            block_budget: 1,
        },
        variant,
    )?;
    result.cost += cost;
    Ok(LeaderlessResult {
        result,
        leaders,
        coarsening_iterations: iterations,
    })
}

/// Densely remaps arbitrary class ids to `0..k` for `Partition::new`,
/// returning the dense assignment plus, for each dense id, the original
/// class id (so leaders can be looked up consistently).
fn remap(class_of: &[usize]) -> (Vec<usize>, Vec<usize>) {
    let mut map: BTreeMap<usize, usize> = BTreeMap::new();
    let mut order: Vec<usize> = Vec::new();
    let dense = class_of
        .iter()
        .map(|&c| {
            *map.entry(c).or_insert_with(|| {
                order.push(c);
                order.len() - 1
            })
        })
        .collect();
    (dense, order)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregate::Aggregate;
    use rmo_graph::{bfs_tree, gen};

    #[test]
    fn leaderless_solves_grid_rows() {
        let g = gen::grid(5, 7);
        let parts = Partition::new(&g, gen::grid_row_partition(5, 7)).unwrap();
        let values: Vec<u64> = (0..35).map(|v| 1000 - v as u64).collect();
        let inst = PaInstance::from_partition(&g, parts.clone(), values, Aggregate::Min).unwrap();
        let (tree, _) = bfs_tree(&g, 0);
        let out = leaderless_pa(&inst, &tree, Variant::Deterministic).unwrap();
        for p in parts.part_ids() {
            assert_eq!(out.result.aggregates[p], inst.reference_aggregate(p));
            let l = out.leaders[p];
            assert_eq!(parts.part_of(l), p, "leader must belong to its part");
        }
    }

    #[test]
    fn coarsening_is_logarithmic() {
        let g = gen::path(128);
        let parts = Partition::whole(&g).unwrap();
        let inst =
            PaInstance::from_partition(&g, parts.clone(), vec![1; 128], Aggregate::Sum).unwrap();
        let (tree, _) = bfs_tree(&g, 0);
        let out = leaderless_pa(&inst, &tree, Variant::Deterministic).unwrap();
        assert_eq!(out.result.aggregates[0], 128);
        assert!(
            out.coarsening_iterations <= 4 * 7 + 8,
            "iterations = {}",
            out.coarsening_iterations
        );
    }

    #[test]
    fn cost_exceeds_single_pa_run_by_log_factors_only() {
        let g = gen::grid(6, 6);
        let parts = Partition::new(&g, gen::grid_row_partition(6, 6)).unwrap();
        let inst =
            PaInstance::from_partition(&g, parts.clone(), vec![2; 36], Aggregate::Max).unwrap();
        let (tree, _) = bfs_tree(&g, 0);
        let leaders: Vec<NodeId> = parts.part_ids().map(|p| parts.members(p)[0]).collect();
        let sc = trivial_shortcut(&g, &tree, &parts);
        let division = SubPartDivision::one_per_part(&g, &parts, &leaders);
        let single = solve_on(
            &inst,
            &PaSetup {
                tree: &tree,
                shortcut: &sc,
                division: &division,
                leaders: &leaders,
                block_budget: 1,
            },
            Variant::Deterministic,
        )
        .unwrap();
        let out = leaderless_pa(&inst, &tree, Variant::Deterministic).unwrap();
        // Lemma B.1: Õ(R) rounds, Õ(M) messages — allow log n * log* n ~ 30x.
        assert!(out.result.cost.rounds <= 60 * single.cost.rounds.max(1));
        assert!(out.result.cost.messages <= 60 * single.cost.messages.max(1));
    }

    #[test]
    fn singleton_parts_trivial() {
        let g = gen::star(6);
        let parts = Partition::singletons(&g);
        let inst = PaInstance::from_partition(&g, parts.clone(), (0..6).collect(), Aggregate::Sum)
            .unwrap();
        let (tree, _) = bfs_tree(&g, 0);
        let out = leaderless_pa(&inst, &tree, Variant::Deterministic).unwrap();
        for p in parts.part_ids() {
            assert_eq!(out.result.aggregates[p], inst.reference_aggregate(p));
            assert_eq!(out.coarsening_iterations, 0);
        }
    }
}
