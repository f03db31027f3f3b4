//! The stages of the PA pipeline behind Theorem 1.2.
//!
//! [`crate::engine::PaEngine`] runs them and charges each stage its
//! measured cost:
//!
//! 1. **Leader election + BFS tree** — flood-max election and distributed
//!    BFS on the real CONGEST simulator (`Õ(D)` rounds, `Õ(m)` messages;
//!    Kutten et al. in the paper). Once per engine.
//! 2. **Part leaders** — a convergecast + broadcast per part over BFS
//!    trees restricted to the parts (`O(D + max |Pᵢ| diameter)` rounds,
//!    `O(n)` messages).
//! 3. **Sub-part division** — Algorithm 3 (randomized) or Algorithm 6
//!    (deterministic).
//! 4. **Shortcut construction** — the trivial `(1, √n)` fallback,
//!    Algorithm 4 (randomized) or Algorithm 8 (deterministic), wrapped in
//!    the paper's doubling trick: budgets `(b, c)` double until the
//!    construction satisfies every part, with one Algorithm 2
//!    verification charged per construction sweep.
//! 5. **Algorithm 1** — the PA solve proper ([`crate::solve`]).
//!
//! Stages 2–4 and Algorithm 1's phase A depend only on the partition;
//! [`build_artifacts`] builds them once per partition on the engine's
//! tree, and each solve replays the recorded wave with its values. When
//! the doubling succeeds, the last sweep's verification wave is that
//! phase A already, so the miss keeps it instead of running it again.

use rmo_congest::CostReport;
use rmo_graph::{Graph, NodeId, Partition, RootedTree};
use rmo_shortcut::alg8::{construct_deterministic, DetParams};
use rmo_shortcut::corefast::{construct_randomized, RandParams};
use rmo_shortcut::trivial::trivial_shortcut;
use rmo_shortcut::Shortcut;

use crate::engine::{DivisionStrategy, EngineConfig};
use crate::solve::{run_wave, PaSetup, WaveOutcome, WavePlan};
use crate::subparts::SubPartDivision;
use crate::subparts_det::deterministic_division;
use crate::subparts_random::random_division;
use crate::verify_block::verify_block_parameter;

/// How to construct the tree-restricted shortcut.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShortcutStrategy {
    /// The universal `b = 1, c ≤ √n` fallback (Section 1.3).
    Trivial,
    /// Algorithm 4 (randomized CoreFast-style), with doubling budgets.
    Randomized,
    /// Algorithm 8 (deterministic, heavy paths), with doubling budgets.
    Deterministic,
}

/// The partition-dependent pipeline stages (2–4): part leaders, sub-part
/// division, shortcut, the derived block budget, and the phase-A wave
/// run once on them. These are what [`crate::engine::PaEngine`]
/// memoizes per partition fingerprint — the BFS tree they were built on
/// lives once in the engine and is only borrowed here.
#[derive(Debug, Clone)]
pub struct PipelineArtifacts {
    /// Discovered part leaders.
    pub leaders: Vec<NodeId>,
    /// The constructed shortcut.
    pub shortcut: Shortcut,
    /// The sub-part division.
    pub division: SubPartDivision,
    /// Terminal-block budget to pass to Algorithm 1.
    pub block_budget: usize,
    /// Phase A of Algorithm 1 on these artifacts: its cost, iteration
    /// counts and delivery record. It reads no values, so every solve on
    /// the partition replays it ([`crate::solve::solve_with`]) instead of
    /// running the wave again.
    pub wave: WaveOutcome,
    /// Cost of building stages 2–4 (excludes election and BFS).
    pub setup_cost: CostReport,
}

impl PipelineArtifacts {
    /// Pairs the artifacts with the tree they were built on.
    pub fn setup<'a>(&'a self, tree: &'a RootedTree) -> PaSetup<'a> {
        PaSetup {
            tree,
            shortcut: &self.shortcut,
            division: &self.division,
            leaders: &self.leaders,
            block_budget: self.block_budget,
        }
    }
}

/// Builds stages 2–4 of the pipeline for `parts` on a borrowed BFS tree,
/// and runs Algorithm 1's phase A on them once. No stage reads the
/// aggregated values, so none is passed.
///
/// Each wave and each [`WavePlan`] is built once: every doubling sweep
/// plans its shortcut once and verifies it on that plan, and the last
/// plan yields both the block budget and the wave the artifacts keep.
/// That wave is the last sweep's Algorithm 2 wave whenever a wave at the
/// final block budget would repeat it step for step: no part ran out of
/// budget in it, and none took more iterations than the final budget.
/// When every part is satisfied both hold (a part has at most `3b`
/// blocks, and each of its iterations routes a block no earlier one
/// did), so phase A runs on its own only when the doubling gives up
/// (`b > n`).
///
/// Borůvka-style applications call PA `O(log n)` times with changing
/// partitions but a fixed network: they pay for election and BFS once and
/// build fresh artifacts per phase — [`crate::engine::PaEngine`] wraps
/// exactly this with a memo keyed by partition fingerprint.
pub fn build_artifacts(
    g: &Graph,
    parts: &Partition,
    config: &EngineConfig,
    tree: &RootedTree,
) -> PipelineArtifacts {
    let mut setup_cost = CostReport::zero();
    let d = tree.depth().max(1);

    // Stage 2: part leaders — min-id member, found by an in-part
    // convergecast + broadcast (O(part diameter) rounds, O(n) messages).
    let leaders: Vec<NodeId> = parts.part_ids().map(|p| parts.members(p)[0]).collect();
    let max_part = parts
        .part_ids()
        .map(|p| parts.part_size(p))
        .max()
        .unwrap_or(1);
    setup_cost += CostReport::new(2 * max_part.min(g.n()), 2 * g.n() as u64);

    // Stage 3: sub-part division.
    let division = if config.division == DivisionStrategy::Deterministic {
        let res = deterministic_division(g, parts, d);
        setup_cost += res.cost;
        res.division
    } else {
        let res = random_division(g, parts, &leaders, d, config.seed ^ 0xd117);
        setup_cost += res.cost;
        res.division
    };
    let terminals: Vec<Vec<NodeId>> = parts
        .part_ids()
        .map(|p| division.reps_of_part(p).to_vec())
        .collect();

    // Stage 4: shortcut construction with doubling budgets, and the last
    // sweep's verification wave.
    let (shortcut, plan, last_wave) = match config.shortcut {
        ShortcutStrategy::Trivial => {
            // Computing part sizes distributedly: one in-part aggregation.
            setup_cost += CostReport::new(2 * d, 2 * g.n() as u64);
            let shortcut = trivial_shortcut(g, tree, parts);
            let plan = WavePlan::build(g, tree, &shortcut, &division, parts);
            (shortcut, plan, None)
        }
        // The doubling trick: Alg. 4 or Alg. 8 with budgets `(b, c)`
        // doubling until every part is satisfied.
        strategy => {
            let mut budget = 1usize;
            loop {
                let (shortcut, unsatisfied, iterations, cost) =
                    if strategy == ShortcutStrategy::Randomized {
                        let seed = config.seed ^ 0xc0fe;
                        let params = RandParams::new(budget, budget, parts.num_parts(), seed);
                        let res = construct_randomized(g, tree, parts, &terminals, params);
                        (res.shortcut, res.unsatisfied, res.iterations, res.cost)
                    } else {
                        let params = DetParams::new(budget, budget, parts.num_parts());
                        let res = construct_deterministic(g, tree, parts, &terminals, params);
                        (res.shortcut, res.unsatisfied, res.iterations, res.cost)
                    };
                setup_cost += cost;
                // One Algorithm 2 verification per sweep.
                let plan = WavePlan::build(g, tree, &shortcut, &division, parts);
                let verify = verify_block_parameter(
                    g,
                    parts,
                    &PaSetup {
                        tree,
                        shortcut: &shortcut,
                        division: &division,
                        leaders: &leaders,
                        block_budget: (3 * budget).max(1),
                    },
                    &plan,
                    config.variant,
                );
                setup_cost += verify_scaled(verify.cost, iterations);
                budget *= 2;
                if unsatisfied.is_empty() || budget > g.n() {
                    // On give-up, Algorithm 1 may still cover via part edges.
                    break (shortcut, plan, Some(verify.wave));
                }
            }
        }
    };

    // Algorithm 1's phase A, at the terminal-block budget of the final
    // shortcut: the last verification wave if it repeats at that budget
    // (DESIGN.md, "Pipeline internals"), else a wave of its own.
    let block_budget = plan.block_budget();
    let wave = match last_wave {
        Some(wave) if wave.repeats_at(block_budget) => wave,
        _ => run_wave(
            g,
            parts,
            &PaSetup {
                tree,
                shortcut: &shortcut,
                division: &division,
                leaders: &leaders,
                block_budget,
            },
            &plan,
            config.variant,
        ),
    };

    PipelineArtifacts {
        leaders,
        shortcut,
        division,
        block_budget,
        wave,
        setup_cost,
    }
}

fn verify_scaled(cost: CostReport, iterations: usize) -> CostReport {
    // Doubling sweeps can request huge iteration counts on adversarial
    // inputs; saturate instead of overflowing the counters in release
    // builds (debug builds would panic on the multiply).
    CostReport::with_capacity(
        cost.rounds.saturating_mul(iterations.max(1)),
        cost.messages.saturating_mul(iterations.max(1) as u64),
        cost.capacity_multiplier,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregate::Aggregate;
    use crate::engine::PaEngine;
    use crate::instance::PaInstance;
    use rmo_graph::gen;

    fn check(inst: &PaInstance<'_>, config: EngineConfig) {
        let assignment = inst.partition().assignment();
        let res = PaEngine::new(inst.graph(), config)
            .solve(assignment, inst.values(), inst.aggregate())
            .expect("pipeline solves");
        for p in inst.partition().part_ids() {
            assert_eq!(
                res.aggregates[p],
                inst.reference_aggregate(p),
                "part {p} under {config:?}"
            );
        }
    }

    #[test]
    fn all_configs_on_grid_rows() {
        let g = gen::grid(6, 10);
        let parts = Partition::new(&g, gen::grid_row_partition(6, 10)).unwrap();
        let values: Vec<u64> = (0..60).map(|v| (v as u64 * 31) % 97).collect();
        let inst = PaInstance::from_partition(&g, parts, values, Aggregate::Min).unwrap();
        check(&inst, EngineConfig::new());
        check(&inst, EngineConfig::new().randomized(3));
        check(&inst, EngineConfig::new().trivial().seed(1));
    }

    #[test]
    fn pipeline_on_random_graph() {
        let g = gen::gnp_connected(70, 0.07, 5);
        let parts = gen::random_connected_partition(&g, 6, 9);
        let values: Vec<u64> = (0..70).map(|v| v as u64).collect();
        let inst = PaInstance::from_partition(&g, parts, values, Aggregate::Sum).unwrap();
        check(&inst, EngineConfig::new());
        check(&inst, EngineConfig::new().randomized(11));
    }

    #[test]
    fn pipeline_on_long_path() {
        let g = gen::path(100);
        let parts = Partition::new(&g, gen::path_blocks(100, 25)).unwrap();
        let values: Vec<u64> = (0..100).map(|v| v as u64 % 7).collect();
        let inst = PaInstance::from_partition(&g, parts, values, Aggregate::Max).unwrap();
        check(&inst, EngineConfig::new());
    }

    #[test]
    fn setup_cost_is_accounted() {
        let g = gen::grid(5, 5);
        let parts = Partition::new(&g, gen::grid_row_partition(5, 5)).unwrap();
        let mut engine = PaEngine::new(&g, EngineConfig::new());
        let stages = build_artifacts(&g, &parts, &EngineConfig::new(), engine.tree()).setup_cost;
        assert!(stages.rounds > 0);
        assert!(stages.messages > 0);
        let setup = stages + engine.stats().base_cost;
        let res = engine
            .solve(parts.assignment(), &[1; 25], Aggregate::Sum)
            .unwrap();
        assert!(res.cost.messages > setup.messages);
    }
}
