//! Algorithm 4: randomized message-efficient shortcut construction.
//!
//! Structure (Section 5.2): repeat `O(log n)` times — run a CoreFast-style
//! claiming sweep in which only the **sub-part representatives** of still-
//! active parts send their part id up the BFS tree; an edge asked for by
//! too many parts is *broken* and admits only a bounded subset. After each
//! sweep, parts whose (terminal-)block count is at most `3b` freeze their
//! claimed edges and go inactive (Algorithm 4 lines 4–6); congestion
//! therefore grows by at most the per-sweep admission bound per iteration,
//! giving `Õ(c)` in total (Lemma 5.2).
//!
//! Randomization: each iteration every active part draws a fresh random
//! rank; an overloaded edge admits the `2c` lowest-ranked requesters and
//! rejects the rest. Random ranks are this implementation's stand-in for
//! CoreFast's internal sampling: they guarantee that which parts win at a
//! contended edge is uncorrelated across iterations, so stuck parts make
//! progress. (The original presentation samples participating vertices
//! instead; both deliver "a constant fraction of parts succeeds per
//! iteration w.h.p.", which is the property Lemma 5.2 consumes.)
//!
//! Cost accounting: each representative's id climbs the tree hop by hop;
//! every hop is one message (measured exactly). A sweep is pipelined
//! exactly like `BlockRoute`, so its round cost is `depth + max admitted
//! load`, which we compute from the realized loads rather than assume.

use std::collections::BTreeMap;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use rmo_congest::CostReport;
use rmo_graph::{num::ceil_log2, EdgeId, Graph, NodeId, Partition, RootedTree};

use crate::model::{BlockCounter, Shortcut};

/// Parameters for the randomized construction.
#[derive(Debug, Clone, Copy)]
pub struct RandParams {
    /// Congestion budget `c`: each edge admits at most `2c` parts per sweep.
    pub congestion: usize,
    /// Target block parameter `b`: a part freezes when its terminal-block
    /// count is `≤ 3b`.
    pub target_block: usize,
    /// Max sweeps (defaults to `2⌈log₂ N⌉ + 4` via [`RandParams::new`]).
    pub max_iterations: usize,
    /// RNG seed.
    pub seed: u64,
}

impl RandParams {
    /// Sensible defaults for `num_parts` parts.
    pub fn new(congestion: usize, target_block: usize, num_parts: usize, seed: u64) -> RandParams {
        let log = ceil_log2(num_parts.max(2));
        RandParams {
            congestion,
            target_block,
            max_iterations: 2 * log + 4,
            seed,
        }
    }
}

/// Result of [`construct_randomized`].
#[derive(Debug, Clone)]
pub struct RandConstructionResult {
    /// The constructed shortcut (frozen claims of successful parts).
    pub shortcut: Shortcut,
    /// Parts still active (unsatisfied) when iteration ran out. Empty on
    /// full success.
    pub unsatisfied: Vec<usize>,
    /// Number of sweeps executed (callers charge one block-parameter
    /// verification — Algorithm 2 — per sweep).
    pub iterations: usize,
    /// Measured cost of all sweeps (excluding verification).
    pub cost: CostReport,
}

/// Runs the randomized construction.
///
/// `terminals[i]` — the sub-part representatives of part `i` (the only
/// nodes that climb). Parts whose terminal set is empty are treated as
/// direct (small) parts and never participate.
///
/// # Panics
/// Panics if `params.congestion == 0` or `terminals.len()` mismatches.
pub fn construct_randomized(
    g: &Graph,
    tree: &RootedTree,
    parts: &Partition,
    terminals: &[Vec<NodeId>],
    params: RandParams,
) -> RandConstructionResult {
    assert!(params.congestion > 0, "congestion budget must be positive");
    assert_eq!(
        terminals.len(),
        parts.num_parts(),
        "one terminal set per part"
    );
    let mut rng = StdRng::seed_from_u64(params.seed);
    let n = tree.n();
    let admit = 2 * params.congestion;
    let mut shortcut = Shortcut::empty(parts.num_parts());
    let mut active: Vec<usize> = parts
        .part_ids()
        .filter(|&p| !terminals[p].is_empty())
        .collect();
    let mut cost = CostReport::zero();
    let mut iterations = 0usize;
    let mut counter = BlockCounter::new();
    let mut trial: Vec<EdgeId> = Vec::new();

    while !active.is_empty() && iterations < params.max_iterations {
        iterations += 1;
        // Fresh random ranks decide who wins contended edges this sweep.
        let rank: BTreeMap<usize, u64> = active.iter().map(|&p| (p, rng.random::<u64>())).collect();
        // climbing[v] = parts whose claim front currently sits at node v.
        let mut climbing: Vec<Vec<usize>> = vec![Vec::new(); n];
        for &p in &active {
            for &r in &terminals[p] {
                if !climbing[r].contains(&p) {
                    climbing[r].push(p);
                }
            }
        }
        // Bottom-up sweep in reverse BFS order: children processed before
        // parents, so fronts accumulate upward.
        let mut claims: BTreeMap<usize, Vec<usize>> = BTreeMap::new(); // part -> edges
        let mut messages = 0u64;
        let mut max_load = 0usize;
        for &v in tree.top_down_order().iter().rev() {
            if v == tree.root() || climbing[v].is_empty() {
                continue;
            }
            let mut here = std::mem::take(&mut climbing[v]);
            here.sort_by_key(|p| rank[p]);
            here.dedup();
            let admitted: Vec<usize> = here.into_iter().take(admit).collect();
            max_load = max_load.max(admitted.len());
            let e = tree.parent_edge_of(v).expect("non-root");
            let parent = tree.parent_of(v).expect("non-root");
            for &p in &admitted {
                claims.entry(p).or_default().push(e);
                messages += 1;
                if !climbing[parent].contains(&p) {
                    climbing[parent].push(p);
                }
            }
            // Rejected parts simply stop here; they keep claims below.
        }
        // Pipelined sweep cost: the id wave needs depth + max-load rounds
        // (same scheduling argument as Lemma 4.2).
        cost += CostReport::new(tree.depth() + max_load, messages);
        // Freeze parts whose tentative claims meet the block target:
        // count the blocks of `Hₚ ∪ tentative` without building them.
        let mut still_active = Vec::new();
        for &p in &active {
            let tentative = claims.remove(&p).unwrap_or_default();
            trial.clear();
            trial.extend_from_slice(shortcut.edges_of(p));
            trial.extend_from_slice(&tentative);
            trial.sort_unstable();
            trial.dedup();
            let blocks = counter.count(g, &trial, &terminals[p]);
            if blocks <= 3 * params.target_block {
                shortcut.extend_part(p, tentative);
            } else {
                still_active.push(p);
            }
        }
        active = still_active;
    }
    RandConstructionResult {
        shortcut,
        unsatisfied: active,
        iterations,
        cost,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quality::measure;
    use rmo_graph::{bfs_tree, gen};

    fn reps_all_members(parts: &Partition) -> Vec<Vec<NodeId>> {
        parts
            .part_ids()
            .map(|p| parts.members(p).to_vec())
            .collect()
    }

    #[test]
    fn grid_rows_get_low_block_count() {
        let g = gen::grid(8, 8);
        let parts = Partition::new(&g, gen::grid_row_partition(8, 8)).unwrap();
        let (tree, _) = bfs_tree(&g, 0);
        // One terminal per part end: 2 reps per row.
        let terminals: Vec<Vec<NodeId>> = parts
            .part_ids()
            .map(|p| {
                let m = parts.members(p);
                vec![m[0], m[m.len() - 1]]
            })
            .collect();
        let res = construct_randomized(
            &g,
            &tree,
            &parts,
            &terminals,
            RandParams::new(8, 2, parts.num_parts(), 1),
        );
        assert!(res.unsatisfied.is_empty(), "all parts should freeze");
        for p in parts.part_ids() {
            let blocks = res
                .shortcut
                .blocks_for_terminals(&g, &tree, p, &terminals[p]);
            assert!(blocks.len() <= 6, "part {p} has {} blocks", blocks.len());
        }
    }

    #[test]
    fn congestion_stays_within_budget_times_iterations() {
        let g = gen::grid(6, 10);
        let parts = Partition::new(&g, gen::grid_row_partition(6, 10)).unwrap();
        let (tree, _) = bfs_tree(&g, 0);
        let terminals = reps_all_members(&parts);
        let c = 6;
        let res = construct_randomized(
            &g,
            &tree,
            &parts,
            &terminals,
            RandParams::new(c, 2, parts.num_parts(), 3),
        );
        let q = measure(&g, &parts, &res.shortcut);
        assert!(
            q.congestion <= 2 * c * res.iterations,
            "congestion {} exceeds per-iteration budget times iterations",
            q.congestion
        );
    }

    #[test]
    fn empty_terminals_skip_part() {
        let g = gen::path(9);
        let parts = Partition::new(&g, gen::path_blocks(9, 3)).unwrap();
        let (tree, _) = bfs_tree(&g, 0);
        let terminals = vec![vec![0], vec![], vec![6]];
        let res = construct_randomized(&g, &tree, &parts, &terminals, RandParams::new(2, 1, 3, 0));
        assert!(
            res.shortcut.is_direct(1),
            "part without terminals stays direct"
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let g = gen::grid(5, 5);
        let parts = Partition::new(&g, gen::grid_row_partition(5, 5)).unwrap();
        let (tree, _) = bfs_tree(&g, 0);
        let terminals = reps_all_members(&parts);
        let p = RandParams::new(4, 2, 5, 7);
        let a = construct_randomized(&g, &tree, &parts, &terminals, p);
        let b = construct_randomized(&g, &tree, &parts, &terminals, p);
        assert_eq!(a.shortcut, b.shortcut);
        assert_eq!(a.cost, b.cost);
    }

    #[test]
    fn messages_linear_in_terminal_climbs() {
        // With one terminal per part on a path, messages per sweep are at
        // most the total climb length <= #parts * depth.
        let g = gen::path(32);
        let parts = Partition::new(&g, gen::path_blocks(32, 8)).unwrap();
        let (tree, _) = bfs_tree(&g, 0);
        let terminals: Vec<Vec<NodeId>> = parts
            .part_ids()
            .map(|p| vec![parts.members(p)[0]])
            .collect();
        let res = construct_randomized(&g, &tree, &parts, &terminals, RandParams::new(4, 1, 4, 2));
        assert!(res.cost.messages <= (res.iterations as u64) * 4 * 31);
    }
}
