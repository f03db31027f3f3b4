//! Algorithm 8: deterministic shortcut construction on general trees via
//! heavy-path decomposition (Section 6.3, Lemma 6.7).
//!
//! Each outer iteration performs one bottom-up sweep over the heavy paths
//! of the BFS tree: representatives of still-active parts inject requests
//! at their positions; each heavy path runs Algorithm 7
//! ([`construct_on_path_with`]); the parts whose requests survive to a
//! path's top cross the outgoing light edge (claiming it) and enter the
//! next path. Any leaf-to-root walk crosses at most `⌊log₂ n⌋` heavy
//! paths, so one sweep has `O(log n)` *levels*; paths within a level are
//! disjoint and run in parallel (rounds take the max, messages add).
//!
//! After each sweep every part's accumulated claims are re-examined: parts
//! with at most `3b` terminal-blocks go inactive (the paper invokes
//! Algorithm 2 here; the *cost* of those verification runs is charged by
//! the caller, who owns the PA machinery — see `iterations` in the
//! result). Lemma 6.7's counting argument guarantees at least half the
//! active parts freeze per iteration when the graph really admits a
//! `(b, c)` shortcut; we cap iterations and report stragglers so callers
//! can double the budgets (the paper's doubling remark, Section 1.3).
//!
//! # Flat-arena internals
//!
//! The per-path per-position entry tables (formerly
//! `Vec<Vec<Vec<usize>>>`, reallocated every sweep) are an intrusive
//! linked list indexed by node: `req_head[v]` chains `(part, next)`
//! records in one arena, with a short contains-walk for dedup (chains are
//! bounded by the part count). One [`Alg7Scratch`] is threaded through
//! every heavy-path run of every sweep, and per-sweep claims accumulate
//! in a flat `(part, edge)` log that is sorted, deduped, and grouped into
//! [`Shortcut::extend_part`] — which sorts and dedups again, so the log
//! order is irrelevant and the result is bit-identical to the old
//! `BTreeMap` ledger.
//!
//! The heavy-path decomposition, its sweep order and its path levels
//! depend on the tree alone: they come from [`RootedTree::heavy_paths`],
//! built once per tree, though every call is still charged for building
//! them. The freeze check counts each part's blocks with a
//! [`BlockCounter`] instead of building them.

use rmo_congest::CostReport;
use rmo_graph::{num::ceil_log2, EdgeId, Graph, NodeId, Partition, RootedTree};

use crate::alg7::{construct_on_path_with, Alg7Scratch};
use crate::model::{BlockCounter, Shortcut};

/// Parameters for the deterministic construction.
#[derive(Debug, Clone, Copy)]
pub struct DetParams {
    /// Congestion budget `c` passed to Algorithm 7 on every path.
    pub congestion: usize,
    /// Target block parameter `b`; parts freeze at `≤ 3b` blocks.
    pub target_block: usize,
    /// Max outer iterations (default `⌈log₂ N⌉ + 2`).
    pub max_iterations: usize,
}

impl DetParams {
    /// Defaults for `num_parts` parts.
    pub fn new(congestion: usize, target_block: usize, num_parts: usize) -> DetParams {
        let log = ceil_log2(num_parts.max(2));
        DetParams {
            congestion,
            target_block,
            max_iterations: log + 2,
        }
    }
}

/// Result of [`construct_deterministic`].
#[derive(Debug, Clone)]
pub struct DetConstructionResult {
    /// The constructed shortcut (accumulated claims, Algorithm 8 line 15).
    pub shortcut: Shortcut,
    /// Parts still active when iterations ran out (empty on success).
    pub unsatisfied: Vec<usize>,
    /// Sweeps executed; the caller charges one Algorithm 2 verification
    /// per sweep.
    pub iterations: usize,
    /// Measured sweep cost (heavy-path setup + Algorithm 7 runs + light
    /// edge forwarding), excluding verification.
    pub cost: CostReport,
}

/// Appends `part` to node `v`'s request chain unless already present.
/// Returns whether it was inserted.
fn push_unique(
    head: &mut [usize],
    next: &mut Vec<usize>,
    part_of: &mut Vec<usize>,
    v: NodeId,
    part: usize,
) -> bool {
    let Some(&first) = head.get(v) else {
        return false;
    };
    let mut cur = first;
    while cur != usize::MAX {
        if part_of.get(cur).copied() == Some(part) {
            return false;
        }
        cur = next.get(cur).copied().unwrap_or(usize::MAX);
    }
    let idx = part_of.len();
    part_of.push(part);
    next.push(first);
    if let Some(slot) = head.get_mut(v) {
        *slot = idx;
    }
    true
}

/// Runs Algorithm 8.
///
/// `terminals[i]` — the sub-part representatives of part `i`; only these
/// inject requests (the message-efficiency device of Section 3.2). Parts
/// with no terminals are treated as direct.
///
/// # Panics
/// Panics if `params.congestion == 0` or `terminals.len()` mismatches.
pub fn construct_deterministic(
    g: &Graph,
    tree: &RootedTree,
    parts: &Partition,
    terminals: &[Vec<NodeId>],
    params: DetParams,
) -> DetConstructionResult {
    assert!(params.congestion > 0, "congestion budget must be positive");
    assert_eq!(
        terminals.len(),
        parts.num_parts(),
        "one terminal set per part"
    );
    let hpd = tree.heavy_paths();
    // Paths run children first. Same-depth paths must keep path-id order
    // (`sweep_order` is a stable sort): the per-level round accounting
    // below interleaves `max` with light-edge `+1`s, so reordering ties
    // changes the count.
    let order = hpd.sweep_order();
    let level = hpd.levels();

    let mut shortcut = Shortcut::empty(parts.num_parts());
    let mut active: Vec<usize> = parts
        .part_ids()
        .filter(|&p| terminals.get(p).is_some_and(|t| !t.is_empty()))
        .collect();
    // Heavy-path decomposition itself: O(depth) rounds, O(n) messages
    // (subtree sizes by convergecast, then a downward labeling). Charged
    // on every call, as the network computes it each time; only the
    // simulator keeps it (on the tree).
    let mut cost = CostReport::new(2 * tree.depth() + 2, 2 * tree.n() as u64);
    let mut iterations = 0usize;

    // Recycled sweep state (see module docs): request chains by node,
    // one Algorithm 7 scratch, flat claim log, per-level round maxima.
    let mut req_head: Vec<usize> = vec![usize::MAX; tree.n()];
    let mut req_next: Vec<usize> = Vec::new();
    let mut req_part: Vec<usize> = Vec::new();
    let mut path_live: Vec<bool> = vec![false; hpd.path_count()];
    let mut level_rounds: Vec<usize> = vec![0; hpd.path_count() + 2];
    let mut edges_buf: Vec<EdgeId> = Vec::new();
    let mut sweep_claims: Vec<(usize, EdgeId)> = Vec::new();
    let mut s7 = Alg7Scratch::new();
    let mut counter = BlockCounter::new();

    while !active.is_empty() && iterations < params.max_iterations {
        iterations += 1;
        req_head.fill(usize::MAX);
        req_next.clear();
        req_part.clear();
        path_live.fill(false);
        level_rounds.fill(0);
        sweep_claims.clear();
        for &part in &active {
            for &r in terminals.get(part).map(Vec::as_slice).unwrap_or(&[]) {
                if push_unique(&mut req_head, &mut req_next, &mut req_part, r, part) {
                    if let Some(live) = path_live.get_mut(hpd.path_of(r)) {
                        *live = true;
                    }
                }
            }
        }
        let mut messages = 0u64;
        for &p in order {
            if !path_live.get(p).copied().unwrap_or(false) {
                continue;
            }
            let nodes = hpd.path_nodes(p);
            edges_buf.clear();
            let Some((_, body)) = nodes.split_last() else {
                continue;
            };
            for &v in body {
                let Some(e) = tree.parent_edge_of(v) else {
                    continue; // unreachable: non-top path nodes have parents
                };
                edges_buf.push(e);
            }
            for (i, &v) in nodes.iter().enumerate() {
                let mut cur = req_head.get(v).copied().unwrap_or(usize::MAX);
                while cur != usize::MAX {
                    if let Some(&part) = req_part.get(cur) {
                        s7.push_request(i, part);
                    }
                    cur = req_next.get(cur).copied().unwrap_or(usize::MAX);
                }
            }
            let res = construct_on_path_with(nodes, &edges_buf, params.congestion, &mut s7);
            if let Some(lr) = level.get(p).and_then(|&l| level_rounds.get_mut(l)) {
                *lr = (*lr).max(res.cost.rounds);
            }
            messages += res.cost.messages;
            sweep_claims.extend_from_slice(&s7.claims);
            // Forward survivors across the light edge.
            let top = hpd.path_top(p);
            if let Some(parent) = tree.parent_of(top) {
                let Some(light) = tree.parent_edge_of(top) else {
                    continue; // unreachable: parent_of implies a parent edge
                };
                let q = hpd.path_of(parent);
                for &part in &s7.reached_top {
                    sweep_claims.push((part, light));
                    messages += 1;
                    push_unique(&mut req_head, &mut req_next, &mut req_part, parent, part);
                    if let Some(live) = path_live.get_mut(q) {
                        *live = true;
                    }
                }
                if let Some(lr) = level.get(p).and_then(|&l| level_rounds.get_mut(l)) {
                    *lr += 1; // one round to cross the light edge
                }
            }
        }
        let sweep_rounds: usize = level_rounds.iter().sum();
        cost += CostReport::new(sweep_rounds, messages);
        // Accumulate all claims (Algorithm 8 returns the union over
        // iterations), then freeze satisfied parts. `extend_part` sorts
        // and dedups, so grouping the sorted log is exactly the old
        // per-part BTreeMap ledger.
        sweep_claims.sort_unstable();
        sweep_claims.dedup();
        for grp in sweep_claims.chunk_by(|a, b| a.0 == b.0) {
            let Some(&(part, _)) = grp.first() else {
                continue;
            };
            shortcut.extend_part(part, grp.iter().map(|&(_, e)| e));
        }
        active.retain(|&part| {
            let blocks = counter.count(
                g,
                shortcut.edges_of(part),
                terminals.get(part).map(Vec::as_slice).unwrap_or(&[]),
            );
            blocks > 3 * params.target_block
        });
    }
    DetConstructionResult {
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

    fn two_reps(parts: &Partition) -> Vec<Vec<NodeId>> {
        parts
            .part_ids()
            .map(|p| {
                let m = parts.members(p);
                if m.len() == 1 {
                    vec![m[0]]
                } else {
                    vec![m[0], m[m.len() - 1]]
                }
            })
            .collect()
    }

    #[test]
    fn grid_rows_succeed() {
        let g = gen::grid(8, 8);
        let parts = Partition::new(&g, gen::grid_row_partition(8, 8)).unwrap();
        let (tree, _) = bfs_tree(&g, 0);
        let terminals = two_reps(&parts);
        let res = construct_deterministic(
            &g,
            &tree,
            &parts,
            &terminals,
            DetParams::new(8, 2, parts.num_parts()),
        );
        assert!(
            res.unsatisfied.is_empty(),
            "unsatisfied: {:?}",
            res.unsatisfied
        );
        for p in parts.part_ids() {
            let blocks = res
                .shortcut
                .blocks_for_terminals(&g, &tree, p, &terminals[p]);
            assert!(blocks.len() <= 6, "part {p}: {} blocks", blocks.len());
        }
    }

    #[test]
    fn deterministic_and_repeatable() {
        let g = gen::grid(6, 6);
        let parts = Partition::new(&g, gen::grid_row_partition(6, 6)).unwrap();
        let (tree, _) = bfs_tree(&g, 0);
        let terminals = two_reps(&parts);
        let params = DetParams::new(6, 2, 6);
        let a = construct_deterministic(&g, &tree, &parts, &terminals, params);
        let b = construct_deterministic(&g, &tree, &parts, &terminals, params);
        assert_eq!(a.shortcut, b.shortcut);
        assert_eq!(a.cost, b.cost);
    }

    #[test]
    fn congestion_bounded_by_lemma_6_7() {
        let g = gen::grid(8, 8);
        let parts = Partition::new(&g, gen::grid_row_partition(8, 8)).unwrap();
        let (tree, _) = bfs_tree(&g, 0);
        let terminals = two_reps(&parts);
        let c = 8;
        let res = construct_deterministic(
            &g,
            &tree,
            &parts,
            &terminals,
            DetParams::new(c, 2, parts.num_parts()),
        );
        let q = measure(&g, &parts, &res.shortcut);
        let log_d = ceil_log2(tree.depth().max(2));
        let bound = 2 * c * log_d * res.iterations + res.iterations;
        assert!(
            q.congestion <= bound,
            "congestion {} > bound {}",
            q.congestion,
            bound
        );
    }

    #[test]
    fn path_partition_on_path_graph() {
        // Path graph, blocks of 4: the whole tree is one heavy path.
        let g = gen::path(32);
        let parts = Partition::new(&g, gen::path_blocks(32, 4)).unwrap();
        let (tree, _) = bfs_tree(&g, 0);
        let terminals = two_reps(&parts);
        let res = construct_deterministic(
            &g,
            &tree,
            &parts,
            &terminals,
            DetParams::new(8, 2, parts.num_parts()),
        );
        assert!(res.unsatisfied.is_empty());
    }

    #[test]
    fn empty_terminals_part_is_direct() {
        let g = gen::path(9);
        let parts = Partition::new(&g, gen::path_blocks(9, 3)).unwrap();
        let (tree, _) = bfs_tree(&g, 0);
        let terminals = vec![vec![0], vec![], vec![6]];
        let res = construct_deterministic(&g, &tree, &parts, &terminals, DetParams::new(4, 1, 3));
        assert!(res.shortcut.is_direct(1));
    }

    #[test]
    fn random_graph_converges() {
        let g = gen::gnp_connected(60, 0.08, 5);
        let parts = gen::random_connected_partition(&g, 6, 2);
        let (tree, _) = bfs_tree(&g, 0);
        let terminals = two_reps(&parts);
        let res = construct_deterministic(
            &g,
            &tree,
            &parts,
            &terminals,
            DetParams::new(8, 3, parts.num_parts()),
        );
        assert!(
            res.unsatisfied.is_empty(),
            "unsatisfied: {:?}",
            res.unsatisfied
        );
    }
}
