//! Algorithm 6: deterministic sub-part division.
//!
//! Start with every node as its own sub-part; repeat `O(log n)` times:
//! each *incomplete* sub-part (fewer than `D` nodes) picks an edge to a
//! different sub-part of the same part — preferring incomplete targets —
//! and a **star joining** (Algorithm 5) merges a constant fraction of the
//! incomplete sub-parts into receivers. A sub-part is complete once it has
//! `≥ D` nodes (or spans its whole part). Lemma 6.4: `Õ(D)` rounds,
//! `Õ(n)` messages, sub-part trees of diameter `O(D)`.
//!
//! Merging reorients the joiner's spanning tree: parent pointers along the
//! path from the chosen contact node to the old representative flip, and
//! the contact node hangs onto the receiver — the "star" shape is what
//! keeps the diameter growth additive (Lemma 6.4's core argument).

use rmo_congest::CostReport;
use rmo_graph::{num::ceil_log2, Graph, NodeId, Partition};

use crate::star_join::star_joining;
use crate::subparts::SubPartDivision;

/// "No node": the end of a member chain, a depth not yet known, a
/// sub-part outside this round's star joining.
const NONE: usize = usize::MAX;

/// Result of the deterministic division.
#[derive(Debug, Clone)]
pub struct DetDivisionResult {
    /// The division.
    pub division: SubPartDivision,
    /// Measured cost of all merge iterations.
    pub cost: CostReport,
    /// Outer iterations used.
    pub iterations: usize,
}

/// The division under construction, flat over node ids.
///
/// A sub-part's id is the node that founded it, and that node stays its
/// tree root, its representative and the head of its member chain: a
/// merge keeps the receiver's id and re-roots only the joiner. So every
/// per-sub-part array has length `n`, and `len[s] == 0` marks an id that
/// merged away. `live` lists the other ids in ascending order, the order
/// every cost sum and merge sequence follows.
struct Division {
    sub_of: Vec<usize>,
    parent: Vec<Option<NodeId>>,
    /// Member chains: `next[v]` follows `v` in its sub-part (`NONE` ends
    /// it); `tail[s]` is the last member, so a merge splices in O(1).
    next: Vec<NodeId>,
    tail: Vec<NodeId>,
    len: Vec<usize>,
    complete: Vec<bool>,
    live: Vec<usize>,
    /// Tree depth per node, memoized within one [`Division::max_depth`]
    /// pass (`NONE` = not yet known).
    depth: Vec<usize>,
    path: Vec<NodeId>,
}

/// The members of the chain starting at `first`.
fn chain(first: NodeId, next: &[NodeId]) -> impl Iterator<Item = NodeId> + '_ {
    std::iter::successors(Some(first), move |&w| {
        next.get(w).copied().filter(|&x| x != NONE)
    })
}

impl Division {
    /// Every node its own sub-part.
    fn singletons(n: usize) -> Division {
        Division {
            sub_of: (0..n).collect(),
            parent: vec![None; n],
            next: vec![NONE; n],
            tail: (0..n).collect(),
            len: vec![1; n],
            complete: vec![false; n],
            live: (0..n).collect(),
            depth: vec![NONE; n],
            path: Vec::new(),
        }
    }

    fn size(&self, s: usize) -> usize {
        self.len.get(s).copied().unwrap_or(0)
    }

    fn is_complete(&self, s: usize) -> bool {
        self.complete.get(s).copied().unwrap_or(false)
    }

    fn mark_complete(&mut self, s: usize) {
        if let Some(c) = self.complete.get_mut(s) {
            *c = true;
        }
    }

    fn sub_of(&self, v: NodeId) -> usize {
        self.sub_of.get(v).copied().unwrap_or(NONE)
    }

    /// Drops merged-away ids from `live` and marks the rest complete by
    /// size: a sub-part spanning its entire part is complete by
    /// definition; a sub-part reaching `d` nodes is complete by size.
    fn settle(&mut self, d: usize, parts: &Partition) {
        let Division {
            len,
            complete,
            live,
            ..
        } = self;
        live.retain(|&s| len.get(s).is_some_and(|&l| l > 0));
        for &s in live.iter() {
            let l = len.get(s).copied().unwrap_or(0);
            if l >= d || l == parts.part_size(parts.part_of(s)) {
                if let Some(c) = complete.get_mut(s) {
                    *c = true;
                }
            }
        }
    }

    /// Re-roots sub-part `j` at contact node `u`, hangs it below `v`, and
    /// appends its members to `target`'s.
    fn merge_into(&mut self, j: usize, u: NodeId, v: NodeId, target: usize) {
        // Flip parents along u -> old root, then hang u below v.
        let mut prev = Some(v);
        let mut cur = Some(u);
        while let Some(w) = cur {
            let Some(slot) = self.parent.get_mut(w) else {
                break;
            };
            cur = std::mem::replace(slot, prev);
            prev = Some(w);
        }
        for w in chain(j, &self.next) {
            if let Some(s) = self.sub_of.get_mut(w) {
                *s = target;
            }
        }
        let joiner_tail = self.tail.get(j).copied().unwrap_or(j);
        if let Some(t) = self.tail.get_mut(target) {
            if let Some(link) = self.next.get_mut(*t) {
                *link = j;
            }
            *t = joiner_tail;
        }
        let joiner_len = self.len.get_mut(j).map_or(0, std::mem::take);
        if let Some(len) = self.len.get_mut(target) {
            *len += joiner_len;
        }
    }

    /// Max depth of any current sub-part tree (for round accounting):
    /// one pass that climbs from each node only to the first ancestor
    /// whose depth this pass already knows.
    fn max_depth(&mut self) -> usize {
        self.depth.fill(NONE);
        let mut best = 0;
        for v in 0..self.parent.len() {
            self.path.clear();
            let mut base = 0;
            let mut cur = Some(v);
            while let Some(w) = cur {
                if let Some(&d) = self.depth.get(w).filter(|&&d| d != NONE) {
                    base = d + 1;
                    break;
                }
                self.path.push(w);
                cur = self.parent.get(w).copied().flatten();
            }
            for (d, &w) in (base..).zip(self.path.iter().rev()) {
                if let Some(slot) = self.depth.get_mut(w) {
                    *slot = d;
                }
                best = best.max(d);
            }
        }
        best
    }
}

/// Runs Algorithm 6 with size threshold `d`.
///
/// # Panics
/// Panics if `d == 0`, or if merging fails to converge within
/// `4⌈log₂ n⌉ + 8` iterations (which would contradict Lemma 6.3's
/// constant-fraction guarantee).
pub fn deterministic_division(g: &Graph, parts: &Partition, d: usize) -> DetDivisionResult {
    assert!(d > 0, "size threshold must be positive");
    let n = g.n();
    let mut div = Division::singletons(n);
    div.settle(d, parts);

    let mut rounds = 0usize;
    let mut messages = 0u64;
    let max_iters = 4 * ceil_log2(n.max(2)) + 8;
    let mut iterations = 0usize;

    // Per-iteration state, recycled: the incomplete sub-parts, the ones
    // still holding a chosen edge as `(s, u, v)` in ascending `s`, and
    // their positions in Phase B's star joining.
    let mut incomplete: Vec<usize> = Vec::new();
    let mut chosen: Vec<(usize, NodeId, NodeId)> = Vec::new();
    let mut index: Vec<usize> = vec![NONE; n];
    // The deepest sub-part tree, computed once per merge round: nothing
    // merges between the end of one iteration and the start of the next,
    // so the end's value serves both. Singletons have depth 0.
    let mut max_depth = 0;

    loop {
        incomplete.clear();
        incomplete.extend(div.live.iter().copied().filter(|&s| !div.is_complete(s)));
        if incomplete.is_empty() {
            break;
        }
        iterations += 1;
        assert!(
            iterations <= max_iters,
            "Algorithm 6 failed to converge in {max_iters} iterations"
        );
        // --- Choose edges (one intra-sub-part convergecast each). ---
        chosen.clear();
        for &s in &incomplete {
            let part = parts.part_of(s);
            let mut best: Option<(bool, NodeId, NodeId)> = None; // (target_complete, u, v)
            for u in chain(s, &div.next) {
                for (v, _) in g.neighbors(u) {
                    let t = div.sub_of(v);
                    if parts.part_of(v) != part || t == s {
                        continue;
                    }
                    let cand = (div.is_complete(t), u, v);
                    if best.is_none_or(|b| cand < b) {
                        best = Some(cand);
                    }
                }
            }
            match best {
                Some((_, u, v)) => chosen.push((s, u, v)),
                None => {
                    // No external edge: the sub-part spans its whole part.
                    div.mark_complete(s);
                }
            }
        }
        rounds += 2 * max_depth + 1;
        messages += incomplete.iter().map(|&s| div.size(s) as u64).sum::<u64>();

        // --- Phase A: merge into complete targets, cascading. ---
        let mut changed = true;
        while changed {
            changed = false;
            chosen.retain(|&(s, u, v)| {
                if div.size(s) == 0 || div.is_complete(s) {
                    return false;
                }
                let target = div.sub_of(v);
                if target != s && div.is_complete(target) {
                    div.merge_into(s, u, v, target);
                    messages += div.size(target) as u64; // leader/rep broadcast
                    changed = true;
                    return false;
                }
                true
            });
        }
        rounds += 2 * max_depth + 1;

        // --- Phase B: star joining among remaining incomplete sub-parts. ---
        if !chosen.is_empty() {
            for (k, &(s, _, _)) in chosen.iter().enumerate() {
                if let Some(slot) = index.get_mut(s) {
                    *slot = k;
                }
            }
            let out_edge: Vec<Option<usize>> = chosen
                .iter()
                .map(|&(_, _, v)| index.get(div.sub_of(v)).copied().filter(|&k| k != NONE))
                .collect();
            // A sub-part's representative is its id.
            let ids: Vec<u64> = chosen.iter().map(|&(s, _, _)| s as u64 + 1).collect();
            let sj = star_joining(&out_edge, &ids);
            rounds += sj.steps * (2 * max_depth + 1);
            messages += (sj.steps as u64)
                * chosen
                    .iter()
                    .map(|&(s, _, _)| div.size(s) as u64)
                    .sum::<u64>();
            for (&(s, u, v), join) in chosen.iter().zip(&sj.joins) {
                // Receivers never join (star property), so target is alive.
                let Some(&(target, _, _)) = join.and_then(|rk| chosen.get(rk)) else {
                    continue;
                };
                div.merge_into(s, u, v, target);
                messages += div.size(target) as u64;
            }
            for &(s, _, _) in &chosen {
                if let Some(slot) = index.get_mut(s) {
                    *slot = NONE;
                }
            }
        }
        // Completeness by size after the merges.
        div.settle(d, parts);
        max_depth = div.max_depth();
        rounds += 2 * max_depth + 1;
    }

    // Compact ids (a sub-part's rank in the ascending `live` list) and
    // build the validated division.
    let subpart_of: Vec<usize> = div
        .sub_of
        .iter()
        .map(|s| div.live.binary_search(s).unwrap_or(NONE))
        .collect();
    let division = SubPartDivision::new(g, parts, subpart_of, div.parent, div.live)
        .expect("Algorithm 6 maintains the division invariants");
    DetDivisionResult {
        division,
        cost: CostReport::new(rounds, messages),
        iterations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rmo_graph::gen;

    #[test]
    fn small_parts_become_single_subparts() {
        let g = gen::grid(4, 4);
        let parts = Partition::new(&g, gen::grid_row_partition(4, 4)).unwrap();
        let res = deterministic_division(&g, &parts, 8);
        // Every row has 4 < 8 nodes; sub-parts complete only by spanning.
        for p in 0..4 {
            assert_eq!(res.division.subpart_count_of_part(p), 1);
        }
    }

    #[test]
    fn large_part_splits_to_about_n_over_d() {
        let g = gen::path(128);
        let parts = Partition::whole(&g).unwrap();
        let d = 16;
        let res = deterministic_division(&g, &parts, d);
        let k = res.division.num_subparts();
        assert!(k >= 128 / (4 * d), "too few sub-parts: {k}");
        assert!(k <= 128 / (d / 2).max(1), "too many sub-parts: {k}");
        // All sub-parts complete: >= d nodes each (or whole part).
        for s in 0..k {
            assert!(res.division.members(s).len() >= d.min(128));
        }
    }

    #[test]
    fn subpart_trees_have_bounded_depth() {
        let g = gen::grid(8, 32);
        let parts = Partition::new(&g, gen::grid_row_partition(8, 32)).unwrap();
        let d = 8;
        let res = deterministic_division(&g, &parts, d);
        assert!(
            res.division.max_depth() <= 6 * d,
            "depth {} exceeds O(d)",
            res.division.max_depth()
        );
    }

    #[test]
    fn iterations_logarithmic() {
        let g = gen::path(256);
        let parts = Partition::whole(&g).unwrap();
        let res = deterministic_division(&g, &parts, 16);
        assert!(
            res.iterations <= 4 * 8 + 8,
            "iterations = {}",
            res.iterations
        );
    }

    #[test]
    fn deterministic_and_repeatable() {
        let g = gen::grid(6, 24);
        let parts = Partition::new(&g, gen::grid_row_partition(6, 24)).unwrap();
        let a = deterministic_division(&g, &parts, 6);
        let b = deterministic_division(&g, &parts, 6);
        assert_eq!(a.division, b.division);
        assert_eq!(a.cost, b.cost);
    }

    #[test]
    fn random_graph_division_is_valid() {
        let g = gen::gnp_connected(90, 0.05, 13);
        let parts = gen::random_connected_partition(&g, 4, 7);
        let res = deterministic_division(&g, &parts, 10);
        for v in 0..g.n() {
            let s = res.division.subpart_of(v);
            assert_eq!(res.division.part_of_subpart(s), parts.part_of(v));
        }
    }

    #[test]
    fn messages_near_linear() {
        let g = gen::path(200);
        let parts = Partition::whole(&g).unwrap();
        let res = deterministic_division(&g, &parts, 20);
        // Õ(n): allow the log n · log* n factors.
        let bound = 200u64 * 8 * 16;
        assert!(
            res.cost.messages <= bound,
            "messages {} > {bound}",
            res.cost.messages
        );
    }
}
