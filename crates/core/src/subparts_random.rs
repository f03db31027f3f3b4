//! Algorithm 3: randomized sub-part division.
//!
//! Per part with more than `D` nodes: every node elects itself a
//! representative with probability `min{1, ln n / D}`; representatives
//! claim balls of radius `O(D)` around them by a multi-source BFS
//! restricted to the part; every node's sub-part parent is the neighbor it
//! first heard a representative from. Lemma 5.1: `O(D)` rounds, `O(m)`
//! messages, and w.h.p. `Õ(|Pᵢ|/D)` sub-parts of diameter `O(D)`.
//!
//! Low-probability fallback (the "w.h.p." caveat made executable): if the
//! multi-source BFS exhausts a part while some node remains unclaimed —
//! possible only when no node in its radius-`D` ball self-elected — the
//! smallest-id unclaimed node self-elects and the BFS resumes. This adds
//! rounds only in the failure event the paper tolerates with probability
//! `1/poly(n)`.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;

use rmo_congest::CostReport;
use rmo_graph::{Graph, NodeId, Partition};

use crate::subparts::SubPartDivision;

/// Result of the randomized division.
#[derive(Debug, Clone)]
pub struct RandomDivisionResult {
    /// The division.
    pub division: SubPartDivision,
    /// Measured cost (BFS waves and announcements).
    pub cost: CostReport,
}

/// Runs Algorithm 3.
///
/// `d` is the diameter parameter `D` (ball radius / small-part threshold);
/// `leaders[p]` must name a node of part `p` (small parts become a single
/// sub-part rooted at their leader).
///
/// # Panics
/// Panics if `d == 0` or `leaders` is inconsistent with the partition.
pub fn random_division(
    g: &Graph,
    parts: &Partition,
    leaders: &[NodeId],
    d: usize,
    seed: u64,
) -> RandomDivisionResult {
    assert!(d > 0, "diameter parameter must be positive");
    assert_eq!(leaders.len(), parts.num_parts());
    let mut rng = StdRng::seed_from_u64(seed);
    let n = g.n();
    let p_elect = (((n.max(2)) as f64).ln() / d as f64).min(1.0);

    let mut subpart_of = vec![usize::MAX; n];
    let mut parent: Vec<Option<NodeId>> = vec![None; n];
    let mut reps: Vec<NodeId> = Vec::new();
    let mut rounds = 0usize;
    let mut messages = 0u64;

    for part in parts.part_ids() {
        let members = parts.members(part);
        let leader = leaders[part];
        assert_eq!(parts.part_of(leader), part, "leader outside part");
        if members.len() <= d {
            // Single sub-part: BFS within the part from the leader.
            let s = reps.len();
            reps.push(leader);
            subpart_of[leader] = s;
            let mut q = VecDeque::from([leader]);
            while let Some(u) = q.pop_front() {
                let mut nbrs: Vec<NodeId> = g.neighbors(u).map(|(w, _)| w).collect();
                nbrs.sort_unstable();
                for w in nbrs {
                    if parts.part_of(w) == part && subpart_of[w] == usize::MAX {
                        subpart_of[w] = s;
                        parent[w] = Some(u);
                        messages += 1;
                        q.push_back(w);
                    }
                }
            }
            rounds = rounds.max(members.len().min(d)); // BFS depth <= part size
            continue;
        }
        // Large part: sample representatives, then multi-source BFS.
        let mut frontier: VecDeque<NodeId> = VecDeque::new();
        for &v in members {
            if rng.random::<f64>() < p_elect {
                let s = reps.len();
                reps.push(v);
                subpart_of[v] = s;
                frontier.push_back(v);
                // A representative announces itself to part neighbors.
                messages += g
                    .neighbors(v)
                    .filter(|&(w, _)| parts.part_of(w) == part)
                    .count() as u64;
            }
        }
        let mut part_rounds = 1usize; // the election/announcement round
        loop {
            // BFS waves, one wave = one round; each claimed node re-announces.
            while !frontier.is_empty() {
                part_rounds += 1;
                let mut next = VecDeque::new();
                let wave: Vec<NodeId> = frontier.drain(..).collect();
                for u in wave {
                    let mut nbrs: Vec<NodeId> = g.neighbors(u).map(|(w, _)| w).collect();
                    nbrs.sort_unstable();
                    for w in nbrs {
                        if parts.part_of(w) == part {
                            if subpart_of[w] == usize::MAX {
                                subpart_of[w] = subpart_of[u];
                                parent[w] = Some(u);
                                next.push_back(w);
                            }
                            messages += 1; // the announcement over edge (u, w)
                        }
                    }
                }
                frontier = next;
            }
            // Fallback for the 1/poly(n) failure event: unclaimed nodes.
            match members
                .iter()
                .copied()
                .find(|&v| subpart_of[v] == usize::MAX)
            {
                None => break,
                Some(v) => {
                    let s = reps.len();
                    reps.push(v);
                    subpart_of[v] = s;
                    frontier.push_back(v);
                    part_rounds += 1;
                }
            }
        }
        rounds = rounds.max(part_rounds);
    }
    let division = SubPartDivision::new(g, parts, subpart_of, parent, reps)
        .expect("BFS-grown sub-parts satisfy the division invariants");
    RandomDivisionResult {
        division,
        cost: CostReport::new(rounds, messages),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rmo_graph::gen;

    fn leaders_min(parts: &Partition) -> Vec<NodeId> {
        parts.part_ids().map(|p| parts.members(p)[0]).collect()
    }

    #[test]
    fn small_parts_single_subpart() {
        let g = gen::grid(4, 4);
        let parts = Partition::new(&g, gen::grid_row_partition(4, 4)).unwrap();
        let leaders = leaders_min(&parts);
        // d larger than any part -> every part is one sub-part.
        let res = random_division(&g, &parts, &leaders, 10, 1);
        assert_eq!(res.division.num_subparts(), 4);
        for (p, &leader) in leaders.iter().enumerate() {
            assert_eq!(res.division.reps_of_part(p), vec![leader]);
        }
    }

    #[test]
    fn large_parts_split_into_enough_subparts() {
        // One part = whole 256-node path; d = 16: expect ~ ln(256)*256/16
        // sub-parts, certainly more than 1 and fewer than n.
        let g = gen::path(256);
        let parts = Partition::whole(&g).unwrap();
        let res = random_division(&g, &parts, &[0], 16, 7);
        let k = res.division.num_subparts();
        assert!(k > 1, "large part must split");
        assert!(k < 256, "not everything becomes a rep");
        // Every node claimed and every sub-part diameter O(d): depth <= part
        // claim radius; with the fallback this is <= part size but w.h.p.
        // O(d log n). Assert the generous structural bound.
        assert!(res.division.max_depth() <= 4 * 16 * 8);
    }

    #[test]
    fn subpart_count_near_expectation() {
        let g = gen::path(512);
        let parts = Partition::whole(&g).unwrap();
        let d = 32;
        let res = random_division(&g, &parts, &[0], d, 3);
        let expected = (512f64 * (512f64).ln() / d as f64).ceil();
        assert!(
            res.division.num_subparts() as f64 <= 4.0 * expected,
            "{} sub-parts >> expectation {}",
            res.division.num_subparts(),
            expected
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let g = gen::grid(6, 20);
        let parts = Partition::new(&g, gen::grid_row_partition(6, 20)).unwrap();
        let leaders = leaders_min(&parts);
        let a = random_division(&g, &parts, &leaders, 5, 11);
        let b = random_division(&g, &parts, &leaders, 5, 11);
        assert_eq!(a.division, b.division);
        assert_eq!(a.cost, b.cost);
    }

    #[test]
    fn messages_linear_in_edges() {
        let g = gen::grid(8, 8);
        let parts = Partition::new(&g, gen::grid_row_partition(8, 8)).unwrap();
        let leaders = leaders_min(&parts);
        let res = random_division(&g, &parts, &leaders, 4, 5);
        assert!(
            res.cost.messages <= 4 * g.m() as u64 + g.n() as u64,
            "messages {} not O(m)",
            res.cost.messages
        );
    }

    #[test]
    fn division_valid_on_random_graph() {
        let g = gen::gnp_connected(80, 0.06, 9);
        let parts = gen::random_connected_partition(&g, 5, 4);
        let leaders = leaders_min(&parts);
        let res = random_division(&g, &parts, &leaders, 6, 2);
        // validation happens inside SubPartDivision::new; reaching here is
        // the assertion. Check coverage:
        for v in 0..g.n() {
            let s = res.division.subpart_of(v);
            assert_eq!(res.division.part_of_subpart(s), parts.part_of(v));
        }
    }
}
