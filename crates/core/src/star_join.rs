//! Algorithm 5: deterministic star joining.
//!
//! Given items (parts or sub-parts) that have each chosen an out-edge to
//! another item, designate a constant fraction as **receivers** and the
//! rest pointing at receivers as **joiners**, such that joiners merge into
//! receivers in a star pattern (bounded diameter growth). Steps:
//!
//! 1. Items with in-degree ≥ 2 become receivers; items pointing at them
//!    become joiners; both leave the supergraph. What remains has in- and
//!    out-degree ≤ 1: disjoint directed paths and cycles.
//! 2. 3-color the remainder with Cole–Vishkin
//!    ([`three_color`](crate::cole_vishkin::three_color())).
//! 3. For each color `k = 0, 1, 2` in turn: still-present items of color
//!    `k` become receivers, items pointing at them joiners; remove both.
//!
//! Lemma 6.3: every item ends up a receiver or a joiner, the joiners'
//! edges form stars around receivers, and at most `2/3` of the items
//! survive as receivers, using `O(log* n)` PA calls.

use crate::cole_vishkin::three_color;

/// Outcome of a star joining.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StarJoining {
    /// `joins[i] = Some(r)` — item `i` is a joiner merging into receiver
    /// `r`; `None` — item `i` is a receiver (or had no out-edge).
    pub joins: Vec<Option<usize>>,
    /// Synchronous steps consumed (each maps to `O(1)` PA calls;
    /// dominated by the Cole–Vishkin `O(log* n)` steps).
    pub steps: usize,
}

impl StarJoining {
    /// Number of items that merged into some receiver.
    pub fn joiner_count(&self) -> usize {
        self.joins.iter().filter(|j| j.is_some()).count()
    }
}

/// Runs Algorithm 5.
///
/// `out_edge[i]` — the item that `i` chose to merge toward (`None` items
/// do not participate and stay unmerged this round); `ids[i]` — distinct
/// identifiers seeding the Cole–Vishkin coloring.
///
/// # Panics
/// Panics if an out-edge is a self-loop or out of range.
pub fn star_joining(out_edge: &[Option<usize>], ids: &[u64]) -> StarJoining {
    let n = out_edge.len();
    assert_eq!(ids.len(), n);
    for (i, &t) in out_edge.iter().enumerate() {
        if let Some(t) = t {
            assert!(t < n, "out-edge target out of range");
            assert_ne!(t, i, "self-loop out-edge");
        }
    }
    let mut joins: Vec<Option<usize>> = vec![None; n];
    // Every item is present; items without an out-edge can still *receive*
    // (Algorithm 6 points incomplete sub-parts at complete ones), they just
    // never join anyone.
    let mut present: Vec<bool> = vec![true; n];
    let mut steps = 1usize;

    // Step 1: in-degree >= 2 -> receiver.
    let mut indeg = vec![0usize; n];
    for &t in out_edge.iter().flatten() {
        indeg[t] += 1;
    }
    let mut receiver: Vec<bool> = vec![false; n];
    for i in 0..n {
        if indeg[i] >= 2 {
            receiver[i] = true;
        }
    }
    for i in 0..n {
        if present[i] && !receiver[i] {
            if let Some(t) = out_edge[i] {
                if receiver[t] {
                    joins[i] = Some(t);
                }
            }
        }
    }
    for i in 0..n {
        if receiver[i] || joins[i].is_some() {
            present[i] = false;
        }
    }

    // Step 2: 3-color the remaining paths/cycles.
    let remaining: Vec<usize> = (0..n).filter(|&i| present[i]).collect();
    if !remaining.is_empty() {
        // Position in `remaining` by item; only present items are read.
        let mut index = vec![usize::MAX; n];
        for (k, &i) in remaining.iter().enumerate() {
            if let Some(slot) = index.get_mut(i) {
                *slot = k;
            }
        }
        let succ: Vec<Option<usize>> = remaining
            .iter()
            .map(|&i| {
                out_edge
                    .get(i)
                    .copied()
                    .flatten()
                    .filter(|&t| present.get(t) == Some(&true))
                    .and_then(|t| index.get(t).copied())
            })
            .collect();
        let initial: Vec<u64> = remaining.iter().map(|&i| ids[i]).collect();
        let coloring = three_color(&succ, &initial);
        steps += coloring.steps;

        // Step 3: sweep colors 0, 1, 2.
        for k in 0..3u8 {
            steps += 1;
            // New receivers: present items of color k.
            for (idx, &i) in remaining.iter().enumerate() {
                if present[i] && coloring.colors[idx] == k {
                    receiver[i] = true;
                }
            }
            // Joiners: present non-receivers pointing at a receiver.
            for &i in &remaining {
                if present[i] && !receiver[i] {
                    if let Some(t) = out_edge[i] {
                        if receiver[t] {
                            joins[i] = Some(t);
                        }
                    }
                }
            }
            for &i in &remaining {
                if receiver[i] || joins[i].is_some() {
                    present[i] = false;
                }
            }
        }
    }
    debug_assert!(
        (0..n).all(|i| !present[i]),
        "every participating item resolved"
    );
    // Star property: a joiner's target is never itself a joiner.
    debug_assert!(
        joins.iter().flatten().all(|&t| joins[t].is_none()),
        "joiner chains would break star diameter"
    );
    StarJoining { joins, steps }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn ids(n: usize) -> Vec<u64> {
        (0..n as u64)
            .map(|i| i.wrapping_mul(0x9e3779b97f4a7c15) | 1)
            .collect()
    }

    #[test]
    fn star_input_resolves_in_step_one() {
        // items 1..4 all point at 0.
        let out = vec![None, Some(0), Some(0), Some(0)];
        // item 0 must participate to be a receiver? It has no out-edge; it
        // is "not participating" but can still receive.
        let r = star_joining(&out, &ids(4));
        assert_eq!(r.joins[1], Some(0));
        assert_eq!(r.joins[2], Some(0));
        assert_eq!(r.joins[3], Some(0));
        assert_eq!(r.joins[0], None);
    }

    #[test]
    fn two_cycle_merges_one_way() {
        let out = vec![Some(1), Some(0)];
        let r = star_joining(&out, &ids(2));
        let merged = r.joiner_count();
        assert_eq!(merged, 1, "exactly one of the pair joins the other");
    }

    #[test]
    fn chain_merges_constant_fraction() {
        // 0 -> 1 -> 2 -> ... -> 29 -> None's end.
        let n = 30;
        let out: Vec<Option<usize>> = (0..n)
            .map(|i| if i + 1 < n { Some(i + 1) } else { None })
            .collect();
        let r = star_joining(&out, &ids(n));
        // item n-1 doesn't participate; of the rest, at least 1/3 join.
        assert!(
            r.joiner_count() * 3 >= n - 1,
            "only {} of {} merged",
            r.joiner_count(),
            n - 1
        );
    }

    #[test]
    fn no_joiner_chains() {
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..50 {
            let n = 40;
            let out: Vec<Option<usize>> = (0..n)
                .map(|i| {
                    let mut t = usize::try_from(rng.random::<u64>() % n as u64).expect("t < n");
                    if t == i {
                        t = (t + 1) % n;
                    }
                    Some(t)
                })
                .collect();
            let r = star_joining(&out, &ids(n));
            for (i, j) in r.joins.iter().enumerate() {
                if let Some(t) = j {
                    assert!(r.joins[*t].is_none(), "joiner {i} -> joiner {t}");
                }
            }
        }
    }

    #[test]
    fn constant_fraction_merges_on_random_functional_graphs() {
        let mut rng = StdRng::seed_from_u64(9);
        for trial in 0..20 {
            let n = 60;
            let out: Vec<Option<usize>> = (0..n)
                .map(|i| {
                    let mut t = usize::try_from(rng.random::<u64>() % n as u64).expect("t < n");
                    if t == i {
                        t = (t + 1) % n;
                    }
                    Some(t)
                })
                .collect();
            let r = star_joining(&out, &ids(n));
            let survivors = n - r.joiner_count();
            assert!(
                survivors * 4 <= 3 * n + 4,
                "trial {trial}: {survivors}/{n} survive — no constant-fraction merge"
            );
        }
    }

    #[test]
    fn none_items_never_join() {
        let out = vec![None, None, Some(1)];
        let r = star_joining(&out, &ids(3));
        assert_eq!(r.joins[0], None, "no out-edge, cannot join");
        assert_eq!(r.joins[1], None, "no out-edge, cannot join");
        // Item 2 either joined item 1 or became a receiver itself,
        // depending on the color order — both are valid star joinings.
        if let Some(t) = r.joins[2] {
            assert_eq!(t, 1);
        }
    }

    #[test]
    fn steps_are_log_star_scale() {
        let n = 500;
        let out: Vec<Option<usize>> = (0..n)
            .map(|i| if i + 1 < n { Some(i + 1) } else { None })
            .collect();
        let r = star_joining(&out, &ids(n));
        assert!(r.steps <= 16, "steps = {}", r.steps);
    }
}
