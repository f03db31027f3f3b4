//! Cole–Vishkin deterministic 3-coloring of oriented paths and cycles
//! (Lemma 6.2, used by the deterministic star joining, Algorithm 5).
//!
//! Input: a functional graph with out-degree ≤ 1 **and in-degree ≤ 1**
//! (directed paths and cycles — exactly what remains after Algorithm 5's
//! first pruning step) plus distinct initial `u64` colors (leader IDs).
//! Deterministic coin tossing reduces the color space from 64 bits to 6
//! colors in `O(log* n)` synchronized steps, then three "shift-down"
//! rounds reduce 6 to 3.

/// Result of [`three_color`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ThreeColoring {
    /// Final colors, each in `{0, 1, 2}`.
    pub colors: Vec<u8>,
    /// Number of synchronous communication steps used (the `O(log* n)`
    /// reduction steps plus the three clean-up rounds) — callers convert
    /// this into PA-call cost.
    pub steps: usize,
}

/// Deterministically 3-colors a functional graph of directed paths and
/// cycles.
///
/// `succ[i]` is the successor of item `i` (or `None` at a path end);
/// `initial[i]` are distinct seed colors (IDs).
///
/// # Panics
/// Panics if adjacent items share an initial color, or if some item has
/// in-degree ≥ 2 (not a path/cycle family).
pub fn three_color(succ: &[Option<usize>], initial: &[u64]) -> ThreeColoring {
    let n = succ.len();
    assert_eq!(initial.len(), n);
    // in-degree check + predecessor map.
    let mut pred: Vec<Option<usize>> = vec![None; n];
    for (i, &s) in succ.iter().enumerate() {
        if let Some(t) = s {
            assert!(t < n, "successor out of range");
            assert!(pred[t].is_none(), "item {t} has in-degree >= 2");
            pred[t] = Some(i);
        }
    }
    let mut colors: Vec<u64> = initial.to_vec();
    for (i, &s) in succ.iter().enumerate() {
        if let Some(t) = s {
            assert_ne!(colors[i], colors[t], "adjacent items share initial color");
        }
    }
    let mut steps = 0usize;
    // Deterministic coin tossing until all colors fit in {0..5}.
    while colors.iter().any(|&c| c > 5) {
        steps += 1;
        let next: Vec<u64> = (0..n)
            .map(|i| {
                let own = colors[i];
                // Path ends compare against a virtual successor that
                // differs in bit 0.
                let other = match succ[i] {
                    Some(t) => colors[t],
                    None => own ^ 1,
                };
                let diff = own ^ other;
                debug_assert_ne!(diff, 0, "proper coloring must stay proper");
                let bit = diff.trailing_zeros() as u64;
                2 * bit + ((own >> bit) & 1)
            })
            .collect();
        colors = next;
    }
    // Shift-down: recolor classes 5, 4, 3 to the least free color in {0,1,2}.
    for class in (3..=5).rev() {
        steps += 1;
        let snapshot = colors.clone();
        for i in 0..n {
            if snapshot[i] == class {
                let s = succ[i].map(|t| snapshot[t]);
                let p = pred[i].map(|t| snapshot[t]);
                let free = (0u64..3)
                    .find(|c| Some(*c) != s && Some(*c) != p)
                    .expect("two neighbors block at most two of three colors");
                colors[i] = free;
            }
        }
    }
    // Final proper-coloring sanity.
    for (i, &s) in succ.iter().enumerate() {
        if let Some(t) = s {
            assert_ne!(colors[i], colors[t], "coloring must be proper");
        }
    }
    // The shift-down phase above ends with every color in 0..3, so the
    // u64 → u8 narrowing cannot truncate.
    #[allow(clippy::cast_possible_truncation)]
    let colors = colors.into_iter().map(|c| c as u8).collect();
    ThreeColoring { colors, steps }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn check_proper(succ: &[Option<usize>], colors: &[u8]) {
        for (i, &s) in succ.iter().enumerate() {
            if let Some(t) = s {
                assert_ne!(colors[i], colors[t], "edge ({i},{t}) monochromatic");
            }
            assert!(colors[i] < 3);
        }
    }

    #[test]
    fn colors_a_long_path() {
        let n = 200;
        let succ: Vec<Option<usize>> = (0..n)
            .map(|i| if i + 1 < n { Some(i + 1) } else { None })
            .collect();
        let initial: Vec<u64> = (0..n as u64).map(|i| i * 2654435761 + 17).collect();
        let r = three_color(&succ, &initial);
        check_proper(&succ, &r.colors);
        // log* convergence: a handful of steps even for 200 items.
        assert!(r.steps <= 10, "steps = {}", r.steps);
    }

    #[test]
    fn colors_a_cycle() {
        let n = 37;
        let succ: Vec<Option<usize>> = (0..n).map(|i| Some((i + 1) % n)).collect();
        let initial: Vec<u64> = (0..n as u64)
            .map(|i| (i + 1).wrapping_mul(0x9e3779b97f4a7c15))
            .collect();
        let r = three_color(&succ, &initial);
        check_proper(&succ, &r.colors);
    }

    #[test]
    fn two_cycle() {
        let succ = vec![Some(1), Some(0)];
        let r = three_color(&succ, &[111, 222]);
        check_proper(&succ, &r.colors);
    }

    #[test]
    fn singleton_and_isolated() {
        let succ = vec![None, None];
        let r = three_color(&succ, &[5, 5]); // not adjacent, equal colors fine
        assert!(r.colors.iter().all(|&c| c < 3));
    }

    #[test]
    fn random_path_cycle_mixtures() {
        let mut rng = StdRng::seed_from_u64(42);
        for trial in 0..20 {
            // Build disjoint paths and cycles over 60 items.
            let n = 60;
            let mut succ: Vec<Option<usize>> = vec![None; n];
            let mut items: Vec<usize> = (0..n).collect();
            // Fisher-Yates
            for i in (1..n).rev() {
                let j = usize::try_from(rng.random::<u64>() % (i as u64 + 1)).expect("j <= i");
                items.swap(i, j);
            }
            let mut idx = 0;
            while idx < n {
                let len = 1 + (rng.random::<u64>() % 7) as usize;
                let seg: Vec<usize> = items[idx..(idx + len).min(n)].to_vec();
                for w in seg.windows(2) {
                    succ[w[0]] = Some(w[1]);
                }
                // Half the segments close into cycles.
                if seg.len() >= 2 && rng.random::<bool>() {
                    succ[*seg.last().unwrap()] = Some(seg[0]);
                }
                idx += len;
            }
            let initial: Vec<u64> = (0..n as u64)
                .map(|i| i.wrapping_mul(0x2545F4914F6CDD1D) ^ trial)
                .collect();
            let r = three_color(&succ, &initial);
            check_proper(&succ, &r.colors);
        }
    }

    #[test]
    #[should_panic(expected = "in-degree")]
    fn rejects_indegree_two() {
        let succ = vec![Some(2), Some(2), None];
        let _ = three_color(&succ, &[1, 2, 3]);
    }

    #[test]
    #[should_panic(expected = "share initial color")]
    fn rejects_adjacent_equal_colors() {
        let succ = vec![Some(1), None];
        let _ = three_color(&succ, &[9, 9]);
    }
}
