//! Integer math helpers shared across the workspace.
//!
//! The paper's round/phase bounds are all of the form `O(log n)` or
//! `O(√n)`; computing them through `f64` invites truncation-lint noise
//! and (in principle) rounding drift, so every crate uses these exact
//! integer versions instead.

/// `⌈log₂ n⌉` for `n ≥ 1`, computed in integer arithmetic.
///
/// `ceil_log2(1) == 0`, `ceil_log2(2) == 1`, `ceil_log2(3) == 2`.
/// Returns 0 for `n == 0` (callers clamp with `.max(1)`/`.max(2)` when a
/// positive bound is required, matching the paper's `n ≥ 2` convention).
pub fn ceil_log2(n: usize) -> usize {
    let mut k = 0usize;
    let mut pow = 1usize;
    while pow < n {
        k += 1;
        // Saturation keeps the loop total (`usize::MAX >= n` always) and
        // still yields the right exponent at the top of the range.
        pow = pow.saturating_mul(2);
    }
    k
}

/// `⌊√n⌋`, computed in integer arithmetic (exact for every `usize`,
/// unlike a round-trip through `f64` above 2⁵³).
pub fn isqrt(n: usize) -> usize {
    if n < 2 {
        return n;
    }
    // Newton's method on integers converges in O(log log n) steps from
    // any over-estimate; start from a power-of-two bound.
    let mut x = 1usize << ceil_log2(n).div_ceil(2);
    loop {
        let y = (x + n / x) / 2;
        if y >= x {
            return x;
        }
        x = y;
    }
}

/// `⌈√n⌉`.
pub fn ceil_sqrt(n: usize) -> usize {
    let r = isqrt(n);
    if r * r == n {
        r
    } else {
        r + 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ceil_log2_matches_definition() {
        assert_eq!(ceil_log2(0), 0);
        assert_eq!(ceil_log2(1), 0);
        assert_eq!(ceil_log2(2), 1);
        assert_eq!(ceil_log2(3), 2);
        assert_eq!(ceil_log2(4), 2);
        assert_eq!(ceil_log2(5), 3);
        for k in 0..40 {
            assert_eq!(ceil_log2(1usize << k), k);
            if k > 0 {
                assert_eq!(ceil_log2((1usize << k) + 1), k + 1);
            }
        }
    }

    #[test]
    fn ceil_log2_matches_float_path() {
        for n in 2..10_000usize {
            let float = (n as f64).log2().ceil();
            assert_eq!(ceil_log2(n) as f64, float, "n = {n}");
        }
    }

    #[test]
    fn isqrt_is_exact() {
        for n in 0..10_000usize {
            let r = isqrt(n);
            assert!(r * r <= n, "n = {n}");
            assert!((r + 1) * (r + 1) > n, "n = {n}");
            let c = ceil_sqrt(n);
            assert!(
                c * c >= n && c.saturating_sub(1).pow(2) < n.max(1),
                "n = {n}"
            );
        }
        assert_eq!(isqrt(usize::MAX), (1usize << 32) - 1);
    }
}
