//! The benchmark's own seeded generator (SplitMix64), so no library
//! change can alter a workload's inputs.

/// SplitMix64: a tiny, well-mixed 64-bit generator.
pub struct Rng(u64);

impl Rng {
    /// A generator for `(seed, stream)`; distinct streams of one seed
    /// are independent.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        rng.next_u64();
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// Uniform index in `0..n` (`n > 0`).
    pub fn index(&mut self, n: usize) -> usize {
        self.below(n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Zipf weights `1 / (rank + 1)^exponent` for `count` items.
pub fn zipf(count: usize, exponent: f64) -> Vec<f64> {
    (0..count)
        .map(|rank| 1.0 / ((rank + 1) as f64).powf(exponent))
        .collect()
}
