//! Round/message accounting shared by every algorithm in the workspace.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign};

/// The cost of (a phase of) a distributed algorithm.
///
/// Phases compose: sequential composition adds rounds and messages
/// (`a + b`).
///
/// `capacity_multiplier` records the largest per-edge-per-round message
/// multiplicity any composed phase used (1 = strict CONGEST; the paper's
/// randomized PA explicitly blows meta-rounds up by `O(log n)`,
/// Section 4.2, and we surface that honestly here instead of hiding it).
///
/// # Example
/// ```rust
/// use rmo_congest::CostReport;
/// let a = CostReport::new(10, 100);
/// let b = CostReport::new(5, 40);
/// let total = a + b;
/// assert_eq!(total.rounds, 15);
/// assert_eq!(total.messages, 140);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CostReport {
    /// Synchronous rounds consumed.
    pub rounds: usize,
    /// Total messages sent (each message over one edge in one round).
    pub messages: u64,
    /// Max messages any directed edge carried in one round across the
    /// composed phases (1 = strict CONGEST).
    pub capacity_multiplier: usize,
}

impl CostReport {
    /// A report with the given rounds and messages, strict CONGEST capacity.
    pub fn new(rounds: usize, messages: u64) -> CostReport {
        CostReport {
            rounds,
            messages,
            capacity_multiplier: 1,
        }
    }

    /// The zero cost.
    pub fn zero() -> CostReport {
        CostReport {
            rounds: 0,
            messages: 0,
            capacity_multiplier: 1,
        }
    }

    /// A report with an explicit capacity multiplier.
    pub fn with_capacity(rounds: usize, messages: u64, capacity_multiplier: usize) -> CostReport {
        CostReport {
            rounds,
            messages,
            capacity_multiplier,
        }
    }

    /// Cost scaled by running the phase `k` times sequentially.
    pub fn repeated(self, k: usize) -> CostReport {
        CostReport {
            rounds: self.rounds * k,
            messages: self.messages * k as u64,
            capacity_multiplier: self.capacity_multiplier,
        }
    }
}

impl Add for CostReport {
    type Output = CostReport;
    fn add(self, rhs: CostReport) -> CostReport {
        CostReport {
            rounds: self.rounds + rhs.rounds,
            messages: self.messages + rhs.messages,
            capacity_multiplier: self.capacity_multiplier.max(rhs.capacity_multiplier),
        }
    }
}

impl AddAssign for CostReport {
    fn add_assign(&mut self, rhs: CostReport) {
        *self = *self + rhs;
    }
}

impl Sum for CostReport {
    fn sum<I: Iterator<Item = CostReport>>(iter: I) -> CostReport {
        iter.fold(CostReport::zero(), Add::add)
    }
}

impl fmt::Display for CostReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} rounds, {} messages (cap x{})",
            self.rounds, self.messages, self.capacity_multiplier
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_composes_sequentially() {
        let total = CostReport::new(3, 30) + CostReport::with_capacity(4, 40, 5);
        assert_eq!(total.rounds, 7);
        assert_eq!(total.messages, 70);
        assert_eq!(total.capacity_multiplier, 5);
    }

    #[test]
    fn repeated_scales() {
        let r = CostReport::new(2, 9).repeated(4);
        assert_eq!(r.rounds, 8);
        assert_eq!(r.messages, 36);
    }

    #[test]
    fn sum_over_iterator() {
        let total: CostReport = (1..=3).map(|i| CostReport::new(i, i as u64)).sum();
        assert_eq!(total.rounds, 6);
        assert_eq!(total.messages, 6);
    }

    #[test]
    fn display_is_informative() {
        let s = CostReport::new(2, 9).to_string();
        assert!(s.contains("2 rounds"));
        assert!(s.contains("9 messages"));
    }
}
