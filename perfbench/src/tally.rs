//! Counts over the scored window, and the small statistics helpers both
//! runs share.

use rmo_apps::stream::{BatchClose, StreamReport};
use rmo_core::EngineStats;

/// The exact counts of the scored window: a pure function of the seed.
#[derive(Debug, Default, PartialEq)]
pub struct Tally {
    pub queries: u64,
    pub rounds: u64,
    pub messages: u64,
    /// Modeled latencies in ticks, in arrival order.
    pub latencies: Vec<u64>,
    pub batches: u64,
    pub deadline_closes: u64,
    pub hits: u64,
    pub misses: u64,
    pub evictions: u64,
    pub division_hits: u64,
    pub division_misses: u64,
}

impl Tally {
    /// Adds one chunk's report; `before` is the cluster's lifetime engine
    /// counters when the chunk started.
    pub fn add(&mut self, report: &StreamReport, before: &EngineStats) {
        let after = &report.stats.engine;
        for outcome in &report.outcomes {
            if let Ok(response) = &outcome.result {
                let cost = response.cost();
                self.queries += 1;
                self.rounds += cost.rounds as u64;
                self.messages += cost.messages;
            }
            self.latencies.extend(outcome.latency());
        }
        self.batches += report.stats.batches;
        self.deadline_closes += report
            .log
            .batches
            .iter()
            .filter(|b| b.closed_by == BatchClose::Deadline)
            .count() as u64;
        self.hits += after.hits - before.hits;
        self.misses += after.misses - before.misses;
        self.evictions += after.evictions - before.evictions;
        self.division_hits += after.division_hits - before.division_hits;
        self.division_misses += after.division_misses - before.division_misses;
    }

    pub fn per_query(&self, total: u64) -> f64 {
        ratio(total as f64, self.queries as f64)
    }

    pub fn per_kquery(&self, total: u64) -> f64 {
        1000.0 * self.per_query(total)
    }

    /// Modeled latency percentile with `StreamReport::latency_percentile`'s
    /// nearest-rank rule, over the whole window.
    pub fn modeled(&self, pct: usize) -> f64 {
        let mut sorted: Vec<f64> = self.latencies.iter().map(|&t| t as f64).collect();
        sorted.sort_by(f64::total_cmp);
        percentile(&sorted, pct)
    }
}

/// `a / b`, or 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Nearest-rank percentile of ascending `sorted` (rank `pct·(len−1)/100`).
pub fn percentile(sorted: &[f64], pct: usize) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[pct * (sorted.len() - 1) / 100]
}

pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => 0.0,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}
