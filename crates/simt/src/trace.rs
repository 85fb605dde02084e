//! The round trace, summarised: what bounded each scheduling round.
//!
//! Every round, the engine knows how long it took on the busiest compute
//! unit and which resource set that length — SIMD issue, exposed latency,
//! or memory (the device-wide bandwidth pool, the CU's atomic unit, or
//! the round's hottest word) — plus how many wavefronts were still
//! active. [`RoundBounds`] folds those into a fixed-size sum on every
//! run: O(1) memory, no switch. It is the simulator's answer to a
//! hardware profiler's occupancy timeline: the scaling study uses it to
//! show *why* a configuration is slow, not just that it is.

/// Which resource bounded one round on the busiest CU.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Bound {
    /// SIMD instruction issue (unhideable work, including CAS retries).
    Issue,
    /// Exposed memory/atomic latency (not enough wavefronts to hide it).
    Latency,
    /// Memory bandwidth, the atomic unit's throughput, or the hot word.
    Memory,
}

/// A run's rounds, summed by what bounded them.
///
/// Because each round charges its busiest CU — which can differ between
/// rounds — [`RoundBounds::total_cycles`] is an *upper envelope* of the
/// makespan (minus launch overhead), equal to it whenever one CU stays the
/// bottleneck throughout.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct RoundBounds {
    /// Cycles of rounds bounded by SIMD issue.
    pub issue_cycles: u64,
    /// Cycles of rounds bounded by exposed latency.
    pub latency_cycles: u64,
    /// Cycles of rounds bounded by bandwidth, atomic unit or hot word.
    pub memory_cycles: u64,
    /// Σ over rounds of (active wavefronts at round start × round
    /// cycles), accumulated in round order.
    pub active_wave_cycles: f64,
}

impl RoundBounds {
    /// Adds one round of `cycles`, bounded by `bound`, that started with
    /// `active_waves` wavefronts.
    #[inline]
    pub(crate) fn record(&mut self, cycles: u64, bound: Bound, active_waves: usize) {
        match bound {
            Bound::Issue => self.issue_cycles += cycles,
            Bound::Latency => self.latency_cycles += cycles,
            Bound::Memory => self.memory_cycles += cycles,
        }
        self.active_wave_cycles += active_waves as f64 * cycles as f64;
    }

    /// Adds another run's rounds (a later launch of the same run).
    pub fn merge(&mut self, other: &RoundBounds) {
        self.issue_cycles += other.issue_cycles;
        self.latency_cycles += other.latency_cycles;
        self.memory_cycles += other.memory_cycles;
        self.active_wave_cycles += other.active_wave_cycles;
    }

    /// Total cycles across rounds.
    pub fn total_cycles(&self) -> u64 {
        self.issue_cycles + self.latency_cycles + self.memory_cycles
    }

    /// Fraction of cycles bounded by each resource, in the order
    /// (issue, latency, memory).
    pub fn bound_breakdown(&self) -> (f64, f64, f64) {
        let total = self.total_cycles().max(1) as f64;
        (
            self.issue_cycles as f64 / total,
            self.latency_cycles as f64 / total,
            self.memory_cycles as f64 / total,
        )
    }

    /// Average active wavefronts, weighted by round duration — an
    /// occupancy measure.
    pub fn weighted_occupancy(&self) -> f64 {
        self.active_wave_cycles / self.total_cycles().max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RoundBounds {
        let mut b = RoundBounds::default();
        b.record(60, Bound::Issue, 4);
        b.record(30, Bound::Latency, 2);
        b.record(10, Bound::Memory, 1);
        b
    }

    #[test]
    fn totals_and_breakdown() {
        let b = sample();
        assert_eq!(b.total_cycles(), 100);
        let (i, l, m) = b.bound_breakdown();
        assert!((i - 0.6).abs() < 1e-12);
        assert!((l - 0.3).abs() < 1e-12);
        assert!((m - 0.1).abs() < 1e-12);
        // A later launch adds field by field.
        let mut twice = b;
        twice.merge(&b);
        assert_eq!(twice.total_cycles(), 200);
        assert_eq!(twice.bound_breakdown(), b.bound_breakdown());
    }

    #[test]
    fn occupancy_weighted_by_duration() {
        let b = sample();
        // (4*60 + 2*30 + 1*10) / 100 = 3.1
        assert!((b.weighted_occupancy() - 3.1).abs() < 1e-12);
    }

    #[test]
    fn empty_trace_is_safe() {
        let b = RoundBounds::default();
        assert_eq!(b.total_cycles(), 0);
        assert_eq!(b.bound_breakdown(), (0.0, 0.0, 0.0));
        assert_eq!(b.weighted_occupancy(), 0.0);
    }
}
