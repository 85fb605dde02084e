//! Delta-stepping-style PageRank push as a [`PtWorkload`] — the first
//! max-directed workload on the core.
//!
//! The classic PageRank-delta push accumulates residuals with a
//! fetch-add, which is order-*dependent* under integer truncation: two
//! schedules can round differently and the differential suites could
//! not compare runs byte-for-byte. This workload keeps the
//! delta-stepping shape (token = vertex whose residual cleared the
//! threshold) but makes the update confluent: the per-vertex word holds
//! the **best single-path contribution** from the seed, claimed with an
//! atomic-max. A dequeued vertex `v` of degree `deg` offers every child
//! `(value[v] / 2) / deg` — residual halved (damping 0.5), split across
//! the out-edges — and offers below `threshold` are dropped. Monotone
//! system, unique least fixed point, exact under every schedule (see
//! `ptq_graph::propagate::decay_fixpoint`).

use super::{Claim, PtWorkload};
use ptq_graph::{decay_fixpoint, Csr};

/// Best-contribution PageRank-delta from a single seed. The value word
/// is the contribution, claimed with an atomic-max; the offer for every
/// child of a token is derived once from the token's residual and
/// degree in [`PtWorkload::candidate`].
#[derive(Clone, Copy, Debug)]
pub struct PrDelta {
    /// Seed vertex (the personalization vertex of the push).
    pub source: u32,
    /// Seed residual. Larger values deepen the propagation (each hop
    /// halves and divides by degree).
    pub init: u32,
    /// Delta cutoff: offers below this are dropped.
    pub threshold: u32,
}

impl PrDelta {
    /// PageRank-delta push from `source` with the default residual
    /// budget (`2^20`) and cutoff (`8`).
    pub fn new(source: u32) -> Self {
        Self::with_budget(source, 1 << 20, 8)
    }

    /// PageRank-delta push with an explicit seed residual and cutoff.
    ///
    /// # Panics
    /// Panics unless `init >= threshold > 0` (a zero cutoff admits
    /// zero-valued offers, which can never improve anything).
    pub fn with_budget(source: u32, init: u32, threshold: u32) -> Self {
        assert!(threshold > 0, "threshold must be positive");
        assert!(init >= threshold, "seed residual below the cutoff");
        PrDelta {
            source,
            init,
            threshold,
        }
    }
}

impl PtWorkload for PrDelta {
    fn name(&self) -> &'static str {
        "pr-delta"
    }

    fn claim(&self) -> Claim {
        Claim::Max
    }

    fn value_buffer_name(&self) -> &'static str {
        "resid"
    }

    fn initial_values(&self, num_vertices: usize) -> Vec<u32> {
        assert!(
            (self.source as usize) < num_vertices,
            "source vertex out of range"
        );
        let mut values = vec![0u32; num_vertices];
        values[self.source as usize] = self.init;
        values
    }

    fn seeds(&self, _num_vertices: usize) -> Vec<u32> {
        vec![self.source]
    }

    /// Residual halved, split by degree; below the delta cutoff the
    /// token propagates nothing.
    fn candidate(&self, raw: u32, degree: u32) -> Option<u32> {
        let share = (raw / 2).checked_div(degree).unwrap_or(0);
        (share >= self.threshold).then_some(share)
    }

    fn reference(&self, graph: &Csr) -> Vec<u32> {
        decay_fixpoint(graph, self.source, self.init, self.threshold)
    }

    /// Reached = holds a positive contribution (the seed included).
    fn reached(&self, values: &[u32]) -> usize {
        values.iter().filter(|&&v| v != 0).count()
    }

    /// Each vertex re-enqueues at most once per strict improvement of a
    /// geometrically shrinking value: modest headroom suffices.
    fn default_capacity_factor(&self) -> f64 {
        4.0
    }
}
