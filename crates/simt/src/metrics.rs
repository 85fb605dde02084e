//! Run metrics: the counters behind the paper's Figures 1 and 5.
//!
//! The paper's key quantitative arguments are counting arguments — "the
//! BASE queue requires over 60× more atomic operations than the proposed
//! queue" (Fig 5), "retries caused by CAS failure" (Fig 1) — so the
//! simulator counts every atomic, every CAS failure, and every
//! queue-operation retry exactly and deterministically.

/// Counters accumulated over one kernel run (or summed over several, for
/// level-synchronous baselines that relaunch per level).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Metrics {
    /// Global atomic operations issued (AFA + CAS attempts + exchanges).
    pub global_atomics: u64,
    /// Subset of `global_atomics` issued by the task scheduler itself
    /// (queue reservations and their retries — the paper's Figure 5
    /// denominator is the proposed design's count of these).
    pub scheduler_atomics: u64,
    /// CAS operations attempted (subset of `global_atomics`).
    pub cas_attempts: u64,
    /// CAS operations that failed — each implies an unhideable re-issue.
    pub cas_failures: u64,
    /// Workgroup-local (LDS) atomic operations; cheap, but counted for the
    /// ablation studies.
    pub lds_atomics: u64,
    /// Queue-operation retries caused by *exceptions* (queue-empty in the
    /// traditional design). Kernel-reported.
    pub queue_empty_retries: u64,
    /// Global memory operations (loads + stores).
    pub global_mem_ops: u64,
    /// Work cycles executed across all wavefronts.
    pub work_cycles: u64,
    /// Scheduling rounds the engine ran.
    pub rounds: u64,
    /// Kernel launches (1 for persistent kernels; #levels for Rodinia).
    pub launches: u64,
    /// Device cycles of the slowest compute unit — the kernel makespan.
    pub makespan_cycles: u64,
    /// Faults injected by the run's `FaultPlan` (poisons armed, stall
    /// windows entered; wave-kills abort the run, so they surface in the
    /// structured error instead). Zero unless fault injection is on.
    pub injected_faults: u64,
    /// Extra CU cycles charged by injected stall windows. Zero unless
    /// fault injection is on.
    pub injected_stall_cycles: u64,
}

impl Metrics {
    /// Total retry overhead: CAS failures plus queue-exception retries.
    /// This is the quantity the proposed RF/AN design drives to zero.
    pub fn total_retries(&self) -> u64 {
        self.cas_failures + self.queue_empty_retries
    }

    /// CAS failure rate in `[0, 1]`.
    pub fn cas_failure_rate(&self) -> f64 {
        if self.cas_attempts == 0 {
            0.0
        } else {
            self.cas_failures as f64 / self.cas_attempts as f64
        }
    }

    /// Accumulates another run's counters (used by multi-launch baselines).
    pub fn merge(&mut self, other: &Metrics) {
        self.global_atomics += other.global_atomics;
        self.scheduler_atomics += other.scheduler_atomics;
        self.cas_attempts += other.cas_attempts;
        self.cas_failures += other.cas_failures;
        self.lds_atomics += other.lds_atomics;
        self.queue_empty_retries += other.queue_empty_retries;
        self.global_mem_ops += other.global_mem_ops;
        self.work_cycles += other.work_cycles;
        self.rounds += other.rounds;
        self.launches += other.launches;
        // Sequential launches: makespans add up.
        self.makespan_cycles += other.makespan_cycles;
        self.injected_faults += other.injected_faults;
        self.injected_stall_cycles += other.injected_stall_cycles;
    }
}

/// Always-on lightweight profiling counters, reported alongside
/// [`Metrics`] but deliberately kept out of it: goldens pin `Metrics`
/// equality bit-for-bit, while these counters describe *host-side*
/// execution mechanics (arena footprint, demand zeroing, park replay)
/// that performance work is allowed to change without perturbing any
/// simulated quantity.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Profile {
    /// Device words allocated when the run finished.
    pub arena_words: u64,
    /// Bytes of word shadow state behind the arena: 8 per device word
    /// plus 4 per slot of the touched-address journal's capacity. Address
    /// space, not residency — the table is lazily mapped.
    pub meta_bytes: u64,
    /// Words zeroed on demand because an allocation overlapped a
    /// recycled arena's dirty prefix (0 on fresh arenas).
    pub demand_zeroed_words: u64,
    /// Wave-park events: pure polling cycles that entered closed-form
    /// replay.
    pub park_events: u64,
    /// Parked wave-cycles replayed without re-executing the kernel — the
    /// park fast path's hit count.
    pub park_replay_cycles: u64,
    /// Wakes whose re-executed cycle re-parked with the identical captured
    /// charges: the wave need not have woken. `park_events` minus this is
    /// the number of parks that followed real work.
    pub spurious_wakes: u64,
}

impl Profile {
    /// Folds another run's profile in: event counters add, footprint and
    /// peak gauges keep their maximum (the counters describe one engine,
    /// so cumulative gauges must not double-count across launches).
    pub fn merge(&mut self, other: &Profile) {
        self.arena_words = self.arena_words.max(other.arena_words);
        self.meta_bytes = self.meta_bytes.max(other.meta_bytes);
        self.demand_zeroed_words = self.demand_zeroed_words.max(other.demand_zeroed_words);
        self.park_events += other.park_events;
        self.park_replay_cycles += other.park_replay_cycles;
        self.spurious_wakes += other.spurious_wakes;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retries_sum_both_sources() {
        let m = Metrics {
            cas_failures: 3,
            queue_empty_retries: 4,
            ..Metrics::default()
        };
        assert_eq!(m.total_retries(), 7);
    }

    #[test]
    fn failure_rate_handles_zero_attempts() {
        assert_eq!(Metrics::default().cas_failure_rate(), 0.0);
        let m = Metrics {
            cas_attempts: 8,
            cas_failures: 2,
            ..Metrics::default()
        };
        assert!((m.cas_failure_rate() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn profile_merge_sums_events_and_maxes_gauges() {
        let mut a = Profile {
            arena_words: 100,
            meta_bytes: 800,
            demand_zeroed_words: 40,
            park_events: 2,
            park_replay_cycles: 10,
            spurious_wakes: 1,
        };
        let b = Profile {
            arena_words: 50,
            meta_bytes: 400,
            demand_zeroed_words: 60,
            park_events: 3,
            park_replay_cycles: 7,
            spurious_wakes: 2,
        };
        a.merge(&b);
        assert_eq!(a.arena_words, 100);
        assert_eq!(a.meta_bytes, 800);
        assert_eq!(a.demand_zeroed_words, 60);
        assert_eq!(a.park_events, 5);
        assert_eq!(a.park_replay_cycles, 17);
        assert_eq!(a.spurious_wakes, 3);
    }

    #[test]
    fn merge_adds_everything() {
        let mut a = Metrics {
            global_atomics: 1,
            scheduler_atomics: 1,
            cas_attempts: 2,
            cas_failures: 1,
            lds_atomics: 5,
            queue_empty_retries: 1,
            global_mem_ops: 10,
            work_cycles: 7,
            rounds: 3,
            launches: 1,
            makespan_cycles: 100,
            injected_faults: 2,
            injected_stall_cycles: 40,
        };
        a.merge(&a.clone());
        assert_eq!(a.global_atomics, 2);
        assert_eq!(a.makespan_cycles, 200);
        assert_eq!(a.launches, 2);
        assert_eq!(a.injected_faults, 4);
        assert_eq!(a.injected_stall_cycles, 80);
    }
}
