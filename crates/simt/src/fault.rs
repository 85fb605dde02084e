//! Deterministic fault injection.
//!
//! A [`FaultPlan`] is a fixed schedule of faults the engine consults each
//! round. Injection is a *pure overlay*: an empty plan
//! takes zero branches in the hot loop beyond a single cheapness check,
//! so all pinned engine goldens stay bit-identical (tested in
//! `engine::tests` and `pt-bfs/tests/engine_regression.rs`).
//!
//! Three fault kinds are modeled:
//!
//! * **Wave-kill** — at round R, when wavefront `wave` comes up in the
//!   issue rotation, the run aborts with a structured
//!   [`AbortReason::InjectedFault`]. Models a preempted/killed workgroup.
//! * **CU stall** — compute unit `cu` is charged `extra_cycles` per round
//!   for a window of rounds. Timing-only: the run completes, but the
//!   makespan and per-CU cycle counters reflect the stall (recorded in
//!   `Metrics::injected_stall_cycles`). Models clock throttling or a
//!   noisy co-tenant.
//! * **Memory poison** — at round R a named buffer word is armed; the
//!   next *kernel* access (load, store, or RMW) faults with a structured
//!   error. Host reads do not fault, so a checkpoint snapshot can still
//!   be taken. Models a detected (ECC-style) memory error, not silent
//!   corruption — which is what makes byte-identical recovery possible.
//!
//! Faults are transient: after an abort, recovery code calls
//! [`FaultPlan::expire_through`] to drop already-fired faults so the
//! retried launch makes progress (a cosmic ray does not strike twice at
//! the same round).

use crate::error::{AbortReason, FaultKind};

/// Kill wavefront `wave` when it is issued at round `round`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WaveKill {
    /// Scheduling round at which the kill fires.
    pub round: u64,
    /// Global wavefront index to kill.
    pub wave: usize,
}

/// Charge compute unit `cu` an extra `extra_cycles` per round for
/// `rounds` rounds starting at `from_round`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CuStall {
    /// Compute unit to stall.
    pub cu: usize,
    /// First round of the stall window.
    pub from_round: u64,
    /// Window length in rounds.
    pub rounds: u64,
    /// Extra cycles charged per round inside the window.
    pub extra_cycles: u64,
}

impl CuStall {
    /// True when `round` falls inside this stall window.
    pub fn covers(&self, round: u64) -> bool {
        round >= self.from_round && round < self.from_round.saturating_add(self.rounds)
    }
}

/// Poison word `index` of buffer `buffer` at round `round`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemPoison {
    /// Round at which the word is armed.
    pub round: u64,
    /// Name of the buffer (as registered with `DeviceMemory::alloc`).
    /// Unknown names are skipped — plans stay portable across kernels.
    pub buffer: String,
    /// Word index within the buffer.
    pub index: usize,
}

/// A deterministic fault schedule consulted by the engine each round.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// Wave-kill faults.
    pub wave_kills: Vec<WaveKill>,
    /// CU stall windows.
    pub cu_stalls: Vec<CuStall>,
    /// Memory poison faults.
    pub mem_poisons: Vec<MemPoison>,
}

/// Bounds for [`FaultPlan::seeded`]: how many faults of each kind to
/// draw and the ranges to draw them from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultSpec {
    /// Number of wave-kill faults.
    pub wave_kills: u32,
    /// Number of CU stall windows.
    pub cu_stalls: u32,
    /// Number of memory poison faults.
    pub mem_poisons: u32,
    /// Rounds are drawn from `[0, max_round)`.
    pub max_round: u64,
    /// Waves are drawn from `[0, waves)`.
    pub waves: usize,
    /// CUs are drawn from `[0, cus)`.
    pub cus: usize,
    /// Stall windows last `[1, max_stall_rounds]` rounds.
    pub max_stall_rounds: u64,
    /// Stall windows charge `[1, max_stall_cycles]` extra cycles/round.
    pub max_stall_cycles: u64,
    /// Buffer poisons target (skipped if the kernel never allocs it).
    pub poison_buffer: String,
    /// Poison indices are drawn from `[0, poison_words)`.
    pub poison_words: usize,
}

impl FaultPlan {
    /// The empty plan: injection disabled, bit-identical timing.
    pub const EMPTY: FaultPlan = FaultPlan {
        wave_kills: Vec::new(),
        cu_stalls: Vec::new(),
        mem_poisons: Vec::new(),
    };

    /// An empty plan (same as [`FaultPlan::EMPTY`]).
    pub fn new() -> Self {
        Self::default()
    }

    /// True when no faults are scheduled — the engine takes its
    /// fault-free fast path.
    pub fn is_empty(&self) -> bool {
        self.wave_kills.is_empty() && self.cu_stalls.is_empty() && self.mem_poisons.is_empty()
    }

    /// Total scheduled faults.
    pub fn len(&self) -> usize {
        self.wave_kills.len() + self.cu_stalls.len() + self.mem_poisons.len()
    }

    /// Schedule a wave-kill (builder style).
    pub fn kill_wave(mut self, round: u64, wave: usize) -> Self {
        self.wave_kills.push(WaveKill { round, wave });
        self
    }

    /// Schedule a CU stall window (builder style).
    pub fn stall_cu(mut self, cu: usize, from_round: u64, rounds: u64, extra_cycles: u64) -> Self {
        self.cu_stalls.push(CuStall {
            cu,
            from_round,
            rounds,
            extra_cycles,
        });
        self
    }

    /// Schedule a memory poison (builder style).
    pub fn poison(mut self, round: u64, buffer: impl Into<String>, index: usize) -> Self {
        self.mem_poisons.push(MemPoison {
            round,
            buffer: buffer.into(),
            index,
        });
        self
    }

    /// Draw a deterministic fault schedule from `seed`. The same seed and
    /// spec always produce the identical plan, regardless of thread count
    /// or host — the basis of the chaos differential tests.
    pub fn seeded(seed: u64, spec: &FaultSpec) -> Self {
        let mut rng = SplitMix64::new(seed);
        let mut plan = FaultPlan::new();
        for _ in 0..spec.wave_kills {
            plan.wave_kills.push(WaveKill {
                round: rng.below(spec.max_round.max(1)),
                wave: rng.below(spec.waves.max(1) as u64) as usize,
            });
        }
        for _ in 0..spec.cu_stalls {
            plan.cu_stalls.push(CuStall {
                cu: rng.below(spec.cus.max(1) as u64) as usize,
                from_round: rng.below(spec.max_round.max(1)),
                rounds: 1 + rng.below(spec.max_stall_rounds.max(1)),
                extra_cycles: 1 + rng.below(spec.max_stall_cycles.max(1)),
            });
        }
        for _ in 0..spec.mem_poisons {
            plan.mem_poisons.push(MemPoison {
                round: rng.below(spec.max_round.max(1)),
                buffer: spec.poison_buffer.clone(),
                index: rng.below(spec.poison_words.max(1) as u64) as usize,
            });
        }
        // Deterministic ordering regardless of draw order.
        plan.normalize();
        plan
    }

    /// Sort faults by round so engine-side consumption is in-order.
    pub fn normalize(&mut self) {
        self.wave_kills.sort_by_key(|k| (k.round, k.wave));
        self.cu_stalls
            .sort_by_key(|s| (s.from_round, s.cu, s.rounds, s.extra_cycles));
        self.mem_poisons
            .sort_by(|a, b| (a.round, &a.buffer, a.index).cmp(&(b.round, &b.buffer, b.index)));
    }

    /// Drop transient faults (kills and poisons) scheduled at or before
    /// `round`: they have fired (or been overtaken by the abort) and must
    /// not re-fire when the failed launch is retried. Stall windows stay —
    /// they never abort, so replaying them is harmless and keeps timing
    /// deterministic.
    pub fn expire_through(&self, round: u64) -> FaultPlan {
        FaultPlan {
            wave_kills: self
                .wave_kills
                .iter()
                .copied()
                .filter(|k| k.round > round)
                .collect(),
            cu_stalls: self.cu_stalls.clone(),
            mem_poisons: self
                .mem_poisons
                .iter()
                .filter(|p| p.round > round)
                .cloned()
                .collect(),
        }
    }

    /// The abort reason a fired fault of `kind` maps to.
    pub fn abort_reason(kind: FaultKind, wave: usize, round: u64) -> AbortReason {
        AbortReason::InjectedFault { kind, wave, round }
    }
}

/// Minimal SplitMix64 (Steele et al.) — `simt` is dependency-free, so it
/// carries its own copy rather than depending on `ptq_graph::rng`.
struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform draw in `[0, bound)` (bound > 0), via 128-bit multiply.
    fn below(&mut self, bound: u64) -> u64 {
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> FaultSpec {
        FaultSpec {
            wave_kills: 3,
            cu_stalls: 2,
            mem_poisons: 2,
            max_round: 100,
            waves: 8,
            cus: 4,
            max_stall_rounds: 10,
            max_stall_cycles: 50,
            poison_buffer: "workqueue".into(),
            poison_words: 64,
        }
    }

    #[test]
    fn empty_plan_is_empty() {
        assert!(FaultPlan::EMPTY.is_empty());
        assert!(FaultPlan::new().is_empty());
        assert_eq!(FaultPlan::EMPTY.len(), 0);
    }

    #[test]
    fn seeded_is_deterministic() {
        let a = FaultPlan::seeded(42, &spec());
        let b = FaultPlan::seeded(42, &spec());
        assert_eq!(a, b);
        assert_eq!(a.len(), 7);
        let c = FaultPlan::seeded(43, &spec());
        assert_ne!(a, c);
    }

    #[test]
    fn seeded_respects_bounds() {
        let plan = FaultPlan::seeded(7, &spec());
        for k in &plan.wave_kills {
            assert!(k.round < 100);
            assert!(k.wave < 8);
        }
        for s in &plan.cu_stalls {
            assert!(s.cu < 4);
            assert!(s.from_round < 100);
            assert!((1..=10).contains(&s.rounds));
            assert!((1..=50).contains(&s.extra_cycles));
        }
        for p in &plan.mem_poisons {
            assert!(p.round < 100);
            assert!(p.index < 64);
            assert_eq!(p.buffer, "workqueue");
        }
    }

    #[test]
    fn expire_drops_fired_transients_keeps_stalls() {
        let plan = FaultPlan::new()
            .kill_wave(5, 0)
            .kill_wave(20, 1)
            .poison(3, "q", 0)
            .poison(30, "q", 1)
            .stall_cu(0, 2, 10, 5);
        let pruned = plan.expire_through(10);
        assert_eq!(pruned.wave_kills, vec![WaveKill { round: 20, wave: 1 }]);
        assert_eq!(pruned.mem_poisons.len(), 1);
        assert_eq!(pruned.mem_poisons[0].round, 30);
        assert_eq!(pruned.cu_stalls.len(), 1);
    }

    #[test]
    fn stall_window_coverage() {
        let s = CuStall {
            cu: 0,
            from_round: 10,
            rounds: 3,
            extra_cycles: 1,
        };
        assert!(!s.covers(9));
        assert!(s.covers(10));
        assert!(s.covers(12));
        assert!(!s.covers(13));
    }

    #[test]
    fn builder_accumulates() {
        let plan = FaultPlan::new()
            .kill_wave(1, 2)
            .stall_cu(0, 0, 5, 10)
            .poison(2, "workqueue", 7);
        assert_eq!(plan.len(), 3);
        assert!(!plan.is_empty());
    }
}
