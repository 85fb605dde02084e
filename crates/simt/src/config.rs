//! GPU hardware configurations and the cycle-cost model.
//!
//! The two presets mirror the paper's test hardware (§5.4):
//!
//! * [`GpuConfig::fiji`] — AMD Radeon R9 Fury, 56 CUs, discrete memory;
//!   the paper launches 224 workgroups of 64 threads (4 per CU) = 14,336
//!   persistent threads.
//! * [`GpuConfig::spectre`] — AMD Radeon R7 APU, 8 CUs, shared CPU-GPU
//!   memory; 32 workgroups = 2,048 persistent threads.
//!
//! Cost-model values are in cycles and are *calibration knobs*, not claims
//! about GCN microarchitecture: the reproduction needs the relative costs
//! (atomic latency ≫ issue cost, serialization per contender, unhideable
//! re-issue on CAS failure) to be right, not the absolute values.

/// Widest wavefront a launch accepts: per-lane state is kept as one
/// bit per lane in a `u64` mask.
pub const MAX_WAVE_SIZE: usize = 64;

/// Hardware shape + cost model for one simulated GPU.
#[derive(Clone, Debug, PartialEq)]
pub struct GpuConfig {
    /// Marketing/codename used in reports ("Fiji", "Spectre").
    pub name: &'static str,
    /// Number of compute units.
    pub num_cus: usize,
    /// SIMD engines per CU (GCN has 4; each issues one wavefront op/cycle).
    pub simds_per_cu: usize,
    /// Threads per wavefront (64 on all GCN parts); a launch refuses
    /// anything outside `1..=`[`MAX_WAVE_SIZE`].
    pub wave_size: usize,
    /// Wavefronts per workgroup. The paper uses workgroups of exactly one
    /// wavefront "to avoid barriers".
    pub waves_per_wg: usize,
    /// Workgroup slots per CU ("launched 4 workgroups on each CU to
    /// facilitate zero-cost thread switching").
    pub wgs_per_cu: usize,
    /// Core clock in GHz, used to convert cycles to seconds.
    pub clock_ghz: f64,
    /// Collaborating CPU thread-groups beside the CUs (0 in every preset;
    /// the CHAI baseline's heterogeneous device). Each runs one wave of
    /// class [`crate::WaveClass::CpuCollab`] on its own virtual unit.
    pub cpu_groups: usize,
    /// Cycle costs.
    pub cost: CostModel,
}

impl GpuConfig {
    /// AMD Radeon R9 Fury ("Fiji"): 56 CUs @ ~1.05 GHz, discrete HBM.
    pub fn fiji() -> Self {
        GpuConfig {
            name: "Fiji",
            num_cus: 56,
            simds_per_cu: 4,
            wave_size: 64,
            waves_per_wg: 1,
            wgs_per_cu: 4,
            clock_ghz: 1.05,
            cpu_groups: 0,
            cost: CostModel::discrete(),
        }
    }

    /// AMD Radeon R7 APU ("Spectre"): 8 CUs @ ~0.72 GHz, shared DDR3.
    pub fn spectre() -> Self {
        GpuConfig {
            name: "Spectre",
            num_cus: 8,
            simds_per_cu: 4,
            wave_size: 64,
            waves_per_wg: 1,
            wgs_per_cu: 4,
            clock_ghz: 0.72,
            cpu_groups: 0,
            cost: CostModel::integrated(),
        }
    }

    /// A tiny configuration for unit tests: 2 CUs, 4-lane waves, unit-ish
    /// costs so expected cycle counts can be computed by hand.
    pub fn test_tiny() -> Self {
        GpuConfig {
            name: "TestTiny",
            num_cus: 2,
            simds_per_cu: 1,
            wave_size: 4,
            waves_per_wg: 1,
            wgs_per_cu: 2,
            clock_ghz: 1.0,
            cpu_groups: 0,
            cost: CostModel::unit(),
        }
    }

    /// Maximum resident wavefronts for this configuration.
    pub fn max_waves(&self) -> usize {
        self.num_cus * self.wgs_per_cu * self.waves_per_wg
    }

    /// Maximum persistent threads (the paper's headline 14,336 / 2,048).
    pub fn max_threads(&self) -> usize {
        self.max_waves() * self.wave_size
    }

    /// The workgroup counts used for the paper's scalability sweeps
    /// (Figures 4–5): powers of two up to the device maximum, plus the
    /// maximum itself.
    pub fn workgroup_sweep(&self) -> Vec<usize> {
        let max = self.num_cus * self.wgs_per_cu;
        let mut pts = Vec::new();
        let mut w = 1;
        while w < max {
            pts.push(w);
            w *= 2;
        }
        pts.push(max);
        pts
    }

    /// Converts an accumulated cycle count to seconds at this clock.
    pub fn cycles_to_seconds(&self, cycles: u64) -> f64 {
        cycles as f64 / (self.clock_ghz * 1e9)
    }

    /// Converts a wall-clock duration in seconds back to cycles at this
    /// clock (rounding toward zero). Inverse of [`cycles_to_seconds`];
    /// used by serving layers that budget deadlines in simulated cycles.
    ///
    /// Saturates: a duration past `u64::MAX` cycles (or a NaN/negative
    /// input, which no simulated clock produces) clamps to the range
    /// bounds instead of hitting the float→int cast's platform-defined
    /// edge. Debug builds assert the input was finite and non-negative so
    /// a corrupted duration is caught at the conversion site.
    ///
    /// [`cycles_to_seconds`]: GpuConfig::cycles_to_seconds
    pub fn seconds_to_cycles(&self, seconds: f64) -> u64 {
        debug_assert!(
            seconds.is_finite() && seconds >= 0.0,
            "seconds_to_cycles: durations are finite and non-negative, got {seconds}"
        );
        // `as` already saturates (NaN -> 0), making release builds safe
        // on the same inputs the debug assertion flags.
        (seconds * self.clock_ghz * 1e9) as u64
    }
}

/// Cycle costs for the operations a kernel can perform.
///
/// *Issue* costs occupy SIMD instruction slots and can never be hidden;
/// *latency* costs overlap with other resident wavefronts' issues
/// (zero-cost thread switching). This split is the heart of the paper's
/// argument: "While the latency of both AFA and CAS atomic operations can
/// be hidden by a GPU, the overhead of retrying an unsuccessful CAS cannot
/// be hidden."
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CostModel {
    /// Issue cycles for one ALU instruction (work-cycle bookkeeping).
    pub alu_issue: u64,
    /// Issue cycles for one wave-coalesced global memory operation.
    pub mem_issue: u64,
    /// Latency cycles for a global memory operation.
    pub mem_latency: u64,
    /// Device-wide DRAM cost of one 64-byte cache line, in *milli-cycles*
    /// (the memory system is a shared pool: a single resident wavefront
    /// can use all of it, which is why low occupancy is latency-bound
    /// rather than bandwidth-bound). The kernel makespan can never beat
    /// `total distinct lines x mem_bw_line_milli / 1000`. This is what
    /// separates coalesced traffic (the synthetic tree's contiguous
    /// children) from scattered traffic (a social graph's random edges).
    pub mem_bw_line_milli: u64,
    /// Atomic-unit occupancy per global atomic, in milli-cycles: the L2
    /// atomic ALUs process operations at a fixed rate (instruction replay
    /// included), so a compute unit's round can never be shorter than
    /// `atomics x atomic_unit_milli / 1000` — this throughput, not SIMD
    /// issue, is what a 64-lane lock-step CAS volley saturates.
    pub atomic_unit_milli: u64,
    /// Latency cycles for an uncontended global atomic.
    pub atomic_latency: u64,
    /// Extra latency per preceding same-address atomic in the same round
    /// (the serialization queue at the memory partition).
    pub atomic_serialize: u64,
    /// Pipeline depth of the atomic unit: same-address serialization
    /// latency saturates after this many queued ops.
    pub atomic_pipe_depth: u64,
    /// Cost of a workgroup-local (LDS) atomic; no global serialization.
    pub lds_atomic: u64,
    /// Unhideable issue cycles charged per CAS retry caused by contention
    /// (the dependent re-read + re-CAS chain that the paper argues "cannot
    /// be hidden"). Used by the CAS retry-storm model: a staged
    /// reservation that finds its word mutated `d` times retries
    /// `min(d, cas_storm_cap)` times.
    pub cas_retry_issue: u64,
    /// Cap on retry-storm length per staged CAS (bounded by how many
    /// retries fit in one work cycle on real hardware).
    pub cas_storm_cap: u64,
    /// Device-wide serialization cost, in milli-cycles, per atomic that
    /// targets the round's hottest word. Atomics to one word are handled
    /// by a single L2 slice and cannot be spread across compute units —
    /// this is the resource a shared queue counter saturates, and the
    /// reason per-lane (BASE) designs stop scaling while per-wavefront
    /// (proxy) designs do not.
    pub hot_word_milli: u64,
    /// Host-side kernel launch overhead in device cycles. Charged once per
    /// `Engine::run`, it is what makes level-synchronous implementations
    /// (Rodinia) pay dearly on deep graphs.
    pub launch_overhead: u64,
    /// Multiplier applied to memory/atomic costs of [`super::WaveClass::CpuCollab`]
    /// wavefronts — the cross-cluster (SVM) atomic penalty CHAI pays on
    /// integrated parts.
    pub svm_penalty: u64,
}

impl CostModel {
    /// Costs for a discrete GPU (long latencies, fast clock).
    pub fn discrete() -> Self {
        CostModel {
            alu_issue: 1,
            mem_issue: 4,
            // Effective load-to-use latency including memory-system
            // queueing under load.
            mem_latency: 1_300,
            // The line pool models the L2 interface (~2 TB/s on Fiji);
            // DRAM-side reuse filtering is folded in.
            mem_bw_line_milli: 30,
            atomic_unit_milli: 250,
            atomic_latency: 250,
            atomic_serialize: 2,
            atomic_pipe_depth: 64,
            lds_atomic: 8,
            cas_retry_issue: 240,
            cas_storm_cap: 64,
            hot_word_milli: 450,
            launch_overhead: 12_000,
            svm_penalty: 8,
        }
    }

    /// Costs for an integrated APU (shorter path to DRAM, slower clock,
    /// cheaper cross-device atomics — the APU is the part CHAI targets).
    pub fn integrated() -> Self {
        CostModel {
            alu_issue: 1,
            mem_issue: 4,
            mem_latency: 600,
            // L2/DRAM interface pool; the APU's shared path is narrow.
            mem_bw_line_milli: 400,
            atomic_unit_milli: 250,
            atomic_latency: 160,
            atomic_serialize: 2,
            atomic_pipe_depth: 32,
            lds_atomic: 8,
            cas_retry_issue: 28,
            cas_storm_cap: 32,
            hot_word_milli: 400,
            launch_overhead: 9_000,
            svm_penalty: 4,
        }
    }

    /// Unit costs for hand-checkable tests.
    pub fn unit() -> Self {
        CostModel {
            alu_issue: 1,
            mem_issue: 1,
            mem_latency: 10,
            mem_bw_line_milli: 1_000,
            atomic_unit_milli: 1_000,
            atomic_latency: 10,
            atomic_serialize: 1,
            atomic_pipe_depth: 4,
            lds_atomic: 1,
            cas_retry_issue: 2,
            cas_storm_cap: 4,
            hot_word_milli: 0,
            launch_overhead: 0,
            svm_penalty: 2,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_thread_counts() {
        assert_eq!(GpuConfig::fiji().max_threads(), 14_336);
        assert_eq!(GpuConfig::spectre().max_threads(), 2_048);
        assert_eq!(GpuConfig::fiji().max_waves(), 224);
        assert_eq!(GpuConfig::spectre().max_waves(), 32);
    }

    #[test]
    fn sweep_ends_at_max_and_is_increasing() {
        let sweep = GpuConfig::fiji().workgroup_sweep();
        assert_eq!(*sweep.first().unwrap(), 1);
        assert_eq!(*sweep.last().unwrap(), 224);
        assert!(sweep.windows(2).all(|w| w[0] < w[1]));
        let sweep = GpuConfig::spectre().workgroup_sweep();
        assert_eq!(sweep, vec![1, 2, 4, 8, 16, 32]);
    }

    #[test]
    fn cycles_to_seconds_uses_clock() {
        let fiji = GpuConfig::fiji();
        assert!((fiji.cycles_to_seconds(1_050_000_000) - 1.0).abs() < 1e-9);
        assert_eq!(fiji.seconds_to_cycles(1.0), 1_050_000_000);
        let tiny = GpuConfig::test_tiny();
        let cycles = 123_456_789;
        assert_eq!(
            tiny.seconds_to_cycles(tiny.cycles_to_seconds(cycles)),
            cycles
        );
    }

    #[test]
    fn seconds_to_cycles_saturates_at_the_boundaries() {
        let tiny = GpuConfig::test_tiny(); // 1.0 GHz: seconds * 1e9
        assert_eq!(tiny.seconds_to_cycles(0.0), 0);
        // Largest duration still inside u64 at 1 GHz: u64::MAX cycles is
        // ~1.8e10 seconds; one cycle under the float-representable edge
        // converts without clamping...
        let edge_seconds = (u64::MAX as f64) / 1e9;
        assert_eq!(tiny.seconds_to_cycles(edge_seconds * 0.5), u64::MAX / 2 + 1);
        // ...and anything past it clamps to u64::MAX instead of wrapping.
        assert_eq!(tiny.seconds_to_cycles(edge_seconds * 4.0), u64::MAX);
        assert_eq!(tiny.seconds_to_cycles(f64::MAX), u64::MAX);
        // Sub-cycle durations round toward zero.
        assert_eq!(tiny.seconds_to_cycles(0.4e-9), 0);
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    #[cfg(debug_assertions)]
    fn seconds_to_cycles_rejects_nan_in_debug() {
        GpuConfig::test_tiny().seconds_to_cycles(f64::NAN);
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    #[cfg(debug_assertions)]
    fn seconds_to_cycles_rejects_negative_in_debug() {
        GpuConfig::test_tiny().seconds_to_cycles(-1.0);
    }

    #[test]
    fn latency_dwarfs_issue_in_real_presets() {
        for cost in [CostModel::discrete(), CostModel::integrated()] {
            assert!(cost.atomic_latency * 1000 > 10 * cost.atomic_unit_milli);
            assert!(cost.mem_latency > 10 * cost.mem_issue);
        }
    }
}
