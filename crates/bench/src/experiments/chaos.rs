//! Chaos experiment: recovery metrics under a seeded fault matrix.
//!
//! Not a figure from the paper — the paper's §4.4 abort story ends at
//! "the user can retry the kernel with a larger queue". This experiment
//! quantifies the generalized recovery path: every MAIN_SIX dataset shape
//! gets a deterministic fault plan (wave-kills × CU stalls × memory
//! poisons, drawn from a fixed seed) injected into a checkpointed
//! recoverable run, which must converge to levels byte-identical to the
//! fault-free golden. The table reports what recovery cost: aborts
//! survived, rounds lost and replayed, and the simulated-time overhead
//! versus the clean run.
//!
//! Like every other experiment, the table is byte-identical at any
//! `--jobs` count — the fault plans are seeded and the simulator is
//! deterministic, so the CI chaos job byte-diffs serial vs parallel runs.

use super::common::{bfs_run, DatasetCache};
use crate::report::Table;
use crate::{Scale, Sched};
use gpu_queue::Variant;
use pt_bfs::{run_recoverable, Bfs, PtConfig, RecoveryPolicy};
use ptq_graph::{validate_levels, Dataset};
use simt::{FaultPlan, FaultSpec, GpuConfig};

/// Seed for the fault matrix (xor-ed with the dataset index).
pub const SEED: u64 = 0xC4A05;

/// Per-dataset fractions *relative to the run's `--scale`*: chaos runs
/// each graph several times (golden + epochs + retries), so the slices
/// are chosen to land every shape near 1–2.5k vertices at the default
/// scale — big enough for multi-epoch traversals, small enough to keep
/// the whole matrix in seconds.
const CHAOS_REL: [(Dataset, f64); 6] = [
    (Dataset::Synthetic, 0.004),
    (Dataset::GplusCombined, 0.1),
    (Dataset::SocLiveJournal1, 0.006),
    (Dataset::RoadNY, 0.1),
    (Dataset::RoadLKS, 0.01),
    (Dataset::RoadUSA, 0.002),
];

/// One chaos measurement.
#[derive(Clone, Debug, PartialEq)]
pub struct Row {
    /// Dataset name.
    pub dataset: &'static str,
    /// Faults the seeded plan scheduled.
    pub faults: usize,
    /// Aborts the run survived (wave-kills and poisons that fired).
    pub aborts: usize,
    /// Fenced epochs that committed.
    pub epochs: u32,
    /// Rounds thrown away by aborted launches.
    pub rounds_lost: u64,
    /// Rounds re-executed by the retries of aborted epochs.
    pub rounds_replayed: u64,
    /// Fault-free simulated milliseconds (golden run).
    pub clean_ms: f64,
    /// Simulated milliseconds under the fault plan (incl. backoff).
    pub chaos_ms: f64,
}

impl Row {
    /// Simulated-time cost of surviving the faults.
    pub fn overhead(&self) -> f64 {
        self.chaos_ms / self.clean_ms
    }
}

fn plan_for(gpu: &GpuConfig, workgroups: usize, num_vertices: usize, seed: u64) -> FaultPlan {
    FaultPlan::seeded(
        seed,
        &FaultSpec {
            wave_kills: 2,
            cu_stalls: 2,
            mem_poisons: 2,
            max_round: 8, // early rounds: every launch reaches them
            waves: workgroups * gpu.waves_per_wg,
            cus: gpu.num_cus,
            max_stall_rounds: 4,
            max_stall_cycles: 200,
            poison_buffer: "costs".into(),
            poison_words: num_vertices,
        },
    )
}

/// Measures the chaos matrix on Spectre at its headline occupancy.
///
/// # Panics
/// Panics if a recovered run diverges from its fault-free golden — the
/// whole point of the experiment is that it never does.
pub fn measure(scale: Scale, sched: &Sched) -> Vec<Row> {
    let gpu = GpuConfig::spectre();
    let wgs = gpu.num_cus * gpu.wgs_per_cu;
    let grid: Vec<(usize, Dataset, f64)> = CHAOS_REL
        .iter()
        .enumerate()
        .map(|(i, &(d, rel))| (i, d, rel))
        .collect();
    sched.par_map(&grid, |_, &(i, dataset, rel)| {
        let slice = Scale::new((scale.fraction() * rel).min(1.0));
        let graph = DatasetCache::global().get(dataset, slice);
        let source = dataset.source();
        let golden = bfs_run(&gpu, &graph, Variant::RfAn, wgs);

        let config = PtConfig::new(Variant::RfAn, wgs);
        let plan = plan_for(&gpu, wgs, graph.num_vertices(), SEED ^ ((i as u64) << 8));
        let policy = RecoveryPolicy {
            checkpoint_levels: 4,
            max_attempts: 16,
            ..RecoveryPolicy::default()
        };
        let run = run_recoverable(&gpu, &graph, &Bfs::new(source), &config, &policy, &plan)
            .unwrap_or_else(|e| panic!("chaos on {dataset:?}: {e}"));
        validate_levels(&graph, source, &run.values)
            .unwrap_or_else(|_| panic!("chaos on {dataset:?}: wrong levels"));
        assert_eq!(
            run.values, golden.values,
            "chaos on {dataset:?}: recovered levels diverge from golden"
        );
        Row {
            dataset: dataset.spec().name,
            faults: plan.len(),
            aborts: run.recovery.aborts(),
            epochs: run.recovery.epochs,
            rounds_lost: run.recovery.rounds_lost,
            rounds_replayed: run.recovery.rounds_replayed,
            clean_ms: golden.seconds * 1e3,
            chaos_ms: run.seconds * 1e3,
        }
    })
}

/// Renders the chaos table.
pub fn table(rows: &[Row]) -> Table {
    let mut t = Table::new(
        "Chaos: recovery under a seeded fault matrix (RF/AN, Spectre)",
        &[
            "Dataset", "Faults", "Aborts", "Epochs", "Lost", "Replayed", "Clean ms", "Chaos ms",
            "Overhead",
        ],
    );
    for r in rows {
        t.row(vec![
            r.dataset.to_owned(),
            r.faults.to_string(),
            r.aborts.to_string(),
            r.epochs.to_string(),
            r.rounds_lost.to_string(),
            r.rounds_replayed.to_string(),
            format!("{:.4}", r.clean_ms),
            format!("{:.4}", r.chaos_ms),
            format!("{:.2}x", r.overhead()),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chaos_matrix_covers_all_six_and_is_job_invariant() {
        let serial = measure(Scale::new(0.02), &Sched::new(1));
        let parallel = measure(Scale::new(0.02), &Sched::new(4));
        assert_eq!(serial.len(), 6);
        // Same seed, same scale: bit-identical rows at any job count —
        // the property the CI chaos job byte-diffs.
        assert_eq!(serial, parallel);
        for r in &serial {
            assert_eq!(r.faults, 6, "{}: fault matrix incomplete", r.dataset);
            assert!(r.epochs >= 1);
        }
        // The matrix must actually interrupt something somewhere.
        assert!(
            serial.iter().any(|r| r.aborts > 0),
            "no dataset aborted: fault plans never fired"
        );
    }
}
