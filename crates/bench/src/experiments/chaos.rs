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

use super::common::{bfs_run, checked_run, fault_plan, DatasetCache, SMALL_POOL};
use crate::report::Table;
use crate::{Scale, Sched};
use gpu_queue::Variant;
use pt_bfs::{run_recoverable, Bfs, PtConfig, RecoveryPolicy};
use simt::GpuConfig;

/// Seed for the fault matrix (xor-ed with the dataset index).
pub const SEED: u64 = 0xC4A05;

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

/// Measures the chaos matrix on Spectre at its headline occupancy.
///
/// # Panics
/// Panics if a recovered run diverges from its fault-free golden — the
/// whole point of the experiment is that it never does.
pub fn measure(scale: Scale, sched: &Sched) -> Vec<Row> {
    let gpu = GpuConfig::spectre();
    let wgs = gpu.num_cus * gpu.wgs_per_cu;
    let grid: Vec<(usize, _)> = SMALL_POOL.into_iter().enumerate().collect();
    sched.par_map(&grid, |_, &(i, (dataset, rel))| {
        let graph = DatasetCache::global().get(dataset, scale.relative(rel));
        let bfs = Bfs::new(dataset.source());
        let golden = bfs_run(&gpu, &graph, Variant::RfAn, wgs);

        let config = PtConfig::new(Variant::RfAn, wgs);
        let seed = SEED ^ ((i as u64) << 8);
        let plan = fault_plan(seed, &gpu, wgs, 2, &bfs, graph.num_vertices());
        let policy = RecoveryPolicy {
            checkpoint_levels: 4,
            max_attempts: 16,
            ..RecoveryPolicy::default()
        };
        let run = run_recoverable(&gpu, &graph, &bfs, &config, &policy, &plan);
        let run = checked_run(format!("chaos on {dataset:?}"), run, &graph, &bfs);
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
