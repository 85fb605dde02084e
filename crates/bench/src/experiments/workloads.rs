//! Workload matrix: every [`PtWorkload`] on the generic
//! persistent-thread core, run over all six dataset shapes and validated
//! against its sequential oracle.
//!
//! Not a figure from the paper — the paper evaluates BFS only and
//! *claims* the queue generalizes ("a specialized concurrent queue for
//! scheduling irregular workloads"). This experiment quantifies that
//! claim on the reproduction: BFS, SSSP, min-label connected components,
//! and best-contribution PageRank-delta all run through the same
//! `PtKernel` / RF/AN queue, every run exact against its oracle and
//! audited retry-free. The table reports per-(workload, dataset) rounds,
//! work cycles, scheduler atomics, simulated time, and the retry-free
//! verdict.
//!
//! Like every other experiment, the table is byte-identical at any
//! `--jobs` count.

use super::common::{checked_run, DatasetCache, SMALL_POOL};
use crate::report::Table;
use crate::serve::{KindVisitor, WorkloadKind};
use crate::{Scale, Sched};
use gpu_queue::Variant;
use pt_bfs::workload::PtWorkload;
use pt_bfs::{run_workload, PtConfig, Run};
use ptq_graph::Csr;
use simt::GpuConfig;

/// One oracle-validated (workload, dataset) measurement.
#[derive(Clone, Debug, PartialEq)]
pub struct Row {
    /// Workload label ([`WorkloadKind::label`]).
    pub workload: &'static str,
    /// Dataset name.
    pub dataset: &'static str,
    /// Vertices of the sliced graph.
    pub vertices: usize,
    /// Vertices the run reached (workload-defined).
    pub reached: usize,
    /// Simulated rounds.
    pub rounds: u64,
    /// Work cycles across all wavefronts.
    pub work_cycles: u64,
    /// Scheduler atomics (the queue's share of the atomic traffic).
    pub scheduler_atomics: u64,
    /// Simulated milliseconds.
    pub sim_ms: f64,
    /// Zero CAS attempts and zero queue-empty retries (the RF/AN claim).
    pub retry_free: bool,
}

/// One kind's run on one graph through RF/AN (GPU, graph, source,
/// workgroups), checked against the kind's sequential oracle.
struct MatrixRun<'a>(&'a GpuConfig, &'a Csr, u32, usize);

impl KindVisitor for MatrixRun<'_> {
    type Output = Run;
    fn visit<W: PtWorkload>(self, make: impl Fn(&Csr, u32) -> W) -> Run {
        let MatrixRun(gpu, graph, source, wgs) = self;
        let workload = make(graph, source);
        let config = PtConfig::for_workload(&workload, Variant::RfAn, wgs);
        let run = run_workload(gpu, graph, &workload, &config);
        checked_run("workloads", run, graph, &workload)
    }
}

/// Measures the workload matrix on Spectre at its headline occupancy.
///
/// # Panics
/// Panics if any run diverges from its sequential oracle.
pub fn measure(scale: Scale, sched: &Sched) -> Vec<Row> {
    let gpu = GpuConfig::spectre();
    let wgs = gpu.num_cus * gpu.wgs_per_cu;
    let grid: Vec<_> = WorkloadKind::ALL
        .iter()
        .flat_map(|&k| SMALL_POOL.iter().map(move |&(d, rel)| (k, d, rel)))
        .collect();
    sched.par_map(&grid, |_, &(kind, dataset, rel)| {
        let graph = DatasetCache::global().get(dataset, scale.relative(rel));
        let run = kind.visit(MatrixRun(&gpu, &graph, dataset.source(), wgs));
        Row {
            workload: kind.label(),
            dataset: dataset.spec().name,
            vertices: graph.num_vertices(),
            reached: run.reached,
            rounds: run.metrics.rounds,
            work_cycles: run.metrics.work_cycles,
            scheduler_atomics: run.metrics.scheduler_atomics,
            sim_ms: run.seconds * 1e3,
            retry_free: run.metrics.cas_attempts == 0 && run.metrics.queue_empty_retries == 0,
        }
    })
}

/// Renders the workload matrix table.
pub fn table(rows: &[Row]) -> Table {
    let mut t = Table::new(
        "Workloads: four irregular workloads on the generic PT core (RF/AN, Spectre), \
         each exact against its sequential oracle",
        &[
            "Workload",
            "Dataset",
            "|V|",
            "Reached",
            "Rounds",
            "Work cycles",
            "Sched atomics",
            "Sim ms",
            "Retry-free",
        ],
    );
    for r in rows {
        t.row(vec![
            r.workload.to_owned(),
            r.dataset.to_owned(),
            r.vertices.to_string(),
            r.reached.to_string(),
            r.rounds.to_string(),
            r.work_cycles.to_string(),
            r.scheduler_atomics.to_string(),
            format!("{:.4}", r.sim_ms),
            if r.retry_free { "yes" } else { "NO" }.to_owned(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_covers_all_workloads_and_is_job_invariant() {
        let serial = measure(Scale::new(0.02), &Sched::new(1));
        let parallel = measure(Scale::new(0.02), &Sched::new(4));
        assert_eq!(serial.len(), WorkloadKind::ALL.len() * SMALL_POOL.len());
        // Deterministic simulator + seeded inputs: bit-identical rows at
        // any job count — the property the CI workloads step byte-diffs.
        assert_eq!(serial, parallel);
        for r in &serial {
            assert!(r.retry_free, "{}/{}: RF/AN retried", r.workload, r.dataset);
            assert!(r.rounds > 0);
        }
        // CC labels every vertex on every shape.
        assert!(serial
            .iter()
            .filter(|r| r.workload == "cc")
            .all(|r| r.reached == r.vertices));
    }
}
