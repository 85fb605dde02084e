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

use super::common::DatasetCache;
use crate::report::Table;
use crate::{Scale, Sched};
use gpu_queue::Variant;
use pt_bfs::workload::{Bfs, ConnectedComponents, PrDelta, PtWorkload, Sssp};
use pt_bfs::{run_workload, PtConfig, Run};
use ptq_graph::{random_weights, Csr, Dataset};
use simt::GpuConfig;

/// Seed for the deterministic SSSP edge weights.
pub const WEIGHT_SEED: u64 = 0x57ED;

/// Per-dataset fractions *relative to the run's `--scale`*, chosen like
/// the chaos experiment's: every shape lands near 1–2.5k vertices at the
/// default scale (CC seeds all `n` vertices, so the matrix would
/// otherwise dominate a `repro all` run).
const WORKLOAD_REL: [(Dataset, f64); 6] = [
    (Dataset::Synthetic, 0.004),
    (Dataset::GplusCombined, 0.1),
    (Dataset::SocLiveJournal1, 0.006),
    (Dataset::RoadNY, 0.1),
    (Dataset::RoadLKS, 0.01),
    (Dataset::RoadUSA, 0.002),
];

/// The four workloads of the matrix, in table order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kind {
    Bfs,
    Sssp,
    Cc,
    PrDelta,
}

const KINDS: [Kind; 4] = [Kind::Bfs, Kind::Sssp, Kind::Cc, Kind::PrDelta];

/// One oracle-validated (workload, dataset) measurement.
#[derive(Clone, Debug, PartialEq)]
pub struct Row {
    /// Workload name ([`PtWorkload::name`]).
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

/// Runs one workload on one graph through RF/AN, validates it against
/// the sequential oracle, and panics on any divergence — the harness
/// must never report numbers from a wrong traversal.
fn validated_run<W: PtWorkload>(gpu: &GpuConfig, graph: &Csr, workload: &W, wgs: usize) -> Run {
    let config = PtConfig::for_workload(workload, Variant::RfAn, wgs);
    let run = run_workload(gpu, graph, workload, &config)
        .unwrap_or_else(|e| panic!("{}: {e}", workload.name()));
    workload
        .validate(graph, &run.values)
        .unwrap_or_else(|(v, want, got)| {
            panic!(
                "{}: oracle mismatch at vertex {v}: want {want} got {got}",
                workload.name()
            )
        });
    run
}

fn run_kind(
    gpu: &GpuConfig,
    graph: &Csr,
    kind: Kind,
    source: u32,
    wgs: usize,
) -> (&'static str, Run) {
    match kind {
        Kind::Bfs => ("bfs", validated_run(gpu, graph, &Bfs::new(source), wgs)),
        Kind::Sssp => {
            let weights = random_weights(graph, 10, WEIGHT_SEED);
            let sssp = Sssp::new(source, weights);
            ("sssp", validated_run(gpu, graph, &sssp, wgs))
        }
        Kind::Cc => ("cc", validated_run(gpu, graph, &ConnectedComponents, wgs)),
        Kind::PrDelta => (
            "pr-delta",
            validated_run(gpu, graph, &PrDelta::new(source), wgs),
        ),
    }
}

/// Measures the workload matrix on Spectre at its headline occupancy.
///
/// # Panics
/// Panics if any run diverges from its sequential oracle.
pub fn measure(scale: Scale, sched: &Sched) -> Vec<Row> {
    let gpu = GpuConfig::spectre();
    let wgs = gpu.num_cus * gpu.wgs_per_cu;
    let grid: Vec<(Kind, Dataset, f64)> = KINDS
        .iter()
        .flat_map(|&k| WORKLOAD_REL.iter().map(move |&(d, rel)| (k, d, rel)))
        .collect();
    sched.par_map(&grid, |_, &(kind, dataset, rel)| {
        let slice = Scale::new((scale.fraction() * rel).min(1.0));
        let graph = DatasetCache::global().get(dataset, slice);
        let (name, run) = run_kind(&gpu, &graph, kind, dataset.source(), wgs);
        Row {
            workload: name,
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
        assert_eq!(serial.len(), KINDS.len() * WORKLOAD_REL.len());
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
