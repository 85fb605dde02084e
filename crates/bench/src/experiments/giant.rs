//! Giant-graph scale point: one oracle-checked RF/AN BFS over the
//! catalogue's giant family ([`Dataset::Giant`]: 16.7 M vertices and
//! ≥ 100 M edges under `--full`, scaled down like every other dataset
//! otherwise).
//!
//! The graph comes from the streamed two-pass builder (`O(chunk)`
//! transient memory, no edge list) through the shared
//! [`DatasetCache`]; the scheduler queue is sized at the audited
//! `CAPACITY_FACTOR` (BFS enqueues each vertex at most once; the
//! non-wrapping queue needs `n` slots plus headroom, and the runner
//! still regrows on queue-full, so tightening is safe). What graph
//! construction and device set-up cost on the host is measured by the
//! benchmark's `graph_build_setup` workload, not here: the table carries
//! simulated quantities only.

use super::common::{checked_run, DatasetCache};
use crate::report::Table;
use crate::Scale;
use gpu_queue::Variant;
use pt_bfs::{queue_capacity, run_bfs, Bfs, PtConfig, Run};
use ptq_graph::{Csr, Dataset};
use simt::GpuConfig;
use std::sync::Arc;

/// Audited queue capacity factor (slots per vertex).
const CAPACITY_FACTOR: f64 = 1.25;

/// The run's measurements.
#[derive(Clone, Debug, PartialEq)]
pub struct Row {
    /// Vertices of the scaled giant graph.
    pub vertices: usize,
    /// Directed edges.
    pub edges: u64,
    /// Scheduler queue capacity in slots.
    pub queue_capacity: u32,
    /// Vertices reached by the validated BFS (always all of them — the
    /// tree skeleton spans the graph).
    pub reached: usize,
    /// Simulated rounds.
    pub rounds: u64,
    /// Work cycles across all wavefronts.
    pub work_cycles: u64,
    /// Scheduler atomics.
    pub scheduler_atomics: u64,
    /// Simulated milliseconds.
    pub sim_ms: f64,
    /// Zero CAS attempts and zero queue-empty retries.
    pub retry_free: bool,
}

/// Builds the giant graph at `scale` and runs the checked BFS on
/// Spectre at its headline occupancy.
fn giant_run(scale: Scale) -> (Arc<Csr>, Run) {
    let graph = DatasetCache::global().get(Dataset::Giant, scale);
    let gpu = GpuConfig::spectre();
    let mut config = PtConfig::new(Variant::RfAn, gpu.num_cus * gpu.wgs_per_cu);
    config.capacity_factor = CAPACITY_FACTOR;
    let source = Dataset::Giant.source();
    let run = run_bfs(&gpu, &graph, source, &config);
    let run = checked_run("giant", run, &graph, &Bfs::new(source));
    (graph, run)
}

fn row(graph: &Csr, run: &Run) -> Row {
    Row {
        vertices: graph.num_vertices(),
        edges: graph.num_edges() as u64,
        queue_capacity: queue_capacity(graph.num_vertices(), CAPACITY_FACTOR),
        reached: run.reached,
        rounds: run.metrics.rounds,
        work_cycles: run.metrics.work_cycles,
        scheduler_atomics: run.metrics.scheduler_atomics,
        sim_ms: run.seconds * 1e3,
        retry_free: run.metrics.cas_attempts == 0 && run.metrics.queue_empty_retries == 0,
    }
}

/// Measures the giant scale point at `scale` (fraction of the
/// 16.7M-vertex / 134M-edge full giant graph).
///
/// # Panics
/// Panics if the simulation faults or BFS fails validation.
pub fn measure(scale: Scale) -> Row {
    let (graph, run) = giant_run(scale);
    row(&graph, &run)
}

/// Renders the giant table.
pub fn table(r: &Row) -> Table {
    let mut t = Table::new(
        "Giant-graph scale: RF/AN BFS on Spectre over the streamed giant-family graph, \
         exact against the sequential oracle",
        &[
            "|V|",
            "|E|",
            "Queue cap",
            "Reached",
            "Rounds",
            "Work cycles",
            "Sched atomics",
            "Sim ms",
            "Retry-free",
        ],
    );
    t.row(vec![
        r.vertices.to_string(),
        r.edges.to_string(),
        r.queue_capacity.to_string(),
        r.reached.to_string(),
        r.rounds.to_string(),
        r.work_cycles.to_string(),
        r.scheduler_atomics.to_string(),
        format!("{:.4}", r.sim_ms),
        if r.retry_free { "yes" } else { "NO" }.to_owned(),
    ]);
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_matches_its_run_and_covers_the_graph() {
        let (graph, run) = giant_run(Scale::new(0.002));
        let r = row(&graph, &run);
        // The tree skeleton spans the graph and RF/AN never retries.
        assert_eq!(r.reached, r.vertices);
        assert!(r.retry_free);
        assert_eq!(
            (r.vertices, r.edges),
            (graph.num_vertices(), graph.num_edges() as u64)
        );
        assert_eq!(
            (r.reached, r.rounds, r.work_cycles, r.scheduler_atomics),
            (
                run.reached,
                run.metrics.rounds,
                run.metrics.work_cycles,
                run.metrics.scheduler_atomics
            )
        );
        assert_eq!(r.sim_ms, run.seconds * 1e3);
        assert!(r.queue_capacity as usize >= r.vertices);
        assert_eq!(table(&r).num_rows(), 1);
    }
}
