//! Giant-graph scale: the streamed construction + lazy-zeroing pipeline
//! against the naive path it replaced (ROADMAP item 5; not part of
//! `repro all`).
//!
//! Both legs produce the *same* giant-family graph and run the *same*
//! validated BFS — the experiment asserts the graphs, values, metrics,
//! and simulated seconds are identical, so the legs differ only in
//! host-side mechanics:
//!
//! * **naive** — the pre-optimization path: materialize the full edge
//!   list in a [`CsrBuilder`], eager arena zeroing (every recycled
//!   arena memset up front), and the historical 2.0× queue capacity.
//! * **tuned** — the streamed two-pass builder (`O(chunk)` transient
//!   memory, no edge list), zero-on-demand arenas, and the audited
//!   1.25× capacity (BFS enqueues each vertex at most once; the
//!   non-wrapping queue needs `n` slots plus headroom, and the runner
//!   still regrows on queue-full, so tightening is safe).
//!
//! The timed pipeline per leg is **build + device-setup churn**: one
//! graph construction plus [`SETUP_EPOCHS`] full device setups (engine,
//! graph upload, value/queue buffers, seed) — the allocation pattern a
//! checkpointed recovery run repeats every epoch (the launch primitive
//! stands up a fresh engine per launch). The BFS run itself validates the legs but
//! is excluded from the throughput clock: the simulated traversal is
//! identical in both legs by construction, so including it would only
//! dilute the construction contrast being measured.
//!
//! Wall-clock throughput (edges/s per leg and the tuned/naive speedup)
//! goes to stderr and the `giant` section of `BENCH_repro.json`; the
//! emitted table carries only deterministic quantities and is
//! byte-identical at any `--jobs` count (the pipeline is serial by
//! design — the eager-zeroing toggle is process-global).

use super::common::{record_giant, record_profile, record_rounds, GiantBench};
use crate::report::Table;
use crate::Scale;
use gpu_queue::device::QueueLayout;
use gpu_queue::Variant;
use pt_bfs::{queue_capacity, run_bfs, PtConfig, Run, UNVISITED};
use ptq_graph::gen::{for_each_giant_edge, giant_with_chunk};
use ptq_graph::stream::DEFAULT_CHUNK_EDGES;
use ptq_graph::{validate_levels, Csr, CsrBuilder, Dataset};
use simt::{Engine, GpuConfig};
use std::time::Instant;

/// Device setups per timed leg — the churn of a recovery run that
/// relaunches from a checkpoint this many times.
pub const SETUP_EPOCHS: usize = 8;

/// Queue capacity factor of the naive leg (the historical default).
pub const NAIVE_FACTOR: f64 = 2.0;
/// Audited capacity factor of the tuned leg.
pub const TUNED_FACTOR: f64 = 1.25;

/// Giant-family parameters, matching [`Dataset::Giant`]'s build arm so
/// `repro giant` measures exactly the dataset the catalog exposes.
const EXTRA_MEAN: u32 = 7;
const SEED: u64 = 0x61A7;

/// One leg's deterministic measurements.
#[derive(Clone, Debug, PartialEq)]
pub struct Row {
    /// `"naive"` or `"tuned"`.
    pub leg: &'static str,
    /// Vertices of the scaled giant graph.
    pub vertices: usize,
    /// Directed edges.
    pub edges: u64,
    /// Scheduler queue capacity in slots (the leg's sizing policy).
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

/// Restores lazy zeroing even if a leg panics.
struct EagerGuard;

impl EagerGuard {
    fn engage() -> Self {
        simt::set_eager_zeroing(true);
        EagerGuard
    }
}

impl Drop for EagerGuard {
    fn drop(&mut self) {
        simt::set_eager_zeroing(false);
    }
}

/// One full device setup: the exact allocation sequence of
/// `pt_bfs`'s launch primitive (graph upload, value array, on-queue bits,
/// outstanding counter, sentinel-painted queue, seed), then teardown so
/// the next epoch recycles the arena.
fn device_setup(gpu: &GpuConfig, graph: &Csr, capacity: u32) {
    let n = graph.num_vertices();
    let mut engine = Engine::new(gpu.clone());
    let mem = engine.memory_mut();
    mem.alloc_init("nodes", graph.row_offsets());
    mem.alloc_init("edges", graph.adjacency());
    let values = mem.alloc_filled("values", n, UNVISITED);
    mem.write_u32(values, 0, 0);
    let inqueue = mem.alloc("inqueue", n);
    mem.write_u32(inqueue, 0, 1);
    let pending = mem.alloc("pending", 1);
    mem.write_u32(pending, 0, 1);
    let layout = QueueLayout::setup(mem, "workqueue", capacity);
    layout.host_seed(mem, &[0]);
}

/// Runs one leg: time the build, warm the arena pool, time
/// [`SETUP_EPOCHS`] device setups, then run the (untimed) validated BFS.
fn leg(
    gpu: &GpuConfig,
    wgs: usize,
    factor: f64,
    build: impl FnOnce() -> Csr,
) -> (Csr, Run, f64, f64) {
    let build_start = Instant::now();
    let graph = build();
    let build_seconds = build_start.elapsed().as_secs_f64();

    let capacity = queue_capacity(graph.num_vertices(), factor);
    // Untimed warm-up so both legs' timed epochs start from a recycled
    // arena of the right size (the first leg would otherwise pay the
    // fresh-arena growth the second leg skips).
    device_setup(gpu, &graph, capacity);
    let setup_start = Instant::now();
    for _ in 0..SETUP_EPOCHS {
        device_setup(gpu, &graph, capacity);
    }
    let setup_seconds = setup_start.elapsed().as_secs_f64();

    let mut config = PtConfig::new(Variant::RfAn, wgs);
    config.capacity_factor = factor;
    let run = run_bfs(gpu, &graph, 0, &config).unwrap_or_else(|e| panic!("giant bfs: {e}"));
    validate_levels(&graph, 0, &run.values).unwrap_or_else(|(v, want, got)| {
        panic!("giant: wrong level at vertex {v}: want {want} got {got}")
    });
    record_rounds(run.metrics.rounds);
    record_profile(&run.profile);
    (graph, run, build_seconds, setup_seconds)
}

/// Measures both legs at `scale` (fraction of the 16.7M-vertex /
/// 134M-edge full giant graph) and records the wall-clock outcome for
/// `BENCH_repro.json`.
///
/// # Panics
/// Panics if the legs' graphs, values, metrics, or simulated seconds
/// diverge, or if BFS fails validation — the legs must differ in
/// host-side mechanics only.
pub fn measure(scale: Scale) -> Vec<Row> {
    let spec = Dataset::Giant.spec();
    let n = ((spec.vertices as f64 * scale.fraction()) as usize).max(16);
    let gpu = GpuConfig::spectre();
    let wgs = gpu.num_cus * gpu.wgs_per_cu;

    let (naive_graph, naive_run, naive_build, naive_setup) = {
        let _eager = EagerGuard::engage();
        leg(&gpu, wgs, NAIVE_FACTOR, || {
            let mut b = CsrBuilder::new(n);
            for_each_giant_edge(n, EXTRA_MEAN, SEED, &mut |s, d| b.add_edge(s, d));
            b.build()
        })
    };
    let (tuned_graph, tuned_run, tuned_build, tuned_setup) = leg(&gpu, wgs, TUNED_FACTOR, || {
        giant_with_chunk(n, EXTRA_MEAN, SEED, DEFAULT_CHUNK_EDGES)
    });

    assert_eq!(
        naive_graph, tuned_graph,
        "streamed construction must be byte-identical to the in-memory builder"
    );
    assert_eq!(naive_run.values, tuned_run.values, "legs diverged: values");
    assert_eq!(
        naive_run.metrics, tuned_run.metrics,
        "legs diverged: metrics"
    );
    assert_eq!(
        naive_run.seconds, tuned_run.seconds,
        "legs diverged: simulated time"
    );

    let edges = naive_graph.num_edges() as u64;
    let bench = GiantBench {
        edges,
        naive_build_seconds: naive_build,
        naive_setup_seconds: naive_setup,
        tuned_build_seconds: tuned_build,
        tuned_setup_seconds: tuned_setup,
    };
    eprintln!(
        "  giant: |V|={} |E|={edges}  naive {:.2}s build + {:.2}s setup ({:.1}M edges/s), \
         tuned {:.2}s build + {:.2}s setup ({:.1}M edges/s)  -> {:.2}x",
        naive_graph.num_vertices(),
        bench.naive_build_seconds,
        bench.naive_setup_seconds,
        bench.naive_edges_per_second() / 1e6,
        bench.tuned_build_seconds,
        bench.tuned_setup_seconds,
        bench.tuned_edges_per_second() / 1e6,
        bench.speedup(),
    );
    record_giant(bench);

    [
        ("naive", &naive_run, NAIVE_FACTOR),
        ("tuned", &tuned_run, TUNED_FACTOR),
    ]
    .into_iter()
    .map(|(name, run, factor)| Row {
        leg: name,
        vertices: naive_graph.num_vertices(),
        edges,
        queue_capacity: queue_capacity(naive_graph.num_vertices(), factor),
        reached: run.reached,
        rounds: run.metrics.rounds,
        work_cycles: run.metrics.work_cycles,
        scheduler_atomics: run.metrics.scheduler_atomics,
        sim_ms: run.seconds * 1e3,
        retry_free: run.metrics.cas_attempts == 0 && run.metrics.queue_empty_retries == 0,
    })
    .collect()
}

/// Renders the giant table (deterministic columns only).
pub fn table(rows: &[Row]) -> Table {
    let mut t = Table::new(
        "Giant-graph scale: streamed vs in-memory construction pipeline (RF/AN BFS on \
         Spectre; legs are bit-identical in every simulated quantity, wall-clock lives \
         in BENCH_repro.json)",
        &[
            "Leg",
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
    for r in rows {
        t.row(vec![
            r.leg.to_owned(),
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
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn legs_agree_and_cover_the_graph() {
        let rows = measure(Scale::new(0.002));
        assert_eq!(rows.len(), 2);
        let (naive, tuned) = (&rows[0], &rows[1]);
        assert_eq!(naive.leg, "naive");
        assert_eq!(tuned.leg, "tuned");
        // Everything simulated is identical; only the sizing policy
        // differs.
        assert_eq!(naive.rounds, tuned.rounds);
        assert_eq!(naive.sim_ms, tuned.sim_ms);
        assert!(naive.queue_capacity > tuned.queue_capacity);
        // The tree skeleton spans the graph and RF/AN never retries.
        assert_eq!(naive.reached, naive.vertices);
        assert!(naive.retry_free && tuned.retry_free);
        // The experiment recorded its wall-clock outcome.
        let bench = super::super::common::giant_bench().expect("giant bench recorded");
        assert_eq!(bench.edges, naive.edges);
        assert!(bench.speedup() > 0.0);
    }
}
