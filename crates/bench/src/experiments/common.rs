//! Shared plumbing for the experiments.

use crate::{Scale, Sched};
use gpu_queue::Variant;
use pt_bfs::{run_bfs, PtConfig, Run};
use ptq_graph::{validate_levels, Csr, Dataset};
use simt::{GpuConfig, Profile};
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Total simulated rounds across every validated BFS run of the process,
/// the throughput denominator for `BENCH_repro.json`.
static ROUNDS_SIMULATED: AtomicU64 = AtomicU64::new(0);

/// Rounds simulated so far (all [`bfs_run`] calls in this process).
pub fn rounds_simulated() -> u64 {
    ROUNDS_SIMULATED.load(Ordering::Relaxed)
}

/// Adds `rounds` to the process-wide throughput denominator (used by
/// experiments that drive runs outside [`bfs_run`]).
pub fn record_rounds(rounds: u64) {
    ROUNDS_SIMULATED.fetch_add(rounds, Ordering::Relaxed);
}

/// The host's available parallelism (1 if it cannot be queried).
pub fn host_cores() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Process-wide engine-profile aggregate: the merged [`Profile`] (events
/// summed, footprint gauges maxed — see [`Profile::merge`]), the number
/// of runs folded in, and how many of those ran on a recycled arena.
static PROFILE_AGG: Mutex<Option<(Profile, u64, u64)>> = Mutex::new(None);

/// Folds one run's engine profile into the process-wide aggregate for
/// the `profile` section of `BENCH_repro.json`.
pub fn record_profile(profile: &Profile) {
    let mut guard = PROFILE_AGG.lock().unwrap();
    let (agg, runs, recycled) = guard.get_or_insert((Profile::default(), 0, 0));
    agg.merge(profile);
    *runs += 1;
    *recycled += profile.arena_recycled;
}

/// The merged profile, run count, and recycled-arena run count, if any
/// profiled run happened.
pub fn profile_summary() -> Option<(Profile, u64, u64)> {
    *PROFILE_AGG.lock().unwrap()
}

/// Wall-clock outcome of the `giant` experiment's two construction
/// pipelines (diagnostics for `BENCH_repro.json`; the deterministic
/// table never contains wall time).
#[derive(Clone, Copy, Debug, Default)]
pub struct GiantBench {
    /// Edges in the giant graph (throughput numerator).
    pub edges: u64,
    /// Naive leg: in-memory build wall seconds.
    pub naive_build_seconds: f64,
    /// Naive leg: eager-zeroing device-setup churn wall seconds.
    pub naive_setup_seconds: f64,
    /// Tuned leg: streamed build wall seconds.
    pub tuned_build_seconds: f64,
    /// Tuned leg: demand-zeroing device-setup churn wall seconds.
    pub tuned_setup_seconds: f64,
}

impl GiantBench {
    /// Edges per second through the naive build+setup pipeline.
    pub fn naive_edges_per_second(&self) -> f64 {
        self.edges as f64 / (self.naive_build_seconds + self.naive_setup_seconds).max(1e-9)
    }

    /// Edges per second through the tuned build+setup pipeline.
    pub fn tuned_edges_per_second(&self) -> f64 {
        self.edges as f64 / (self.tuned_build_seconds + self.tuned_setup_seconds).max(1e-9)
    }

    /// Tuned-over-naive pipeline throughput ratio.
    pub fn speedup(&self) -> f64 {
        self.tuned_edges_per_second() / self.naive_edges_per_second().max(1e-9)
    }
}

/// One serve-leg entry for the `serve` section of `BENCH_repro.json`.
/// Every field is simulated (cycles, counts, rates over cycles), so the
/// section is byte-identical at any `--jobs`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ServeBench {
    /// Leg name ("steady", "overload", "faulted").
    pub leg: &'static str,
    /// Queries offered by the leg's trace.
    pub queries: u64,
    /// Completed (oracle-validated) queries.
    pub completed: u64,
    /// Completed queries that needed at least one service-level retry.
    pub retried: u64,
    /// Deadline-shed queries.
    pub shed: u64,
    /// Quarantined queries.
    pub quarantined: u64,
    /// Admission rejections: backlog at its bound.
    pub rejected_queue_full: u64,
    /// Admission rejections: quarantined signature.
    pub rejected_quarantined: u64,
    /// Completed queries co-scheduled with at least one peer (0 on the
    /// serial legs, where nothing fuses).
    pub batched: u64,
    /// Median admission→completion latency in simulated cycles (`None`
    /// when the leg completed nothing — absent, not a fake 0).
    pub p50_latency_cycles: Option<u64>,
    /// 99th-percentile latency in simulated cycles (`None` as above).
    pub p99_latency_cycles: Option<u64>,
    /// Simulated cycle of the last terminal state.
    pub makespan_cycles: u64,
    /// Completed queries per simulated second.
    pub throughput_qps: f64,
    /// Shed fraction of offered queries.
    pub shed_rate: f64,
    /// Quarantined fraction of offered queries.
    pub quarantine_rate: f64,
}

static SERVE_BENCH: Mutex<Vec<ServeBench>> = Mutex::new(Vec::new());

/// Records one serve leg's summary (replacing an earlier record of the
/// same leg, so re-runs within a process stay idempotent).
pub fn record_serve(bench: ServeBench) {
    let mut legs = SERVE_BENCH.lock().unwrap();
    legs.retain(|b| b.leg != bench.leg);
    legs.push(bench);
    legs.sort_by_key(|b| b.leg);
}

/// The serve experiment's per-leg summaries, if it ran.
pub fn serve_bench() -> Vec<ServeBench> {
    SERVE_BENCH.lock().unwrap().clone()
}

static GIANT_BENCH: Mutex<Option<GiantBench>> = Mutex::new(None);

/// Records the giant experiment's wall-clock outcome.
pub fn record_giant(bench: GiantBench) {
    *GIANT_BENCH.lock().unwrap() = Some(bench);
}

/// The giant experiment's wall-clock outcome, if it ran.
pub fn giant_bench() -> Option<GiantBench> {
    *GIANT_BENCH.lock().unwrap()
}

/// Peak resident set size of this process in bytes (`VmHWM` from
/// `/proc/self/status`); 0 where the proc filesystem is unavailable.
pub fn peak_rss_bytes() -> u64 {
    #[cfg(target_os = "linux")]
    {
        if let Ok(status) = std::fs::read_to_string("/proc/self/status") {
            for line in status.lines() {
                if let Some(rest) = line.strip_prefix("VmHWM:") {
                    let kb = rest
                        .trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<u64>()
                        .unwrap_or(0);
                    return kb * 1024;
                }
            }
        }
        0
    }
    #[cfg(not(target_os = "linux"))]
    {
        0
    }
}

/// Faults scheduled by the chaos experiment's seeded plans.
static FAULTS_INJECTED: AtomicU64 = AtomicU64::new(0);
/// Aborts the chaos experiment's recoverable runs survived.
static ABORTS_RECOVERED: AtomicU64 = AtomicU64::new(0);
/// Rounds re-executed by retries after those aborts.
static ROUNDS_REPLAYED: AtomicU64 = AtomicU64::new(0);

/// Faults scheduled so far (chaos experiment).
pub fn faults_injected() -> u64 {
    FAULTS_INJECTED.load(Ordering::Relaxed)
}

/// Aborts survived so far (chaos experiment).
pub fn aborts_recovered() -> u64 {
    ABORTS_RECOVERED.load(Ordering::Relaxed)
}

/// Rounds replayed by recovery so far (chaos experiment).
pub fn rounds_replayed() -> u64 {
    ROUNDS_REPLAYED.load(Ordering::Relaxed)
}

/// Records one chaos run: faults its plan scheduled, aborts it survived,
/// rounds its retries replayed, and rounds it simulated (the last feeds
/// the process-wide throughput denominator like [`bfs_run`] does).
pub fn record_recovery(faults: u64, aborts: u64, replayed: u64, rounds: u64) {
    FAULTS_INJECTED.fetch_add(faults, Ordering::Relaxed);
    ABORTS_RECOVERED.fetch_add(aborts, Ordering::Relaxed);
    ROUNDS_REPLAYED.fetch_add(replayed, Ordering::Relaxed);
    ROUNDS_SIMULATED.fetch_add(rounds, Ordering::Relaxed);
}

/// Per-workload aggregates from the `workloads` experiment: simulated
/// rounds, wall seconds, and whether every audited run was retry-free.
/// Keyed by workload name; `BTreeMap` so the JSON section is emitted in
/// a stable order regardless of completion order under `--jobs`.
static WORKLOAD_STATS: Mutex<BTreeMap<&'static str, (u64, f64, bool)>> =
    Mutex::new(BTreeMap::new());

/// Records one oracle-validated workload run for the `workloads` section
/// of `BENCH_repro.json` (and the process-wide round counter).
pub fn record_workload(name: &'static str, rounds: u64, wall_seconds: f64, retry_free: bool) {
    ROUNDS_SIMULATED.fetch_add(rounds, Ordering::Relaxed);
    let mut stats = WORKLOAD_STATS.lock().unwrap();
    let entry = stats.entry(name).or_insert((0, 0.0, true));
    entry.0 += rounds;
    entry.1 += wall_seconds;
    entry.2 &= retry_free;
}

/// Per-workload `(name, rounds, wall_seconds, retry_free)` aggregates,
/// in stable (alphabetical) order. Empty if the `workloads` experiment
/// did not run.
pub fn workload_stats() -> Vec<(String, u64, f64, bool)> {
    let stats = WORKLOAD_STATS.lock().unwrap();
    stats
        .iter()
        .map(|(&name, &(rounds, wall, rf))| (name.to_owned(), rounds, wall, rf))
        .collect()
}

/// The single most expensive simulation point seen so far (wall seconds,
/// human-readable point name) — the LPT scheduler's reason to exist, and
/// `BENCH_repro.json`'s `slowest_point` entry.
static SLOWEST_POINT: Mutex<Option<(f64, String)>> = Mutex::new(None);

/// Name and wall-clock seconds of the most expensive [`bfs_run`] point of
/// the process, if any ran.
pub fn slowest_point() -> Option<(String, f64)> {
    let guard = SLOWEST_POINT.lock().unwrap();
    guard.as_ref().map(|(secs, name)| (name.clone(), *secs))
}

fn record_point_wall(name: impl FnOnce() -> String, secs: f64) {
    let mut guard = SLOWEST_POINT.lock().unwrap();
    match guard.as_mut() {
        Some(slowest) if slowest.0 >= secs => {}
        _ => *guard = Some((secs, name())),
    }
}

/// The two hardware platforms of the paper with their headline workgroup
/// counts (Table 3's `nWG` column).
pub fn platforms() -> [(GpuConfig, usize); 2] {
    [(GpuConfig::fiji(), 224), (GpuConfig::spectre(), 32)]
}

/// Caches built datasets per (dataset, scale) so multi-experiment runs do
/// not regenerate multi-million-vertex graphs repeatedly.
///
/// Thread-safe: concurrent `get`s for the *same* key build the graph
/// exactly once (the first caller builds, the rest block on its
/// `OnceLock` cell), while different keys build in parallel — the map
/// lock is only held to fetch or insert a cell, never during a build.
/// One once-built graph cell, shared between the map and in-flight getters.
type GraphCell = Arc<OnceLock<Arc<Csr>>>;

#[derive(Default)]
pub struct DatasetCache {
    graphs: Mutex<HashMap<(Dataset, u64), GraphCell>>,
}

impl DatasetCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// The process-wide cache shared by every experiment, so a `repro all`
    /// run builds each (dataset, scale) graph exactly once no matter how
    /// many experiments or worker threads touch it.
    pub fn global() -> &'static DatasetCache {
        static GLOBAL: OnceLock<DatasetCache> = OnceLock::new();
        GLOBAL.get_or_init(DatasetCache::new)
    }

    /// Builds (or returns the cached) graph for `dataset` at `scale`.
    pub fn get(&self, dataset: Dataset, scale: Scale) -> Arc<Csr> {
        let key = (dataset, scale.fraction().to_bits());
        let cell = {
            let mut graphs = self.graphs.lock().unwrap();
            Arc::clone(graphs.entry(key).or_default())
        };
        Arc::clone(cell.get_or_init(|| Arc::new(dataset.build(scale.fraction()))))
    }
}

/// Runs one validated BFS and returns its stats.
///
/// # Panics
/// Panics if the simulation faults or the resulting levels are wrong —
/// a reproduction harness must never silently report numbers from an
/// incorrect traversal.
pub fn bfs_run(gpu: &GpuConfig, graph: &Csr, variant: Variant, workgroups: usize) -> Run {
    let wall = std::time::Instant::now();
    let config = PtConfig::new(variant, workgroups);
    let run = run_bfs(gpu, graph, 0, &config)
        .unwrap_or_else(|e| panic!("{} {variant:?} x{workgroups}: {e}", gpu.name));
    validate_levels(graph, 0, &run.values).unwrap_or_else(|(v, want, got)| {
        panic!(
            "{} {variant:?}: wrong level at vertex {v}: want {want} got {got}",
            gpu.name
        )
    });
    ROUNDS_SIMULATED.fetch_add(run.metrics.rounds, Ordering::Relaxed);
    record_profile(&run.profile);
    record_point_wall(
        || {
            format!(
                "{} {variant:?} x{workgroups} |V|={}",
                gpu.name,
                graph.num_vertices()
            )
        },
        wall.elapsed().as_secs_f64(),
    );
    run
}

/// One measured point of a workgroup sweep.
#[derive(Clone, Debug)]
pub struct SweepPoint {
    /// Workgroups launched.
    pub wgs: usize,
    /// Queue design.
    pub variant: Variant,
    /// Simulated kernel seconds.
    pub seconds: f64,
    /// Full simulator counters.
    pub metrics: simt::Metrics,
}

/// Runs all three variants at every workgroup count of the GPU's sweep
/// (1, 2, 4, … max) over one graph — the shared measurement behind
/// Figures 1, 4, and 5. Points are simulated in parallel under `sched`,
/// claimed in descending estimated-cost order (vertices × occupancy — a
/// high-occupancy point simulates more wavefronts per round); the
/// returned order (and every value) is identical at any job count.
pub fn sweep_dataset(
    gpu: &GpuConfig,
    graph: &Csr,
    wgs_list: &[usize],
    sched: &Sched,
) -> Vec<SweepPoint> {
    let grid: Vec<(usize, Variant)> = wgs_list
        .iter()
        .flat_map(|&wgs| Variant::ALL.into_iter().map(move |v| (wgs, v)))
        .collect();
    let verts = graph.num_vertices() as u64;
    sched.par_map_lpt(
        &grid,
        |_, &(wgs, _)| verts * wgs as u64,
        |_, &(wgs, variant)| {
            let run = bfs_run(gpu, graph, variant, wgs);
            SweepPoint {
                wgs,
                variant,
                seconds: run.seconds,
                metrics: run.metrics,
            }
        },
    )
}

/// Finds a sweep point.
pub fn point(points: &[SweepPoint], wgs: usize, variant: Variant) -> &SweepPoint {
    points
        .iter()
        .find(|p| p.wgs == wgs && p.variant == variant)
        .expect("sweep point missing")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn platforms_match_paper() {
        let [(fiji, f_wg), (spectre, s_wg)] = platforms();
        assert_eq!(fiji.name, "Fiji");
        assert_eq!(f_wg, 224);
        assert_eq!(spectre.name, "Spectre");
        assert_eq!(s_wg, 32);
    }

    #[test]
    fn cache_returns_same_graph() {
        let cache = DatasetCache::new();
        let a = cache.get(Dataset::RoadNY, Scale::TEST);
        let b = cache.get(Dataset::RoadNY, Scale::TEST);
        assert!(Arc::ptr_eq(&a, &b), "second get must hit the cache");
    }

    #[test]
    fn concurrent_gets_build_once_and_agree() {
        let cache = DatasetCache::new();
        let graphs: Vec<Arc<Csr>> = Sched::new(8).par_map(&[(); 16], |_, ()| {
            cache.get(Dataset::Synthetic, Scale::TEST)
        });
        assert!(graphs.windows(2).all(|w| Arc::ptr_eq(&w[0], &w[1])));
    }
}
