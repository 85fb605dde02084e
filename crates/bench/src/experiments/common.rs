//! Shared plumbing for the experiments.

use crate::{Scale, Sched};
use gpu_queue::Variant;
use pt_bfs::workload::{Bfs, PtWorkload};
use pt_bfs::{run_bfs, PtConfig, Run};
use ptq_graph::{Csr, Dataset};
use simt::{FaultPlan, FaultSpec, GpuConfig, SimError};
use std::collections::HashMap;
use std::fmt::Display;
use std::sync::{Arc, Mutex, OnceLock};

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

/// The small six-dataset pool of the workload matrix, the chaos matrix
/// and the serving legs: fractions *relative to the run's `--scale`*
/// ([`Scale::relative`]) that land every shape near 1–2.5k vertices at
/// the default scale, so graphs run many times over stay cheap.
pub const SMALL_POOL: [(Dataset, f64); 6] = [
    (Dataset::Synthetic, 0.004),
    (Dataset::GplusCombined, 0.1),
    (Dataset::SocLiveJournal1, 0.006),
    (Dataset::RoadNY, 0.1),
    (Dataset::RoadLKS, 0.01),
    (Dataset::RoadUSA, 0.002),
];

/// Is this run right? Checks a runner's result against `workload`'s
/// sequential oracle and returns the run, or a message naming the
/// simulation error or the first wrong vertex. `repro verify` turns the
/// message into a FAIL verdict; every other experiment panics on it
/// through [`checked_run`].
pub fn check_run<W: PtWorkload>(
    run: Result<Run, SimError>,
    graph: &Csr,
    workload: &W,
) -> Result<Run, String> {
    let name = workload.name();
    let run = run.map_err(|e| format!("{name}: {e}"))?;
    match workload.validate(graph, &run.values) {
        Ok(()) => Ok(run),
        Err((v, want, got)) => Err(format!(
            "{name}: wrong value at vertex {v}: want {want} got {got}"
        )),
    }
}

/// [`check_run`] for a harness that must never report numbers from a
/// wrong run: panics with `context` and the check's message.
pub fn checked_run<W: PtWorkload>(
    context: impl Display,
    run: Result<Run, SimError>,
    graph: &Csr,
    workload: &W,
) -> Run {
    check_run(run, graph, workload).unwrap_or_else(|message| panic!("{context}: {message}"))
}

/// Runs one checked BFS from vertex 0 and returns its stats.
///
/// # Panics
/// Panics if the simulation faults or the resulting levels are wrong.
pub fn bfs_run(gpu: &GpuConfig, graph: &Csr, variant: Variant, workgroups: usize) -> Run {
    let run = run_bfs(gpu, graph, 0, &PtConfig::new(variant, workgroups));
    let context = format!("{} {variant:?} x{workgroups}", gpu.name);
    checked_run(context, run, graph, &Bfs::new(0))
}

/// Rounds a seeded fault plan draws its faults from: early rounds, which
/// every launch reaches.
pub const FAULT_ROUNDS: u64 = 8;

/// What is a seeded fault plan? `faults` wave kills, `faults` CU stalls
/// (each at most 4 rounds of at most 200 extra cycles) and `faults`
/// poisons of `workload`'s value buffer, drawn from `seed` over the
/// first [`FAULT_ROUNDS`] rounds of a `workgroups`-wide launch on `gpu`.
pub fn fault_plan<W: PtWorkload>(
    seed: u64,
    gpu: &GpuConfig,
    workgroups: usize,
    faults: u32,
    workload: &W,
    num_vertices: usize,
) -> FaultPlan {
    FaultPlan::seeded(
        seed,
        &FaultSpec {
            wave_kills: faults,
            cu_stalls: faults,
            mem_poisons: faults,
            max_round: FAULT_ROUNDS,
            waves: workgroups * gpu.waves_per_wg,
            cus: gpu.num_cus,
            max_stall_rounds: 4,
            max_stall_cycles: 200,
            poison_buffer: workload.value_buffer_name().into(),
            poison_words: num_vertices,
        },
    )
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

    /// A clean RF/AN BFS on a tiny road graph, and the same run with one
    /// vertex's level altered.
    fn clean_and_altered_bfs() -> (Arc<Csr>, Run, Run, u32) {
        let graph = DatasetCache::global().get(Dataset::RoadNY, Scale::TEST);
        let gpu = GpuConfig::spectre();
        let clean = run_bfs(&gpu, &graph, 0, &PtConfig::new(Variant::RfAn, 8)).unwrap();
        let mut altered = clean.clone();
        let vertex = graph.num_vertices() as u32 / 2;
        altered.values[vertex as usize] ^= 1;
        (graph, clean, altered, vertex)
    }

    #[test]
    fn the_run_check_passes_a_clean_run_and_names_the_altered_vertex() {
        let (graph, clean, altered, vertex) = clean_and_altered_bfs();
        let checked = check_run(Ok(clean.clone()), &graph, &Bfs::new(0)).unwrap();
        assert_eq!(checked.values, clean.values);
        let message = check_run(Ok(altered), &graph, &Bfs::new(0)).unwrap_err();
        assert!(
            message.contains(&format!("wrong value at vertex {vertex}:")),
            "{message}"
        );
    }

    #[test]
    #[should_panic(expected = "altered run: bfs: wrong value at vertex")]
    fn the_run_check_panics_on_an_altered_level() {
        let (graph, _, altered, _) = clean_and_altered_bfs();
        checked_run("altered run", Ok(altered), &graph, &Bfs::new(0));
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
