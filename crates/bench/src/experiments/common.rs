//! Shared plumbing for the experiments.

use crate::{Scale, Sched};
use gpu_queue::Variant;
use pt_bfs::{run_bfs, PtConfig, Run};
use ptq_graph::{validate_levels, Csr, Dataset};
use simt::GpuConfig;
use std::collections::HashMap;
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

/// Runs one validated BFS and returns its stats.
///
/// # Panics
/// Panics if the simulation faults or the resulting levels are wrong —
/// a reproduction harness must never silently report numbers from an
/// incorrect traversal.
pub fn bfs_run(gpu: &GpuConfig, graph: &Csr, variant: Variant, workgroups: usize) -> Run {
    let config = PtConfig::new(variant, workgroups);
    let run = run_bfs(gpu, graph, 0, &config)
        .unwrap_or_else(|e| panic!("{} {variant:?} x{workgroups}: {e}", gpu.name));
    validate_levels(graph, 0, &run.values).unwrap_or_else(|(v, want, got)| {
        panic!(
            "{} {variant:?}: wrong level at vertex {v}: want {want} got {got}",
            gpu.name
        )
    });
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
