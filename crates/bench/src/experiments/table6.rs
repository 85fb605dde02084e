//! Table 6: performance comparison with the Rodinia BFS benchmark.
//!
//! Rodinia's level-synchronous implementation relaunches a kernel per
//! level and scans every vertex each time; the paper beats it by 36× on
//! the smaller shallow datasets and 1.26× on the wide 1M-vertex one —
//! the crossover the harness must reproduce: **the speedup shrinks as the
//! dataset grows** because launch overhead amortizes away.

use super::common::{bfs_run, checked_run, DatasetCache};
use crate::report::Table;
use crate::{Scale, Sched};
use gpu_queue::Variant;
use pt_bfs::baseline::run_rodinia;
use pt_bfs::Bfs;
use ptq_graph::Dataset;
use simt::GpuConfig;

/// One measurement of Table 6.
#[derive(Clone, Debug)]
pub struct Row {
    /// Dataset name.
    pub dataset: &'static str,
    /// GPU name.
    pub device: &'static str,
    /// Rodinia kernel time (ms).
    pub rodinia_ms: f64,
    /// RF/AN kernel time (ms).
    pub rfan_ms: f64,
}

impl Row {
    /// RF/AN's speedup over Rodinia.
    pub fn speedup(&self) -> f64 {
        self.rodinia_ms / self.rfan_ms
    }
}

/// The three Rodinia datasets in ascending size.
pub const DATASETS: [Dataset; 3] = [
    Dataset::RodiniaGraph4096,
    Dataset::RodiniaGraph65536,
    Dataset::RodiniaGraph1M,
];

/// Measures all dataset × device combinations.
pub fn measure(scale: Scale, sched: &Sched) -> Vec<Row> {
    let grid: Vec<(Dataset, GpuConfig)> = DATASETS
        .into_iter()
        .flat_map(|d| [(d, GpuConfig::spectre()), (d, GpuConfig::fiji())])
        .collect();
    sched.par_map(&grid, |_, (dataset, gpu)| {
        let dataset = *dataset;
        let graph = DatasetCache::global().get(dataset, scale);
        let wgs = gpu.num_cus * gpu.wgs_per_cu;
        let rodinia = run_rodinia(gpu, &graph, dataset.source(), wgs);
        let bfs = Bfs::new(dataset.source());
        let rodinia = checked_run(format!("Rodinia on {dataset:?}"), rodinia, &graph, &bfs);
        let rfan = bfs_run(gpu, &graph, Variant::RfAn, wgs);
        Row {
            dataset: dataset.spec().name,
            device: gpu.name,
            rodinia_ms: rodinia.seconds * 1e3,
            rfan_ms: rfan.seconds * 1e3,
        }
    })
}

/// Renders Table 6.
pub fn table(rows: &[Row]) -> Table {
    let mut t = Table::new(
        "Table 6: performance comparison with Rodinia BFS (ms)",
        &["Dataset", "Device", "Rodinia", "RF/AN", "Speedup"],
    );
    for r in rows {
        t.row(vec![
            r.dataset.to_owned(),
            r.device.to_owned(),
            format!("{:.4}", r.rodinia_ms),
            format!("{:.4}", r.rfan_ms),
            format!("{:.2}x", r.speedup()),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rfan_beats_rodinia_on_every_dataset() {
        let rows = measure(Scale::new(0.02), &Sched::new(4));
        assert_eq!(rows.len(), 6);
        for r in &rows {
            assert!(
                r.speedup() > 1.0,
                "{} on {}: speedup {}",
                r.dataset,
                r.device,
                r.speedup()
            );
        }
    }

    #[test]
    fn speedup_shrinks_as_rodinia_datasets_grow() {
        // The crossover needs real size separation: graph4096 at full size
        // vs a 100k-vertex slice of graph1MW_6 (the per-level launch
        // overhead amortizes away as levels get wider).
        use super::super::common::bfs_run;
        use gpu_queue::Variant;
        use pt_bfs::baseline::run_rodinia;
        use simt::GpuConfig;

        let gpu = GpuConfig::fiji();
        let wgs = gpu.num_cus * gpu.wgs_per_cu;
        let speedup = |graph: &ptq_graph::Csr| {
            let rodinia = run_rodinia(&gpu, graph, 0, wgs).unwrap();
            let rfan = bfs_run(&gpu, graph, Variant::RfAn, wgs);
            rodinia.seconds / rfan.seconds
        };
        let small = Dataset::RodiniaGraph4096.build(1.0);
        let large = Dataset::RodiniaGraph1M.build(1.0);
        let s_small = speedup(&small);
        let s_large = speedup(&large);
        assert!(
            s_small > s_large,
            "speedup should shrink with size: {s_small} vs {s_large}"
        );
    }
}
