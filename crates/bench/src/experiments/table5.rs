//! Table 5: performance comparison with the CHAI BFS benchmark.
//!
//! CHAI's heterogeneous kernel runs only on the integrated GPU (Spectre):
//! "The discrete Fiji GPU cannot run this heterogeneous kernel because it
//! does not support cross cluster CPU/GPU atomic operations." The paper
//! reports RF/AN beating CHAI by 2.57× and 4.21× on its two roadmaps.

use super::common::{bfs_run, checked_run, DatasetCache};
use crate::report::Table;
use crate::{Scale, Sched};
use gpu_queue::Variant;
use pt_bfs::baseline::run_chai;
use pt_bfs::Bfs;
use ptq_graph::Dataset;
use simt::GpuConfig;

/// One row of Table 5.
#[derive(Clone, Debug)]
pub struct Row {
    /// Dataset name as the paper prints it.
    pub dataset: &'static str,
    /// CHAI kernel time (ms).
    pub chai_ms: f64,
    /// RF/AN kernel time (ms).
    pub rfan_ms: f64,
}

impl Row {
    /// RF/AN's speedup over CHAI.
    pub fn speedup(&self) -> f64 {
        self.chai_ms / self.rfan_ms
    }
}

/// Measures both CHAI datasets on the integrated GPU.
pub fn measure(scale: Scale, sched: &Sched) -> Vec<Row> {
    let gpu = GpuConfig::spectre();
    let wgs = gpu.num_cus * gpu.wgs_per_cu;
    sched.par_map(&[Dataset::ChaiNYR, Dataset::ChaiBAY], |_, &dataset| {
        let graph = DatasetCache::global().get(dataset, scale);
        let chai = run_chai(&gpu, &graph, dataset.source(), wgs);
        let bfs = Bfs::new(dataset.source());
        let chai = checked_run(format!("CHAI on {dataset:?}"), chai, &graph, &bfs);
        let rfan = bfs_run(&gpu, &graph, Variant::RfAn, wgs);
        Row {
            dataset: dataset.spec().name,
            chai_ms: chai.seconds * 1e3,
            rfan_ms: rfan.seconds * 1e3,
        }
    })
}

/// Renders Table 5.
pub fn table(rows: &[Row]) -> Table {
    let mut t = Table::new(
        "Table 5: performance comparison with CHAI BFS (ms, Spectre)",
        &["Dataset", "CHAI", "RF/AN", "Speedup"],
    );
    for r in rows {
        t.row(vec![
            r.dataset.to_owned(),
            format!("{:.4}", r.chai_ms),
            format!("{:.4}", r.rfan_ms),
            format!("{:.3}x", r.speedup()),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rfan_beats_chai_on_both_datasets() {
        let rows = measure(Scale::TEST, &Sched::new(2));
        assert_eq!(rows.len(), 2);
        for r in &rows {
            assert!(
                r.speedup() > 1.0,
                "{}: speedup {} should exceed 1",
                r.dataset,
                r.speedup()
            );
        }
        assert_eq!(table(&rows).num_rows(), 2);
    }
}
