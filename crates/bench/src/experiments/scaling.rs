//! Scalability deep-dive: RF/AN speedup across workgroup counts with the
//! simulator's per-round bottleneck attribution (the quantitative story
//! behind Figure 4's headline claim of near-linear scaling). Each point is
//! an ordinary validated, audited [`bfs_run`]; the attribution is its
//! [`simt::RoundBounds`].

use super::common::{bfs_run, DatasetCache};
use crate::report::Table;
use crate::{Scale, Sched};
use gpu_queue::Variant;
use ptq_graph::Dataset;
use simt::GpuConfig;

/// Renders the scaling table for one GPU.
pub fn table(scale: Scale, gpu: &GpuConfig, sched: &Sched) -> Table {
    let graph = DatasetCache::global().get(Dataset::Synthetic, scale);
    let mut t = Table::new(
        format!(
            "Scaling ({}): RF/AN speedup and bottleneck attribution on the synthetic dataset",
            gpu.name
        ),
        &[
            "nWG",
            "Time (s)",
            "Speedup",
            "Ideal",
            "Issue-bound",
            "Latency-bound",
            "Memory-bound",
            "Occupancy",
        ],
    );
    let sweep = gpu.workgroup_sweep();
    let runs = sched.par_map(&sweep, |_, &wgs| bfs_run(gpu, &graph, Variant::RfAn, wgs));
    let t1 = runs[0].seconds;
    for (&wgs, run) in sweep.iter().zip(&runs) {
        let (issue, latency, memory) = run.round_bounds.bound_breakdown();
        t.row(vec![
            wgs.to_string(),
            format!("{:.6}", run.seconds),
            format!("{:.1}", t1 / run.seconds),
            wgs.to_string(),
            format!("{issue:.2}"),
            format!("{latency:.2}"),
            format!("{memory:.2}"),
            format!("{:.1}", run.round_bounds.weighted_occupancy()),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn low_occupancy_is_latency_bound() {
        let gpu = GpuConfig::spectre();
        let graph = Dataset::Synthetic.build(0.01);
        let bounds = bfs_run(&gpu, &graph, Variant::RfAn, 1).round_bounds;
        let (issue, latency, _) = bounds.bound_breakdown();
        assert!(
            latency > issue,
            "one wavefront should be latency-bound: latency {latency} vs issue {issue}"
        );
        assert!((bounds.weighted_occupancy() - 1.0).abs() < 0.2);
    }

    #[test]
    fn table_has_one_row_per_sweep_point() {
        let gpu = GpuConfig::spectre();
        let t = table(Scale::TEST, &gpu, &Sched::new(2));
        assert_eq!(t.num_rows(), gpu.workgroup_sweep().len());
    }
}
