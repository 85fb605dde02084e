//! Ablation studies beyond the paper's own experiments.
//!
//! * **Chunk size** — the paper fixes work cycles at 4 uniform sub-tasks
//!   ("Empirically we found work cycles of 4 sub-tasks works well",
//!   §3.3 footnote). The sweep shows why: small chunks dequeue too often
//!   (scheduler overhead), large chunks starve other lanes through
//!   divergence.
//! * **Occupancy** — the paper launches 4 workgroups per CU "to
//!   facilitate zero-cost thread switching". The sweep varies resident
//!   workgroups per CU and exposes the latency-hiding effect.

use super::common::{bfs_run, checked_run, DatasetCache};
use crate::report::{fmt_f64, Table};
use crate::{Scale, Sched};
use gpu_queue::Variant;
use pt_bfs::{run_bfs, Bfs, PtConfig};
use ptq_graph::Dataset;
use simt::GpuConfig;

/// The full 2×2 property matrix (adds the RF-only variant the paper does
/// not evaluate): retry-free × arbitrary-n, on the saturating synthetic
/// dataset where both properties matter most.
pub fn matrix_table(scale: Scale, gpu: &GpuConfig, sched: &Sched) -> Table {
    let graph = DatasetCache::global().get(Dataset::Synthetic, scale);
    let wgs = gpu.num_cus * gpu.wgs_per_cu;
    let mut t = Table::new(
        format!(
            "Ablation ({}): 2x2 property matrix on the synthetic dataset",
            gpu.name
        ),
        &[
            "Variant",
            "retry-free",
            "arbitrary-n",
            "Time (s)",
            "Atomics",
            "Retries",
        ],
    );
    let rows = sched.par_map(&Variant::MATRIX, |_, &variant| {
        let run = bfs_run(gpu, &graph, variant, wgs);
        vec![
            variant.label().to_owned(),
            if variant.is_retry_free() { "yes" } else { "no" }.to_owned(),
            if variant.is_arbitrary_n() {
                "yes"
            } else {
                "no"
            }
            .to_owned(),
            fmt_f64(run.seconds),
            run.metrics.global_atomics.to_string(),
            run.metrics.total_retries().to_string(),
        ]
    });
    for row in rows {
        t.row(row);
    }
    t
}

/// Single shared queue vs. one-queue-per-CU with work stealing (the
/// Tzeng-style alternative the paper's related work surveys), across the
/// three workload regimes.
pub fn stealing_table(scale: Scale, gpu: &GpuConfig, sched: &Sched) -> Table {
    use gpu_queue::device::Design;

    let wgs = gpu.num_cus * gpu.wgs_per_cu;
    let mut t = Table::new(
        format!(
            "Ablation ({}): single shared RF/AN queue vs distributed work stealing",
            gpu.name
        ),
        &[
            "Dataset",
            "Shared (s)",
            "Stealing (s)",
            "Stealing empty-scans",
        ],
    );
    let datasets = [
        Dataset::Synthetic,
        Dataset::SocLiveJournal1,
        Dataset::RoadNY,
    ];
    // The shared and stealing runs of a dataset are independent
    // simulations: fan them out as separate points so the scheduler can
    // overlap them instead of serializing each pair on one worker.
    let designs = [Design::Shared(Variant::RfAn), Design::PerCu];
    let grid: Vec<(Dataset, Design)> = datasets
        .iter()
        .flat_map(|&dataset| designs.map(|design| (dataset, design)))
        .collect();
    let runs = sched.par_map_lpt(
        &grid,
        |_, &(dataset, _)| dataset.spec().vertices as u64,
        |_, &(dataset, design)| {
            let graph = DatasetCache::global().get(dataset, scale);
            let run = run_bfs(gpu, &graph, 0, &PtConfig::new(design, wgs));
            let context = format!("{} on {dataset:?}", design.label());
            let run = checked_run(context, run, &graph, &Bfs::new(0));
            (run.seconds, run.metrics.queue_empty_retries)
        },
    );
    for (dataset, pair) in datasets.iter().zip(runs.chunks_exact(2)) {
        let (shared_seconds, _) = pair[0];
        let (stealing_seconds, empty_scans) = pair[1];
        t.row(vec![
            dataset.spec().name.to_owned(),
            fmt_f64(shared_seconds),
            fmt_f64(stealing_seconds),
            empty_scans.to_string(),
        ]);
    }
    t
}

/// Chunk sizes swept by [`chunk_table`].
pub const CHUNKS: [u32; 5] = [1, 2, 4, 8, 16];

/// Sweeps the work-cycle chunk size on the saturating synthetic dataset.
pub fn chunk_table(scale: Scale, gpu: &GpuConfig, sched: &Sched) -> Table {
    let graph = DatasetCache::global().get(Dataset::Synthetic, scale);
    let wgs = gpu.num_cus * gpu.wgs_per_cu;
    let mut t = Table::new(
        format!(
            "Ablation ({}): sub-tasks per work cycle (paper fixes 4)",
            gpu.name
        ),
        &["Chunk", "BASE time (s)", "AN time (s)", "RF/AN time (s)"],
    );
    let grid: Vec<(u32, Variant)> = CHUNKS
        .into_iter()
        .flat_map(|chunk| Variant::ALL.into_iter().map(move |v| (chunk, v)))
        .collect();
    let cells = sched.par_map(&grid, |_, &(chunk, variant)| {
        let mut config = PtConfig::new(variant, wgs);
        config.chunk = chunk;
        let run = run_bfs(gpu, &graph, 0, &config);
        let run = checked_run(
            format!("chunk {chunk} {variant:?}"),
            run,
            &graph,
            &Bfs::new(0),
        );
        fmt_f64(run.seconds)
    });
    for (chunk, row) in CHUNKS.into_iter().zip(cells.chunks(Variant::ALL.len())) {
        let mut cols = vec![chunk.to_string()];
        cols.extend_from_slice(row);
        t.row(cols);
    }
    t
}

/// Sweeps resident workgroups per CU (occupancy) at a fixed total number
/// of CUs, isolating the latency-hiding effect of extra wavefronts.
pub fn occupancy_table(scale: Scale, base_gpu: &GpuConfig, sched: &Sched) -> Table {
    let graph = DatasetCache::global().get(Dataset::Synthetic, scale);
    let mut t = Table::new(
        format!(
            "Ablation ({}): workgroups per CU (paper launches 4)",
            base_gpu.name
        ),
        &["WGs/CU", "Threads", "RF/AN time (s)"],
    );
    let rows = sched.par_map(&[1usize, 2, 4, 8], |_, &wgs_per_cu| {
        let mut gpu = base_gpu.clone();
        gpu.wgs_per_cu = wgs_per_cu;
        let wgs = gpu.num_cus * wgs_per_cu;
        let run = bfs_run(&gpu, &graph, Variant::RfAn, wgs);
        vec![
            wgs_per_cu.to_string(),
            (wgs * gpu.wave_size).to_string(),
            fmt_f64(run.seconds),
        ]
    });
    for row in rows {
        t.row(row);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_shows_both_properties_matter() {
        let gpu = GpuConfig::spectre();
        let t = matrix_table(Scale::new(0.01), &gpu, &Sched::new(4));
        assert_eq!(t.num_rows(), 4);
    }

    #[test]
    fn stealing_table_runs_and_validates() {
        let gpu = GpuConfig::spectre();
        let t = stealing_table(Scale::TEST, &gpu, &Sched::new(3));
        assert_eq!(t.num_rows(), 3);
    }

    #[test]
    fn chunk_sweep_runs_and_default_is_competitive() {
        let gpu = GpuConfig::spectre();
        let t = chunk_table(Scale::TEST, &gpu, &Sched::new(4));
        assert_eq!(t.num_rows(), CHUNKS.len());
    }

    #[test]
    fn more_occupancy_helps_until_saturation() {
        let gpu = GpuConfig::spectre();
        let graph = Dataset::Synthetic.build(Scale::new(0.01).fraction());
        let time_at = |wgs_per_cu: usize| {
            let mut g = gpu.clone();
            g.wgs_per_cu = wgs_per_cu;
            let wgs = g.num_cus * wgs_per_cu;
            run_bfs(&g, &graph, 0, &PtConfig::new(Variant::RfAn, wgs))
                .unwrap()
                .seconds
        };
        let t1 = time_at(1);
        let t4 = time_at(4);
        assert!(t4 < t1, "4 wgs/cu ({t4}) should beat 1 ({t1})");
    }
}
