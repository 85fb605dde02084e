//! Scalability deep-dive: RF/AN speedup across workgroup counts with the
//! simulator's per-round bottleneck attribution (the quantitative story
//! behind Figure 4's headline claim of near-linear scaling).

use super::common::DatasetCache;
use crate::report::Table;
use crate::{Scale, Sched};
use gpu_queue::device::{Design, DeviceQueue};
use gpu_queue::Variant;
use pt_bfs::workload::Bfs;
use pt_bfs::{PtKernel, WorkBuffers};
use ptq_graph::Dataset;
use simt::{Engine, GpuConfig, Launch};

/// One traced RF/AN run at a given workgroup count.
fn traced_run(gpu: &GpuConfig, graph: &ptq_graph::Csr, wgs: usize) -> (f64, f64, f64, f64, f64) {
    let n = graph.num_vertices();
    let mut engine = Engine::new(gpu.clone());
    let mem = engine.memory_mut();
    mem.alloc_init("nodes", graph.row_offsets());
    mem.alloc_init("edges", graph.adjacency());
    let costs = mem.alloc("costs", n);
    mem.fill(costs, u32::MAX);
    mem.write_u32(costs, 0, 0);
    let inqueue = mem.alloc("inqueue", n);
    mem.write_u32(inqueue, 0, 1);
    let pending = mem.alloc("pending", 1);
    mem.write_u32(pending, 0, 1);
    let queue = DeviceQueue::setup(
        mem,
        Design::Shared(Variant::RfAn),
        (2 * n) as u32,
        gpu.num_cus,
    );
    queue.host_seed(mem, &[0]);
    let buffers = WorkBuffers {
        nodes: mem.buffer("nodes"),
        edges: mem.buffer("edges"),
        values: costs,
        inqueue,
        pending,
    };
    let report = engine
        .run(Launch::workgroups(wgs).with_trace(), |info| {
            PtKernel::new(
                queue.wave_queue(info.cu),
                Bfs::new(0),
                buffers,
                info.wave_size,
            )
        })
        .expect("traced run succeeds");
    let trace = report.trace.expect("trace requested");
    let (issue, latency, memory) = trace.bound_breakdown();
    (
        report.seconds,
        issue,
        latency,
        memory,
        trace.weighted_occupancy(),
    )
}

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
    let runs = sched.par_map(&sweep, |_, &wgs| traced_run(gpu, &graph, wgs));
    let t1 = runs[0].0;
    for (&wgs, &(seconds, issue, latency, memory, occ)) in sweep.iter().zip(&runs) {
        t.row(vec![
            wgs.to_string(),
            format!("{seconds:.6}"),
            format!("{:.1}", t1 / seconds),
            wgs.to_string(),
            format!("{issue:.2}"),
            format!("{latency:.2}"),
            format!("{memory:.2}"),
            format!("{occ:.1}"),
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
        let (_, issue, latency, _, occ) = traced_run(&gpu, &graph, 1);
        assert!(
            latency > issue,
            "one wavefront should be latency-bound: latency {latency} vs issue {issue}"
        );
        assert!((occ - 1.0).abs() < 0.2);
    }

    #[test]
    fn table_has_one_row_per_sweep_point() {
        let gpu = GpuConfig::spectre();
        let t = table(Scale::TEST, &gpu, &Sched::new(2));
        assert_eq!(t.num_rows(), gpu.workgroup_sweep().len());
    }
}
