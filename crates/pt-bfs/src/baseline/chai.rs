//! CHAI-style collaborative CPU+GPU persistent BFS.
//!
//! CHAI's BFS shares a CAS-based worklist between GPU workgroups and CPU
//! threads over SVM (shared virtual memory). Relative to the paper's
//! design it differs in three performance-relevant ways, all modeled:
//!
//! 1. the queue is traditional/CAS-based (retry overhead),
//! 2. a share of the workers are CPU thread-groups whose memory and
//!    atomic traffic crosses the cluster boundary and pays the SVM
//!    penalty ([`simt::CostModel::svm_penalty`]),
//! 3. it only runs on integrated parts (cross-cluster atomics).
//!
//! The fourth difference the paper notes — CHAI buffering discovered
//! edges in scarce private/local memory — surfaces as its fixed, small
//! per-cycle discovery budget, which the persistent kernel already models
//! through the work-cycle chunk.

use crate::runner::{run_bfs, PtConfig, Run};
use gpu_queue::Variant;
use ptq_graph::Csr;
use simt::{GpuConfig, SimError};

/// CPU thread-groups CHAI contributes alongside the GPU workgroups (the
/// benchmark's default uses a handful of worker threads).
pub const CHAI_CPU_GROUPS: usize = 4;

/// Runs the CHAI-style heterogeneous BFS on an integrated GPU.
///
/// # Panics
/// Panics if called with a discrete configuration — matching the paper:
/// the Fiji part cannot run this kernel at all.
pub fn run_chai(
    gpu: &GpuConfig,
    graph: &Csr,
    source: u32,
    workgroups: usize,
) -> Result<Run, SimError> {
    assert!(
        gpu.name != "Fiji",
        "CHAI's heterogeneous kernel needs cross-cluster atomics (integrated GPUs only)"
    );
    let gpu = GpuConfig {
        cpu_groups: CHAI_CPU_GROUPS,
        ..gpu.clone()
    };
    let config = PtConfig::new(Variant::Base, workgroups);
    run_bfs(&gpu, graph, source, &config)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{run_bfs, PtConfig};
    use ptq_graph::gen::{roadmap, RoadmapParams};
    use ptq_graph::validate_levels;

    fn small_road() -> Csr {
        roadmap(RoadmapParams {
            rows: 20,
            cols: 20,
            keep_prob: 0.4,
            seed: 8,
        })
    }

    #[test]
    fn chai_produces_exact_levels() {
        let g = small_road();
        let run = run_chai(&GpuConfig::test_tiny(), &g, 0, 2).unwrap();
        validate_levels(&g, 0, &run.values).unwrap();
    }

    #[test]
    fn chai_slower_than_rfan_on_same_device() {
        let g = small_road();
        let chai = run_chai(&GpuConfig::test_tiny(), &g, 0, 2).unwrap();
        let rfan = run_bfs(
            &GpuConfig::test_tiny(),
            &g,
            0,
            &PtConfig::new(Variant::RfAn, 2),
        )
        .unwrap();
        assert!(
            chai.seconds > rfan.seconds,
            "CHAI {} vs RF/AN {}",
            chai.seconds,
            rfan.seconds
        );
    }

    #[test]
    #[should_panic(expected = "cross-cluster atomics")]
    fn chai_refuses_discrete_gpu() {
        let g = small_road();
        let _ = run_chai(&GpuConfig::fiji(), &g, 0, 2);
    }

    #[test]
    fn chai_pays_retry_overhead() {
        let g = small_road();
        let run = run_chai(&GpuConfig::test_tiny(), &g, 0, 2).unwrap();
        assert!(run.metrics.cas_attempts > 0);
    }
}
