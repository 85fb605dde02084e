//! Label-correcting single-source shortest paths as a [`PtWorkload`].
//!
//! A Bellman-Ford worklist: relaxing an edge may re-activate an
//! already-settled vertex, so re-enqueues are the norm rather than a
//! rare race — SSSP stresses the queue harder than BFS and ships with a
//! larger default capacity factor. Exactness is validated against
//! sequential Dijkstra.

use super::{Claim, PtWorkload, UNVISITED};
use ptq_graph::{dijkstra, Csr};
use std::sync::Arc;

/// Single-source shortest paths over non-negative `u32` edge weights.
/// The value word is the tentative distance, claimed with an atomic-min;
/// every child is offered the token's distance plus the edge's weight.
#[derive(Clone, Debug)]
pub struct Sssp {
    /// Source vertex of the traversal.
    pub source: u32,
    /// One weight per CSR edge, shared across wavefront clones.
    weights: Arc<Vec<u32>>,
}

impl Sssp {
    /// SSSP from `source` over `weights` (one per CSR edge).
    pub fn new(source: u32, weights: Vec<u32>) -> Self {
        Sssp {
            source,
            weights: Arc::new(weights),
        }
    }
}

impl PtWorkload for Sssp {
    fn name(&self) -> &'static str {
        "sssp"
    }

    fn claim(&self) -> Claim {
        Claim::Min
    }

    fn value_buffer_name(&self) -> &'static str {
        "dist"
    }

    fn initial_values(&self, num_vertices: usize) -> Vec<u32> {
        assert!(
            (self.source as usize) < num_vertices,
            "source vertex out of range"
        );
        let mut values = vec![UNVISITED; num_vertices];
        values[self.source as usize] = 0;
        values
    }

    fn seeds(&self, _num_vertices: usize) -> Vec<u32> {
        vec![self.source]
    }

    fn candidate(&self, raw: u32, _degree: u32) -> Option<u32> {
        Some(raw)
    }

    fn edge_weights(&self) -> Option<Arc<Vec<u32>>> {
        Some(Arc::clone(&self.weights))
    }

    fn reference(&self, graph: &Csr) -> Vec<u32> {
        assert_eq!(self.weights.len(), graph.num_edges(), "one weight per edge");
        dijkstra(graph, &self.weights, self.source)
    }

    fn default_capacity_factor(&self) -> f64 {
        4.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run_recoverable, run_workload, PtConfig, RecoveryPolicy, Run};
    use gpu_queue::Variant;
    use ptq_graph::gen::{erdos_renyi, roadmap, RoadmapParams};
    use ptq_graph::{random_weights, validate_distances};
    use simt::{FaultPlan, GpuConfig, SimError};

    /// Persistent-thread SSSP over `(graph, weights)` from `source`,
    /// starting from SSSP's larger capacity factor (re-enqueues are the
    /// norm).
    fn run_sssp(
        gpu: &GpuConfig,
        graph: &Csr,
        weights: &[u32],
        source: u32,
        variant: Variant,
        workgroups: usize,
    ) -> Result<Run, SimError> {
        let workload = Sssp::new(source, weights.to_vec());
        let config = PtConfig::for_workload(&workload, variant, workgroups);
        run_workload(gpu, graph, &workload, &config)
    }

    fn check_all_variants(graph: &Csr, weights: &[u32], source: u32, wgs: usize) {
        for variant in Variant::ALL {
            let run = run_sssp(
                &GpuConfig::test_tiny(),
                graph,
                weights,
                source,
                variant,
                wgs,
            )
            .unwrap_or_else(|e| panic!("{variant:?}: {e}"));
            validate_distances(graph, weights, source, &run.values).unwrap_or_else(
                |(v, want, got)| panic!("{variant:?}: vertex {v} dist {got} != {want}"),
            );
        }
    }

    #[test]
    fn exact_distances_on_random_graph() {
        let g = erdos_renyi(300, 1500, 7);
        let w = random_weights(&g, 10, 7);
        check_all_variants(&g, &w, 0, 3);
    }

    #[test]
    fn exact_distances_on_roadmap() {
        let g = roadmap(RoadmapParams {
            rows: 15,
            cols: 15,
            keep_prob: 0.5,
            seed: 4,
        });
        let w = random_weights(&g, 100, 4);
        check_all_variants(&g, &w, 0, 2);
    }

    #[test]
    fn unit_weights_match_bfs() {
        let g = erdos_renyi(200, 800, 9);
        let w = vec![1u32; g.num_edges()];
        let run = run_sssp(&GpuConfig::test_tiny(), &g, &w, 0, Variant::RfAn, 2).unwrap();
        let bfs = ptq_graph::bfs_levels(&g, 0);
        assert_eq!(run.values, bfs.levels);
    }

    #[test]
    fn rfan_sssp_never_retries() {
        let g = erdos_renyi(400, 2000, 11);
        let w = random_weights(&g, 8, 11);
        let run = run_sssp(&GpuConfig::test_tiny(), &g, &w, 0, Variant::RfAn, 4).unwrap();
        assert_eq!(run.metrics.cas_failures, 0);
        assert_eq!(run.metrics.queue_empty_retries, 0);
    }

    #[test]
    fn deterministic() {
        let g = erdos_renyi(150, 600, 13);
        let w = random_weights(&g, 5, 13);
        let a = run_sssp(&GpuConfig::test_tiny(), &g, &w, 0, Variant::An, 2).unwrap();
        let b = run_sssp(&GpuConfig::test_tiny(), &g, &w, 0, Variant::An, 2).unwrap();
        assert_eq!(a.metrics, b.metrics);
        assert_eq!(a.values, b.values);
    }

    #[test]
    fn recoverable_sssp_matches_plain_distances() {
        let g = erdos_renyi(250, 1000, 5);
        let w = random_weights(&g, 6, 5);
        let plain = run_sssp(&GpuConfig::test_tiny(), &g, &w, 0, Variant::RfAn, 3).unwrap();
        let workload = Sssp::new(0, w.clone());
        let config = PtConfig::for_workload(&workload, Variant::RfAn, 3);
        let policy = RecoveryPolicy {
            checkpoint_levels: 5,
            ..RecoveryPolicy::default()
        };
        let run = run_recoverable(
            &GpuConfig::test_tiny(),
            &g,
            &workload,
            &config,
            &policy,
            &FaultPlan::EMPTY,
        )
        .unwrap();
        assert_eq!(run.values, plain.values);
    }
}
