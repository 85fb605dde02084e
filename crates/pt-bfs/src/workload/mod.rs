//! The workload layer: what makes the persistent-thread core generic.
//!
//! The paper's queue is a *general* scheduler for irregular workloads —
//! BFS is merely its evaluation driver. This module carves the
//! workload-specific 10% out of the kernel into the [`PtWorkload`]
//! trait, so the other 90% — dispatch across all six queue designs,
//! capacity regrow, spill-fence epochs, checkpoint/resume,
//! audit enforcement — lives once in the generic
//! [`PtKernel`](crate::kernel::PtKernel) / [`run_workload`] machinery
//! and every workload inherits it.
//!
//! A workload owns exactly:
//!
//! * a **claim direction** ([`Claim`]): whether the per-vertex value
//!   word is claimed with an atomic-min (BFS levels, SSSP distances,
//!   component labels) or an atomic-max (best-contribution
//!   PageRank-delta),
//! * the **initial state**: per-vertex values and the seed tokens,
//! * the **candidate**: the value a token offers every child, derived
//!   once per token from its raw value and out-degree
//!   ([`PtWorkload::candidate`]; `None` offers nothing),
//! * optional **edge weights**, one per CSR edge, added to the candidate
//!   along each edge ([`PtWorkload::edge_weights`]; SSSP's),
//! * a **sequential reference oracle** computing the exact value array
//!   every run must reproduce.
//!
//! The kernel owns the traversal: it walks each token's edges a chunk
//! at a time and claims every child with the candidate, so no workload
//! touches the device.
//!
//! Every workload here is *confluent*: the claim is a directed atomic
//! on a totally ordered value word, so the traversal converges to the
//! same least fixed point under any execution schedule, any queue
//! variant, and any fault/recovery interleaving — which is what lets
//! the differential and chaos suites compare runs byte-for-byte.
//!
//! [`run_workload`]: crate::runner::run_workload

mod batch;
mod bfs;
mod cc;
mod prdelta;
mod sssp;

pub use batch::QueryBatch;
pub use bfs::Bfs;
pub use cc::ConnectedComponents;
pub use prdelta::PrDelta;
pub use sssp::Sssp;

use ptq_graph::Csr;
use simt::Buffer;
use std::sync::Arc;

pub(crate) use crate::UNVISITED;

/// Direction of the per-vertex claim atomic.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Claim {
    /// Values improve downward; claimed with `atomic_min` (BFS levels,
    /// SSSP distances, CC labels).
    Min,
    /// Values improve upward; claimed with `atomic_max`
    /// (best-contribution PageRank-delta).
    Max,
}

/// Device buffer handles shared by every persistent-thread workload.
#[derive(Clone, Copy, Debug)]
pub struct WorkBuffers {
    /// CSR row offsets (`n + 1` words) — the paper's `Nodes`.
    pub nodes: Buffer,
    /// CSR adjacency — the paper's `Edges`.
    pub edges: Buffer,
    /// Per-edge weights parallel to `edges` (see
    /// [`PtWorkload::edge_weights`]); `None` for unweighted workloads.
    pub weights: Option<Buffer>,
    /// Per-vertex claimed value word — the paper's `Costs`, generalized:
    /// BFS levels, SSSP distances, CC labels, or PR-delta contributions.
    pub values: Buffer,
    /// Per-vertex on-queue bit (1 while the vertex sits in the queue).
    pub inqueue: Buffer,
    /// One-word outstanding-task counter for termination detection.
    pub pending: Buffer,
}

/// One irregular workload runnable on the persistent-thread core.
///
/// Implementations are cloned once per wavefront, so they must be cheap
/// to clone — share large payloads (e.g. edge weights) behind an `Arc`.
pub trait PtWorkload: Clone {
    /// Short display name (experiment tables, error messages).
    fn name(&self) -> &'static str;

    /// Direction of the value-word claim atomic.
    fn claim(&self) -> Claim;

    /// Device buffer name for the value array ("costs" for BFS, "dist"
    /// for SSSP, …). Kept workload-specific so fault plans that poison
    /// buffers by name, and memory-map dumps, stay meaningful.
    fn value_buffer_name(&self) -> &'static str;

    /// Initial per-vertex values (the bottom of the value lattice, with
    /// seeds pre-claimed).
    ///
    /// # Panics
    /// May panic if the workload's seed vertices are out of range.
    fn initial_values(&self, num_vertices: usize) -> Vec<u32>;

    /// Tokens seeding the scheduler queue (each must also have its
    /// on-queue bit set and be counted in `pending` — the runner does
    /// both, after rejecting tokens outside the graph with a typed
    /// error, so implementations report rather than assert).
    fn seeds(&self, num_vertices: usize) -> Vec<u32>;

    /// Length of the per-token state arrays (values, on-queue bits,
    /// spill buffer) for a graph of `num_vertices` vertices. Solo
    /// workloads use one slot per vertex (the default); a
    /// [`QueryBatch`] of `k` co-scheduled queries uses `k` slots per
    /// vertex so every query keeps private claim state over the shared
    /// CSR.
    fn state_len(&self, num_vertices: usize) -> usize {
        num_vertices
    }

    /// Maps a queue token to the CSR row it expands. Solo workloads
    /// schedule vertices directly (identity, the default); a
    /// [`QueryBatch`] packs `query_id * num_vertices + vertex` into the
    /// token and strips the query tag here. Pure (no device ops) — the
    /// kernel uses it on the host side of the acquisition prolog.
    fn token_row(&self, token: u32) -> u32 {
        token
    }

    /// The value a token offers every child, from the raw value a lane
    /// loads in the acquisition prolog and the token's out-degree:
    /// computed once per token, pure (no device ops). `None` offers
    /// nothing — the lane still walks its edge span, one chunk per
    /// cycle, without touching memory.
    fn candidate(&self, raw: u32, degree: u32) -> Option<u32>;

    /// Weights, one per CSR edge, added (saturating) to the candidate
    /// along each edge. The runner maps them read-only under the buffer
    /// name "weights", after the CSR buffers and before the value array.
    fn edge_weights(&self) -> Option<Arc<Vec<u32>>> {
        None
    }

    /// Sequential reference oracle: the exact value array every run must
    /// produce.
    fn reference(&self, graph: &Csr) -> Vec<u32>;

    /// Checks a run's value array against [`PtWorkload::reference`].
    /// Returns the first discrepancy as `Err((vertex, expected, actual))`.
    fn validate(&self, graph: &Csr, candidate: &[u32]) -> Result<(), (u32, u32, u32)> {
        let reference = self.reference(graph);
        if candidate.len() != reference.len() {
            return Err((0, reference.len() as u32, candidate.len() as u32));
        }
        for (v, (&want, &got)) in reference.iter().zip(candidate).enumerate() {
            if want != got {
                return Err((v as u32, want, got));
            }
        }
        Ok(())
    }

    /// Vertices the run reached, given the final value array.
    fn reached(&self, values: &[u32]) -> usize {
        values.iter().filter(|&&v| v != UNVISITED).count()
    }

    /// Default queue capacity as a multiple of the vertex count (the
    /// runner's starting point before queue-full regrow). Workloads with
    /// heavy re-enqueue traffic or all-vertex seeding want headroom.
    fn default_capacity_factor(&self) -> f64 {
        2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn claim_directions_per_workload() {
        assert_eq!(Bfs::new(0).claim(), Claim::Min);
        assert_eq!(Sssp::new(0, vec![]).claim(), Claim::Min);
        assert_eq!(ConnectedComponents.claim(), Claim::Min);
        assert_eq!(PrDelta::new(0).claim(), Claim::Max);
    }

    #[test]
    fn value_buffer_names_are_distinct_and_stable() {
        // Fault plans poison buffers by name; these are load-bearing.
        assert_eq!(Bfs::new(0).value_buffer_name(), "costs");
        assert_eq!(Sssp::new(0, vec![]).value_buffer_name(), "dist");
        assert_eq!(ConnectedComponents.value_buffer_name(), "labels");
        assert_eq!(PrDelta::new(0).value_buffer_name(), "resid");
    }

    #[test]
    fn seeding_shapes() {
        assert_eq!(Bfs::new(3).seeds(10), vec![3]);
        assert_eq!(PrDelta::new(2).seeds(10), vec![2]);
        assert_eq!(ConnectedComponents.seeds(4), vec![0, 1, 2, 3]);
        let init = Bfs::new(3).initial_values(5);
        assert_eq!(init[3], 0);
        assert!(init
            .iter()
            .enumerate()
            .all(|(v, &x)| v == 3 || x == UNVISITED));
    }
}
