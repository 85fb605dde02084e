//! Connected components by min-label propagation as a [`PtWorkload`].
//!
//! Every vertex starts labelled with its own id and *every* vertex seeds
//! the queue — the all-frontier shape the paper's arbitrary-n enqueue
//! was designed for (a wavefront's first work cycle already offers the
//! queue hundreds of tokens). A dequeued vertex offers its current label
//! to every neighbour; the atomic-min claim keeps the smaller label. On
//! an undirected graph the fixed point labels every vertex with the
//! smallest vertex id in its component.

use super::{Claim, PtWorkload};
use ptq_graph::{min_label_fixpoint, Csr};

/// Min-label propagation. The value word is the component label,
/// claimed with an atomic-min; the candidate offered to every child is
/// the token's own current label.
#[derive(Clone, Copy, Debug, Default)]
pub struct ConnectedComponents;

impl PtWorkload for ConnectedComponents {
    fn name(&self) -> &'static str {
        "cc"
    }

    fn claim(&self) -> Claim {
        Claim::Min
    }

    fn value_buffer_name(&self) -> &'static str {
        "labels"
    }

    fn initial_values(&self, num_vertices: usize) -> Vec<u32> {
        (0..num_vertices as u32).collect()
    }

    fn seeds(&self, num_vertices: usize) -> Vec<u32> {
        (0..num_vertices as u32).collect()
    }

    fn candidate(&self, raw: u32, _degree: u32) -> Option<u32> {
        Some(raw)
    }

    fn reference(&self, graph: &Csr) -> Vec<u32> {
        min_label_fixpoint(graph)
    }

    /// Every vertex carries a label; the traversal touches all of them.
    fn reached(&self, values: &[u32]) -> usize {
        values.len()
    }

    /// All `n` vertices are seeded up front and label improvements
    /// re-enqueue freely, so the queue needs room for well over `n`
    /// lifetime enqueues (the queue is non-wrapping).
    fn default_capacity_factor(&self) -> f64 {
        8.0
    }
}
