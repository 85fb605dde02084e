//! Top-down BFS as a [`PtWorkload`] — the paper's evaluation driver,
//! now one workload among several on the generic core.

use super::{Claim, PtWorkload, UNVISITED};
use ptq_graph::{bfs_levels, Csr};

/// Breadth-first search from a single source. The value word is the
/// vertex's BFS level, claimed with an atomic-min; every child is
/// offered `level + 1`.
#[derive(Clone, Copy, Debug)]
pub struct Bfs {
    /// Source vertex of the traversal.
    pub source: u32,
}

impl Bfs {
    /// BFS from `source`.
    pub fn new(source: u32) -> Self {
        Bfs { source }
    }
}

impl PtWorkload for Bfs {
    fn name(&self) -> &'static str {
        "bfs"
    }

    fn claim(&self) -> Claim {
        Claim::Min
    }

    fn value_buffer_name(&self) -> &'static str {
        "costs"
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

    /// One level deeper; an unvisited (`u32::MAX`) level offers nothing.
    fn candidate(&self, raw: u32, _degree: u32) -> Option<u32> {
        raw.checked_add(1)
    }

    fn reference(&self, graph: &Csr) -> Vec<u32> {
        bfs_levels(graph, self.source).levels
    }
}
