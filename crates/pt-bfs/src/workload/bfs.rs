//! Top-down BFS as a [`PtWorkload`] — the paper's evaluation driver,
//! now one workload among several on the generic core.

use super::{Claim, PtWorkload, TokenSink, WorkBuffers, UNVISITED};
use ptq_graph::{bfs_levels, Csr};
use simt::WaveCtx;

/// Breadth-first search from a single source. The value word is the
/// vertex's BFS level, claimed with an atomic-min; a chunk of out-edges
/// is read through the prevalidated run path and every child is offered
/// `level + 1`.
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

    fn expand(
        &self,
        ctx: &mut WaveCtx<'_>,
        buffers: &WorkBuffers,
        value: u32,
        start: u32,
        stop: u32,
        scratch: &mut Vec<u32>,
        sink: &mut TokenSink<'_>,
    ) {
        // A lane's edge chunk is contiguous in CSR: one coalesced
        // transaction (usually a single line), read through the
        // prevalidated run path — one bounds check per chunk instead of
        // one per edge.
        ctx.charge_coalesced_access(buffers.edges, start as usize, (stop - start) as usize);
        ctx.peek_run(
            buffers.edges,
            start as usize,
            (stop - start) as usize,
            scratch,
        );
        for &child in scratch.iter() {
            sink.offer(ctx, child, value + 1);
        }
    }

    fn reference(&self, graph: &Csr) -> Vec<u32> {
        bfs_levels(graph, self.source).levels
    }
}
