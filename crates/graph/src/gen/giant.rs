//! The `giant` synthetic family: scale-headroom graphs built without
//! ever materializing an edge list (ROADMAP item 5).
//!
//! Every other generator in this crate accumulates `(src, dst)` pairs in
//! a [`CsrBuilder`](crate::CsrBuilder); at hundreds of millions of edges
//! that transient list alone costs gigabytes. The giant family instead
//! defines its edges as a *pure function* of `(seed, vertex)`: vertex `v`
//! emits its implicit binary-heap tree edges (`2v+1`, `2v+2` when in
//! range) followed by a per-vertex-seeded number of uniform random
//! extras. Because the stream is exactly replayable, it feeds the
//! two-pass [`build_streamed`] builder
//! with `O(chunk)` peak overhead — and the tree skeleton guarantees
//! every vertex is reachable from the root at depth `⌈log2 n⌉`, so BFS
//! from source 0 always covers the whole graph.

use crate::csr::{Csr, VertexId};
use crate::rng::SplitMix64;
use crate::stream::{build_streamed, DEFAULT_CHUNK_EDGES};

/// SplitMix64's odd golden-ratio increment, reused here to spread vertex
/// ids into independent per-vertex seeds.
const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

/// Drives `emit` over the giant family's edge stream for `(n, seed)`:
/// for each vertex in ascending order, the heap-tree children first,
/// then `uniform[0, 2 * extra_mean]` random extra targets. Pure in its
/// arguments — replaying it yields the identical sequence, which is what
/// lets [`giant_with_chunk`] stream it twice.
///
/// Exposed so benchmarks can drive the *same* edge sequence through the
/// in-memory `CsrBuilder` path and compare construction strategies on
/// byte-identical inputs.
pub fn for_each_giant_edge(
    n: usize,
    extra_mean: u32,
    seed: u64,
    emit: &mut dyn FnMut(VertexId, VertexId),
) {
    for v in 0..n as u32 {
        for child in [2 * v as u64 + 1, 2 * v as u64 + 2] {
            if child < n as u64 {
                emit(v, child as VertexId);
            }
        }
        // Independent per-vertex stream: extras for vertex v never depend
        // on how many edges earlier vertices emitted.
        let mut rng = SplitMix64::seed_from_u64(seed ^ (u64::from(v).wrapping_mul(GOLDEN)));
        let extras = rng.range_u32_inclusive(0, 2 * extra_mean);
        for _ in 0..extras {
            emit(v, rng.range_u32(0, n as u32));
        }
    }
}

/// Builds a giant-family graph with ~`1 + extra_mean` average out-degree
/// (the tree skeleton contributes `n - 1` edges, i.e. mean 1)
/// through the streamed two-pass builder, buffering `chunk_edges` edges
/// at a time (peak transient memory is `O(chunk_edges)`).
///
/// # Panics
/// Panics if `n == 0` or the edge count exceeds `u32::MAX`.
pub fn giant_with_chunk(n: usize, extra_mean: u32, seed: u64, chunk_edges: usize) -> Csr {
    assert!(n > 0, "need at least one vertex");
    build_streamed(n, chunk_edges, |emit| {
        for_each_giant_edge(n, extra_mean, seed, emit)
    })
}

/// [`giant_with_chunk`] at the default chunk size.
pub fn giant(n: usize, extra_mean: u32, seed: u64) -> Csr {
    giant_with_chunk(n, extra_mean, seed, DEFAULT_CHUNK_EDGES)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bfs::bfs_levels;
    use crate::csr::CsrBuilder;

    #[test]
    fn deterministic_and_seed_sensitive() {
        assert_eq!(giant(500, 6, 1), giant(500, 6, 1));
        assert_ne!(giant(500, 6, 1), giant(500, 6, 2));
    }

    #[test]
    fn streamed_matches_in_memory_builder_on_same_stream() {
        let n = 777;
        for chunk in [1usize, 7, 4096, 1 << 20] {
            let streamed = giant_with_chunk(n, 6, 0xA11, chunk);
            let mut b = CsrBuilder::new(n);
            for_each_giant_edge(n, 6, 0xA11, &mut |s, d| b.add_edge(s, d));
            let reference = b.build();
            assert_eq!(streamed, reference, "chunk={chunk}");
        }
    }

    #[test]
    fn tree_skeleton_reaches_every_vertex() {
        let n = 1000;
        let g = giant(n, 6, 7);
        let result = bfs_levels(&g, 0);
        let depth_bound = usize::BITS - n.leading_zeros(); // ceil(log2(n+1))
        for v in 0..n as u32 {
            let level = result.levels[v as usize];
            assert!(level != u32::MAX, "vertex {v} unreached");
            assert!(level <= depth_bound, "vertex {v} deeper than the tree");
        }
    }

    #[test]
    fn average_degree_tracks_extra_mean() {
        let g = giant(20_000, 6, 3);
        let stats = g.degree_stats();
        // n-1 tree edges (avg 1) + uniform[0, 2*mean] extras (avg mean).
        assert!(
            (stats.avg - 7.0).abs() < 0.25,
            "average degree {} should be near 7",
            stats.avg
        );
    }
}
