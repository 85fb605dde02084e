//! Streamed two-pass CSR construction.
//!
//! [`CsrBuilder`](crate::CsrBuilder) costs 4 bytes per edge when edges
//! arrive grouped by ascending source, but 12 at its peak for any other
//! order, and it needs the whole input at once. [`build_streamed`] costs
//! 4 bytes per edge in any order, for a stream that can be replayed: the
//! caller replays the edge stream twice, the first pass counts degrees,
//! the second scatters adjacency through per-vertex cursors as the edges
//! arrive, so the only transient state is the `O(V)` cursor array the
//! build needs anyway. It needs no edge count in advance and sizes the
//! adjacency exactly, which is why the giant family, whose edge count is
//! known only once its stream has run, is built here.
//!
//! The result is **byte-identical** to `CsrBuilder::build` on the same
//! edge sequence: both keep each source's edges in stream order, and the
//! stream replays in the same order in both passes. A property test pins this across
//! chunk sizes (see `tests` below and `tests/prop_graph.rs`).
//!
//! The stream is any closure that can be driven twice — an in-memory
//! slice, a deterministic generator (see [`crate::gen::giant()`]), or a
//! file parser that reopens its input per pass:
//!
//! ```no_run
//! use ptq_graph::stream::{build_streamed, DEFAULT_CHUNK_EDGES};
//!
//! let path = "graph.edges";
//! let graph = build_streamed(1_000_000, DEFAULT_CHUNK_EDGES, |emit| {
//!     // Reopen and re-parse the file on each pass.
//!     let text = std::fs::read_to_string(path).unwrap();
//!     for line in text.lines() {
//!         let mut it = line.split_whitespace();
//!         let src: u32 = it.next().unwrap().parse().unwrap();
//!         let dst: u32 = it.next().unwrap().parse().unwrap();
//!         emit(src, dst);
//!     }
//! });
//! # let _ = graph;
//! ```

use crate::csr::{csr_offset, Csr, VertexId};

/// Default fill-pass buffering bound: 1M edges (8 MiB of pairs were it
/// ever buffered) — kept as the conventional value callers pass for
/// `chunk_edges`.
pub const DEFAULT_CHUNK_EDGES: usize = 1 << 20;

/// Builds a CSR graph from an edge stream replayed twice, buffering at
/// most `chunk_edges` edges at a time during the fill pass (the current
/// implementation scatters in place and buffers none — the parameter is
/// the contract's ceiling, and the output is identical for any value).
///
/// `replay` is invoked exactly twice and must emit the *same* edge
/// sequence both times (same edges, same order); divergence is detected
/// and panics rather than producing a silently wrong graph. Self-loops
/// and parallel edges are allowed, exactly as in `CsrBuilder`.
///
/// # Panics
/// Panics if `chunk_edges` is zero, if an edge endpoint is out of range,
/// if the total edge count exceeds `u32::MAX` (CSR offsets are 32-bit),
/// or if the two passes disagree.
pub fn build_streamed<F>(num_vertices: usize, chunk_edges: usize, mut replay: F) -> Csr
where
    F: FnMut(&mut dyn FnMut(VertexId, VertexId)),
{
    assert!(chunk_edges > 0, "chunk_edges must be positive");
    let n = num_vertices;

    // Pass 1: count degrees. Totals are accumulated in u64 so an
    // over-long stream is reported as "too many edges", not as a silent
    // u32 wrap.
    let mut counts = vec![0u32; n + 1];
    let mut total: u64 = 0;
    replay(&mut |src, dst| {
        assert!(
            (src as usize) < n && (dst as usize) < n,
            "edge ({src}, {dst}) out of range for {n} vertices"
        );
        counts[src as usize + 1] += 1;
        total += 1;
    });
    let total = csr_offset(total) as usize;

    // Exclusive prefix sum — the same loop as `CsrBuilder::build`'s
    // counting sort, so the offsets (and therefore the stable scatter
    // below) match it exactly.
    for i in 0..n {
        counts[i + 1] += counts[i];
    }
    let row_offsets = counts.clone();
    let mut cursor = counts;
    let mut adjacency = vec![0u32; total];

    // Pass 2: replay the identical stream and scatter each edge through
    // the per-vertex cursors as it arrives. The scatter is stable and
    // sees the stream in the same order as an in-memory counting sort
    // would, so `adjacency` comes out byte-identical for *any*
    // `chunk_edges`. Profiling the giant pipeline showed an
    // intermediate chunk buffer here is pure overhead — an 8-byte copy
    // plus a flush branch per edge with nothing to amortize (the
    // scatter is one random write per edge either way) — so
    // `chunk_edges` survives only as the API's upper bound on transient
    // buffering; the implementation buffers nothing.
    let mut filled = 0usize;
    replay(&mut |src, dst| {
        filled += 1;
        let slot = cursor[src as usize];
        debug_assert!(
            slot < row_offsets[src as usize + 1],
            "edge stream changed between passes (vertex {src} overfilled)"
        );
        adjacency[slot as usize] = dst;
        cursor[src as usize] = slot + 1;
    });

    assert_eq!(
        filled, total,
        "edge stream changed between passes (edge count)"
    );
    assert!(
        cursor[..n] == row_offsets[1..],
        "edge stream changed between passes (per-vertex degrees)"
    );
    Csr::from_parts(row_offsets, adjacency)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::CsrBuilder;
    use crate::rng::SplitMix64;

    /// Replays a slice as an edge stream.
    fn replay_slice<'a>(
        edges: &'a [(u32, u32)],
    ) -> impl FnMut(&mut dyn FnMut(VertexId, VertexId)) + 'a {
        move |emit| {
            for &(s, d) in edges {
                emit(s, d);
            }
        }
    }

    fn reference(n: usize, edges: &[(u32, u32)]) -> Csr {
        let mut b = CsrBuilder::with_capacity(n, edges.len());
        for &(s, d) in edges {
            b.add_edge(s, d);
        }
        b.build()
    }

    #[test]
    fn matches_in_memory_builder_across_chunk_sizes() {
        // Random multigraph with self-loops, parallel edges, and empty
        // vertices (n is larger than the number of distinct sources).
        let mut rng = SplitMix64::seed_from_u64(0xC5A);
        let n = 97;
        let edges: Vec<(u32, u32)> = (0..1013)
            .map(|_| (rng.range_u32(0, 50), rng.range_u32(0, n as u32)))
            .collect();
        let want = reference(n, &edges);
        for chunk in [1usize, 7, 1013, 4096, usize::MAX >> 1] {
            let got = build_streamed(n, chunk, replay_slice(&edges));
            assert_eq!(got.row_offsets(), want.row_offsets(), "chunk={chunk}");
            assert_eq!(got.adjacency(), want.adjacency(), "chunk={chunk}");
        }
    }

    #[test]
    fn empty_graph_and_empty_stream() {
        let g = build_streamed(0, 8, |_emit| {});
        assert_eq!(g.num_vertices(), 0);
        let g = build_streamed(5, 8, |_emit| {});
        assert_eq!(g.num_vertices(), 5);
        assert_eq!(g.num_edges(), 0);
    }

    #[test]
    fn self_loops_and_insertion_order_preserved() {
        let edges = [(0, 0), (0, 2), (0, 1), (2, 2)];
        let g = build_streamed(3, 2, replay_slice(&edges));
        assert_eq!(g.neighbors(0), &[0, 2, 1]);
        assert_eq!(g.neighbors(2), &[2]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_out_of_range_edges() {
        let edges = [(0, 3)];
        let _ = build_streamed(3, 8, replay_slice(&edges));
    }

    #[test]
    #[should_panic(expected = "changed between passes")]
    fn detects_nondeterministic_streams() {
        let mut pass = 0;
        let _ = build_streamed(4, 8, move |emit| {
            pass += 1;
            emit(0, 1);
            if pass == 1 {
                emit(1, 2); // edge missing from the fill pass
            }
        });
    }
}
