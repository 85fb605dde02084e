//! Roadmap graph generator (DIMACS substitutes — paper Table 2, Fig 3d-f).
//!
//! The 9th-DIMACS road networks the paper uses are planar-ish graphs with
//! fanout between 2 and 3 (std < 1) and *enormous* BFS depth — the USA
//! graph is thousands of levels deep. That depth is what starves the
//! persistent threads: "Only the USA dataset saturates the Spectre … Thus,
//! insufficient data parallelism is a limiting factor in this category."
//!
//! A perturbed 2-D lattice reproduces this exactly: an `r × c` grid with
//! 4-neighbour connectivity has average degree just under 4; randomly
//! deleting a fraction of edges brings the mean into the observed 2.4–2.8
//! band with std ≈ 0.95, and BFS depth from a corner is `Θ(r + c)` — deep
//! and narrow, with level width growing only linearly (the diamond-shaped
//! wavefront of Figure 3d-f).

use crate::csr::{Csr, CsrBuilder, VertexId};
use crate::rng::SplitMix64;

/// Tuning knobs for [`roadmap`].
#[derive(Clone, Copy, Debug)]
pub struct RoadmapParams {
    /// Grid rows.
    pub rows: usize,
    /// Grid columns.
    pub cols: usize,
    /// Probability of *keeping* each undirected lattice edge. 1.0 gives
    /// avg degree ≈ 4; the DIMACS band (2.4–2.8) needs 0.6–0.72.
    pub keep_prob: f64,
    /// RNG seed.
    pub seed: u64,
}

/// Generates a perturbed-lattice road network (undirected: every kept edge
/// is stored in both directions, matching the DIMACS `.gr` files which list
/// each road segment twice).
///
/// To keep the graph connected despite deletions — road networks are
/// connected — a random spanning-tree skeleton (serpentine path through the
/// grid) is always kept; `keep_prob` applies to the remaining edges only.
///
/// # Panics
/// Panics if either dimension is zero or `keep_prob` is outside `[0, 1]`.
pub fn roadmap(params: RoadmapParams) -> Csr {
    let RoadmapParams {
        rows,
        cols,
        keep_prob,
        seed,
    } = params;
    assert!(rows > 0 && cols > 0, "grid must be non-empty");
    assert!(
        (0.0..=1.0).contains(&keep_prob),
        "keep_prob must be a probability"
    );
    let n = rows
        .checked_mul(cols)
        .expect("grid too large for usize arithmetic");
    assert!(n <= u32::MAX as usize, "grid exceeds u32 vertex ids");

    let mut rng = SplitMix64::seed_from_u64(seed ^ 0x0add_0add_0add_0add);
    let id = |r: usize, c: usize| (r * cols + c) as VertexId;
    let mut b = CsrBuilder::with_capacity(n, 4 * n);

    // Each vertex emits its edges up, left, right, down, so sources
    // arrive in ascending order. `up` holds which verticals the row above
    // kept, `down` which ones this row keeps: the serpentine skeleton
    // keeps the turn column's, and every other column draws from `rng`,
    // row by row and left to right.
    let mut up = vec![false; cols];
    let mut down = vec![false; cols];
    for r in 0..rows {
        if r + 1 < rows {
            let turn_col = if r % 2 == 0 { cols - 1 } else { 0 };
            for (c, keep) in down.iter_mut().enumerate() {
                *keep = c == turn_col || rng.gen_bool(keep_prob);
            }
        } else {
            down.fill(false);
        }
        for c in 0..cols {
            let v = id(r, c);
            if up[c] {
                b.add_edge(v, id(r - 1, c));
            }
            // Row-internal edges are the skeleton: always kept.
            if c > 0 {
                b.add_edge(v, id(r, c - 1));
            }
            if c + 1 < cols {
                b.add_edge(v, id(r, c + 1));
            }
            if down[c] {
                b.add_edge(v, id(r + 1, c));
            }
        }
        std::mem::swap(&mut up, &mut down);
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bfs::bfs_levels;

    /// The generator's earlier form: each undirected edge inserted as a
    /// pair, rows top to bottom, right edge before down edge.
    fn pairwise(params: RoadmapParams) -> Csr {
        let RoadmapParams {
            rows,
            cols,
            keep_prob,
            seed,
        } = params;
        let mut rng = SplitMix64::seed_from_u64(seed ^ 0x0add_0add_0add_0add);
        let id = |r: usize, c: usize| (r * cols + c) as VertexId;
        let mut b = CsrBuilder::new(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                if c + 1 < cols {
                    b.add_undirected_edge(id(r, c), id(r, c + 1));
                }
                if r + 1 < rows {
                    let turn_col = if r % 2 == 0 { cols - 1 } else { 0 };
                    if c == turn_col || rng.gen_bool(keep_prob) {
                        b.add_undirected_edge(id(r, c), id(r + 1, c));
                    }
                }
            }
        }
        b.build()
    }

    #[test]
    fn source_order_matches_pairwise_insertion() {
        for rows in 1..=6 {
            for cols in 1..=6 {
                for keep_prob in [0.0, 0.3, 1.0] {
                    for seed in [0, 42, 0x0a03] {
                        let params = RoadmapParams {
                            rows,
                            cols,
                            keep_prob,
                            seed,
                        };
                        assert_eq!(
                            roadmap(params),
                            pairwise(params),
                            "{rows}x{cols} keep {keep_prob} seed {seed}"
                        );
                    }
                }
            }
        }
    }

    fn grid(rows: usize, cols: usize, keep: f64) -> Csr {
        roadmap(RoadmapParams {
            rows,
            cols,
            keep_prob: keep,
            seed: 42,
        })
    }

    #[test]
    fn full_lattice_degree_stats() {
        let g = grid(50, 50, 1.0);
        let s = g.degree_stats();
        assert_eq!(s.max, 4);
        assert_eq!(s.min, 2); // corners
        assert!(s.avg > 3.8, "avg {}", s.avg);
    }

    #[test]
    fn perturbed_lattice_matches_dimacs_band() {
        let g = grid(120, 120, 0.45);
        let s = g.degree_stats();
        assert!(
            (2.2..=3.0).contains(&s.avg),
            "avg degree {} outside DIMACS band",
            s.avg
        );
        assert!(s.std < 1.2, "std {} too large for a roadmap", s.std);
        assert!(s.max <= 4);
    }

    #[test]
    fn always_connected() {
        for seed in 0..5 {
            let g = roadmap(RoadmapParams {
                rows: 40,
                cols: 30,
                keep_prob: 0.1,
                seed,
            });
            let r = bfs_levels(&g, 0);
            assert_eq!(r.reached, 1200, "seed {seed} disconnected the grid");
        }
    }

    #[test]
    fn bfs_depth_scales_with_perimeter() {
        let g = grid(64, 64, 0.7);
        let r = bfs_levels(&g, 0);
        // Manhattan distance lower bound: depth >= rows + cols - 2.
        assert!(r.max_level >= 126, "depth {} too shallow", r.max_level);
        // Deleting verticals forces detours, but depth stays O(r*c/..): just
        // check it is far deeper than a social graph of the same size.
        assert!(r.max_level < 4096);
    }

    #[test]
    fn deterministic() {
        assert_eq!(grid(20, 20, 0.6), grid(20, 20, 0.6));
    }

    #[test]
    fn undirectedness() {
        let g = grid(10, 10, 0.5);
        for v in 0..g.num_vertices() as u32 {
            for &w in g.neighbors(v) {
                assert!(g.neighbors(w).contains(&v), "edge {v}->{w} missing reverse");
            }
        }
    }

    #[test]
    fn single_row_is_a_path() {
        let g = grid(1, 9, 0.0);
        let r = bfs_levels(&g, 0);
        assert_eq!(r.max_level, 8);
        assert_eq!(r.reached, 9);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn rejects_empty_grid() {
        let _ = grid(0, 5, 1.0);
    }
}
