//! Randomized property tests on the graph substrate: CSR invariants, BFS
//! level properties, generator determinism, and file-format round trips.
//!
//! Each property runs as a seeded loop over a `SplitMix64` stream —
//! deterministic across runs and platforms, with the failing case
//! identified by its iteration index.

use ptq::graph::build_streamed;
use ptq::graph::gen::{
    erdos_renyi, for_each_giant_edge, giant_with_chunk, roadmap, rodinia, social, synthetic_tree,
    RoadmapParams, SocialParams,
};
use ptq::graph::io::{dimacs, rodinia as rodinia_io, snap};
use ptq::graph::rng::SplitMix64;
use ptq::graph::{bfs_levels, Csr, CsrBuilder, Dataset, UNREACHED};
use std::io::Cursor;

const CASES: usize = 64;

fn random_edges(rng: &mut SplitMix64, n: usize, max_edges: usize) -> Vec<(u32, u32)> {
    let m = rng.range_u64(0, max_edges as u64 + 1) as usize;
    (0..m)
        .map(|_| (rng.range_u32(0, n as u32), rng.range_u32(0, n as u32)))
        .collect()
}

fn graph_of(n: usize, edges: &[(u32, u32)]) -> Csr {
    let mut b = CsrBuilder::new(n);
    for &(a, x) in edges {
        b.add_edge(a % n as u32, x % n as u32);
    }
    b.build()
}

/// The CSR a stable sort of `edges` by source gives, over `n` vertices.
fn sorted_reference(n: usize, edges: &[(u32, u32)]) -> Csr {
    let mut sorted = edges.to_vec();
    sorted.sort_by_key(|&(src, _)| src);
    let mut row_offsets = vec![0u32; n + 1];
    for &(src, _) in &sorted {
        row_offsets[src as usize + 1] += 1;
    }
    for v in 0..n {
        row_offsets[v + 1] += row_offsets[v];
    }
    let adjacency = sorted.iter().map(|&(_, dst)| dst).collect();
    Csr::from_parts_checked(row_offsets, adjacency).unwrap()
}

/// `edges` through `CsrBuilder`, sized to the vertices the edges touch
/// and grown to `n` by `ensure_vertices` after the last edge.
fn grown_after_edges(n: usize, edges: &[(u32, u32)]) -> Csr {
    let touched = edges
        .iter()
        .map(|&(src, dst)| src.max(dst) as usize + 1)
        .max()
        .unwrap_or(0);
    let mut builder = CsrBuilder::new(touched);
    for &(src, dst) in edges {
        builder.add_edge(src, dst);
    }
    builder.ensure_vertices(n);
    builder.build()
}

/// Edge streams over `n` vertices in each order `CsrBuilder` tells apart:
/// random; grouped by ascending source; grouped but for one edge placed
/// late at a random point; grouped over the lower half of the vertices
/// only, so the trailing ones stay isolated; and no edges at all.
fn edge_orders(
    rng: &mut SplitMix64,
    n: usize,
    max_edges: usize,
) -> [(&'static str, Vec<(u32, u32)>); 5] {
    let random = random_edges(rng, n, max_edges);
    let mut sorted = random_edges(rng, n, max_edges);
    sorted.sort_by_key(|&(src, _)| src);
    let mut late = sorted.clone();
    let after_nonzero: Vec<usize> = (1..=late.len()).filter(|&i| late[i - 1].0 > 0).collect();
    if !after_nonzero.is_empty() {
        let at = after_nonzero[rng.range_u64(0, after_nonzero.len() as u64) as usize];
        let src = rng.range_u32(0, late[at - 1].0);
        late.insert(at, (src, rng.range_u32(0, n as u32)));
    }
    let half = (n as u32).div_ceil(2);
    let mut lower: Vec<(u32, u32)> = random_edges(rng, n, max_edges)
        .into_iter()
        .map(|(src, dst)| (src % half, dst))
        .collect();
    lower.sort_by_key(|&(src, _)| src);
    [
        ("random", random),
        ("sorted", sorted),
        ("one late edge", late),
        ("trailing isolated", lower),
        ("empty", Vec::new()),
    ]
}

/// The CSR builder preserves the edge multiset and per-source order, and
/// equals the streamed builder and a stable sort by source, whichever
/// order the edges arrive in and whenever the vertex count is settled.
#[test]
fn csr_builder_preserves_edges() {
    let mut rng = SplitMix64::seed_from_u64(0xC5_B11D);
    for case in 0..CASES {
        let n = rng.range_u64(1, 60) as usize;
        for (order, edges) in edge_orders(&mut rng, n, 200) {
            let what = format!("case {case} {order}");
            let mut builder = CsrBuilder::new(n);
            for &(a, b) in &edges {
                builder.add_edge(a, b);
            }
            assert_eq!(builder.num_edges(), edges.len(), "{what}");
            let g = builder.build();
            assert_eq!(g.num_vertices(), n, "{what}");
            assert_eq!(g.num_edges(), edges.len(), "{what}");
            // Per-source insertion order is preserved.
            for v in 0..n as u32 {
                let expect: Vec<u32> = edges
                    .iter()
                    .filter(|(a, _)| *a == v)
                    .map(|&(_, b)| b)
                    .collect();
                assert_eq!(g.neighbors(v), &expect[..], "{what} vertex {v}");
            }
            // Offsets are consistent with degrees.
            let total: u32 = (0..n as u32).map(|v| g.degree(v)).sum();
            assert_eq!(total as usize, g.num_edges(), "{what}");
            assert_eq!(g, sorted_reference(n, &edges), "{what}");
            assert_eq!(g, grown_after_edges(n, &edges), "{what} grown");
            let streamed = build_streamed(n, 7, |emit| {
                for &(a, b) in &edges {
                    emit(a, b);
                }
            });
            assert_eq!(g, streamed, "{what} streamed");
        }
    }
    // No vertices at all.
    assert_eq!(CsrBuilder::new(0).build(), sorted_reference(0, &[]));
}

/// BFS levels satisfy the defining property: level(source) = 0, and every
/// edge (u, v) with u reached implies level(v) <= level(u) + 1, with at
/// least one incoming edge achieving equality for v != source.
#[test]
fn bfs_levels_are_valid_distances() {
    let mut rng = SplitMix64::seed_from_u64(0xBF5_1E7E);
    for case in 0..CASES {
        let n = rng.range_u64(1, 80) as usize;
        let edges = random_edges(&mut rng, n, 240);
        let src = rng.range_u32(0, n as u32);
        let g = graph_of(n, &edges);
        let r = bfs_levels(&g, src);
        assert_eq!(r.levels[src as usize], 0, "case {case}");
        for u in 0..n as u32 {
            if r.levels[u as usize] == UNREACHED {
                continue;
            }
            for &v in g.neighbors(u) {
                assert!(
                    r.levels[v as usize] <= r.levels[u as usize] + 1,
                    "case {case}: edge {u}->{v} violates triangle"
                );
            }
        }
        for v in 0..n as u32 {
            let lv = r.levels[v as usize];
            if lv != UNREACHED && lv > 0 {
                // some predecessor at exactly lv - 1
                let has_pred = (0..n as u32)
                    .any(|u| r.levels[u as usize] == lv - 1 && g.neighbors(u).contains(&v));
                assert!(
                    has_pred,
                    "case {case}: vertex {v} at level {lv} lacks a predecessor"
                );
            }
        }
    }
}

/// All generators are deterministic functions of their parameters.
#[test]
fn generators_are_deterministic() {
    let mut rng = SplitMix64::seed_from_u64(0x00DE_7E12);
    for _ in 0..24 {
        let seed = rng.range_u64(0, 500);
        assert_eq!(erdos_renyi(40, 120, seed), erdos_renyi(40, 120, seed));
        assert_eq!(rodinia(50, 6, seed), rodinia(50, 6, seed));
        let sp = SocialParams {
            vertices: 60,
            avg_degree: 5.0,
            alpha: 1.8,
            max_degree: 30,
            seed,
        };
        assert_eq!(social(sp), social(sp));
        let rp = RoadmapParams {
            rows: 8,
            cols: 9,
            keep_prob: 0.5,
            seed,
        };
        assert_eq!(roadmap(rp), roadmap(rp));
    }
}

/// The tree generator always yields a connected tree with n-1 edges.
#[test]
fn tree_invariants() {
    let mut rng = SplitMix64::seed_from_u64(0x7BEE);
    for case in 0..CASES {
        let n = rng.range_u64(1, 5000) as usize;
        let fanout = rng.range_u32(1, 8);
        let g = synthetic_tree(n, fanout);
        assert_eq!(g.num_vertices(), n, "case {case}");
        assert_eq!(g.num_edges(), n - 1, "case {case}");
        assert_eq!(bfs_levels(&g, 0).reached, n, "case {case}");
    }
}

/// DIMACS round trip is lossless for arbitrary graphs.
#[test]
fn dimacs_roundtrip() {
    let mut rng = SplitMix64::seed_from_u64(0xD1_AC5);
    for case in 0..CASES {
        let n = rng.range_u64(1, 40) as usize;
        let edges = random_edges(&mut rng, n, 120);
        let g = graph_of(n, &edges);
        let mut buf = Vec::new();
        dimacs::write_gr(&g, &mut buf).unwrap();
        assert_eq!(dimacs::read_gr(Cursor::new(buf)).unwrap(), g, "case {case}");
    }
}

/// Rodinia-format round trip is lossless.
#[test]
fn rodinia_roundtrip() {
    let mut rng = SplitMix64::seed_from_u64(0x000D_1A10);
    for case in 0..CASES {
        let n = rng.range_u64(1, 40) as usize;
        let edges = random_edges(&mut rng, n, 120);
        let src = rng.range_u32(0, n as u32);
        let g = graph_of(n, &edges);
        let mut buf = Vec::new();
        rodinia_io::write_rodinia(&g, src, &mut buf).unwrap();
        let (g2, s2) = rodinia_io::read_rodinia(Cursor::new(buf)).unwrap();
        assert_eq!(g2, g, "case {case}");
        assert_eq!(s2, src, "case {case}");
    }
}

/// SNAP round trip preserves the degree multiset (ids may be renumbered
/// and isolated vertices dropped by the format).
#[test]
fn snap_roundtrip_preserves_degrees() {
    let mut rng = SplitMix64::seed_from_u64(0x5A_A9);
    for case in 0..CASES {
        let n = rng.range_u64(1, 40) as usize;
        let edges = random_edges(&mut rng, n, 120);
        let g = graph_of(n, &edges);
        let mut buf = Vec::new();
        snap::write_edge_list(&g, &mut buf).unwrap();
        let (g2, _) = snap::read_edge_list(Cursor::new(buf)).unwrap();
        assert_eq!(g2.num_edges(), g.num_edges(), "case {case}");
        let degrees = |g: &Csr| {
            let mut d: Vec<u32> = (0..g.num_vertices() as u32)
                .map(|v| g.degree(v))
                .filter(|&d| d > 0)
                .collect();
            d.sort_unstable();
            d
        };
        // Out-degree multiset of non-isolated sources is preserved...
        // except vertices that appear only as destinations, which exist in
        // both graphs with degree zero and are filtered out.
        assert_eq!(degrees(&g2), degrees(&g), "case {case}");
    }
}

/// The chunked streamed builder is byte-identical to the in-memory
/// `CsrBuilder` and to a stable sort by source across chunk sizes
/// {1, 7, 4096, ≥edge-count}, on random multigraphs that include
/// self-loops, parallel edges, and empty vertices, on each order of
/// `edge_orders` — and on the catalogue's giant family,
/// the graph `repro giant` traverses, whose `Dataset::Giant` build must
/// be those same bytes.
#[test]
fn streamed_builder_matches_in_memory_builder() {
    let check = |n: usize, edges: &[(u32, u32)], what: &str| -> Csr {
        let mut builder = CsrBuilder::new(n);
        for &(a, b) in edges {
            builder.add_edge(a, b);
        }
        let reference = builder.build();
        assert_eq!(reference, sorted_reference(n, edges), "{what} sort");
        assert_eq!(reference, grown_after_edges(n, edges), "{what} grown");
        for chunk in [1usize, 7, 4096, edges.len().max(1)] {
            let streamed = build_streamed(n, chunk, |emit| {
                for &(a, b) in edges {
                    emit(a, b);
                }
            });
            assert_eq!(streamed, reference, "{what} chunk {chunk}");
        }
        reference
    };
    let mut rng = SplitMix64::seed_from_u64(0x57_2EA3);
    for case in 0..CASES {
        let n = rng.range_u64(1, 80) as usize;
        let mut edges = random_edges(&mut rng, n, 300);
        // Force the edge cases the satellite names: a self-loop plus a
        // guaranteed-empty vertex (no outgoing edges from n-1).
        if n > 1 {
            edges.retain(|&(a, _)| a != n as u32 - 1);
            edges.push((0, 0));
        }
        check(n, &edges, &format!("case {case}"));
    }
    let mut rng = SplitMix64::seed_from_u64(0x50_27ED);
    for case in 0..CASES {
        let n = rng.range_u64(1, 80) as usize;
        for (order, edges) in edge_orders(&mut rng, n, 300) {
            check(n, &edges, &format!("case {case} {order}"));
        }
    }
    // 0.00025 of the catalogue's 2^24 vertices; 7 / 0x61A7 are its
    // giant-family parameters.
    let catalogue = Dataset::Giant.build(0.00025);
    let n = catalogue.num_vertices();
    assert_eq!(n, 4194);
    let mut edges = Vec::new();
    for_each_giant_edge(n, 7, 0x61A7, &mut |s, d| edges.push((s, d)));
    assert_eq!(check(n, &edges, "giant"), catalogue);
}

/// The giant family is chunk-independent: any chunk size streams to the
/// same bytes the in-memory builder produces from the same edge stream.
#[test]
fn giant_family_is_chunk_independent() {
    let n = 2_500;
    let mut builder = CsrBuilder::new(n);
    for_each_giant_edge(n, 5, 0xB165, &mut |s, d| builder.add_edge(s, d));
    let reference = builder.build();
    for chunk in [1usize, 7, 4096, reference.num_edges().max(1)] {
        assert_eq!(
            giant_with_chunk(n, 5, 0xB165, chunk),
            reference,
            "chunk {chunk}"
        );
    }
}
