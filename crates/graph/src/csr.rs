//! Compressed Sparse Row (CSR) graph storage.
//!
//! The persistent-thread BFS kernels address the graph exactly the way the
//! paper's OpenCL kernels do (`Nodes[i].StartingEdgeIndex`, `Edges[e]`), so
//! CSR is the natural representation: a row-offset array (`Nodes`) and a
//! flat adjacency array (`Edges`). Vertex ids and edge offsets are `u32` —
//! the largest dataset in the paper (soc-LiveJournal1, 69M edges) fits
//! comfortably, and halving index width matters on a GPU.

use std::fmt;

/// Vertex identifier. `u32` matches the paper's task-token payload width.
pub type VertexId = u32;

/// An immutable directed graph in CSR form.
///
/// `row_offsets` has `n + 1` entries; the out-neighbours of vertex `v` are
/// `adjacency[row_offsets[v] as usize .. row_offsets[v + 1] as usize]`.
#[derive(Clone, PartialEq, Eq)]
pub struct Csr {
    row_offsets: Vec<u32>,
    adjacency: Vec<VertexId>,
}

impl fmt::Debug for Csr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Csr")
            .field("vertices", &self.num_vertices())
            .field("edges", &self.num_edges())
            .finish()
    }
}

/// Why a pair of raw CSR arrays was rejected by
/// [`Csr::from_parts_checked`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CsrError {
    /// `row_offsets` was empty (it must hold `n + 1` entries).
    EmptyOffsets,
    /// The final row offset does not equal the adjacency length.
    EdgeCountMismatch {
        /// Value of the last row offset.
        last_offset: u32,
        /// Length of the adjacency array.
        edges: usize,
    },
    /// `row_offsets[at] > row_offsets[at + 1]`.
    NonMonotonic {
        /// Index of the offending offset.
        at: usize,
    },
    /// `adjacency[at]` names a vertex `>= n`.
    TargetOutOfRange {
        /// Index of the offending adjacency entry.
        at: usize,
        /// The out-of-range vertex id.
        target: u32,
    },
}

impl fmt::Display for CsrError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            CsrError::EmptyOffsets => write!(f, "row_offsets must have n+1 entries"),
            CsrError::EdgeCountMismatch { last_offset, edges } => write!(
                f,
                "last row offset ({last_offset}) must equal edge count ({edges})"
            ),
            CsrError::NonMonotonic { at } => {
                write!(f, "row offsets must be non-decreasing (violated at {at})")
            }
            CsrError::TargetOutOfRange { at, target } => {
                write!(f, "adjacency entry {at} out of range (target {target})")
            }
        }
    }
}

impl std::error::Error for CsrError {}

impl Csr {
    /// Builds a CSR graph directly from its two arrays.
    ///
    /// Intended for *trusted* producers (the builders in this crate, whose
    /// construction makes the invariants hold): the O(1) shape checks run
    /// always, but the O(V + E) monotonicity and range scans run only
    /// under `debug_assertions` — on a hundreds-of-millions-of-edges graph
    /// they would otherwise double the cost of construction. Untrusted
    /// input (file parsers, network data) must go through
    /// [`Csr::from_parts_checked`] instead.
    ///
    /// # Panics
    /// Panics if the final offset does not equal `adjacency.len()`; in
    /// debug builds, additionally panics if the offsets are not
    /// monotonically non-decreasing or any adjacency entry is out of
    /// range.
    pub fn from_parts(row_offsets: Vec<u32>, adjacency: Vec<VertexId>) -> Self {
        assert!(!row_offsets.is_empty(), "row_offsets must have n+1 entries");
        assert_eq!(
            *row_offsets.last().unwrap() as usize,
            adjacency.len(),
            "last row offset must equal edge count"
        );
        debug_assert!(
            row_offsets.windows(2).all(|w| w[0] <= w[1]),
            "row offsets must be non-decreasing"
        );
        debug_assert!(
            adjacency
                .iter()
                .all(|&v| (v as usize) < row_offsets.len() - 1),
            "adjacency entry out of range"
        );
        Self {
            row_offsets,
            adjacency,
        }
    }

    /// Fully validated construction from raw arrays, for untrusted input:
    /// every invariant is checked in every build profile, and violations
    /// come back as a structured [`CsrError`] instead of a panic.
    pub fn from_parts_checked(
        row_offsets: Vec<u32>,
        adjacency: Vec<VertexId>,
    ) -> Result<Self, CsrError> {
        if row_offsets.is_empty() {
            return Err(CsrError::EmptyOffsets);
        }
        let last = *row_offsets.last().unwrap();
        if last as usize != adjacency.len() {
            return Err(CsrError::EdgeCountMismatch {
                last_offset: last,
                edges: adjacency.len(),
            });
        }
        if let Some(at) = row_offsets.windows(2).position(|w| w[0] > w[1]) {
            return Err(CsrError::NonMonotonic { at });
        }
        let n = (row_offsets.len() - 1) as u32;
        if let Some(at) = adjacency.iter().position(|&v| v >= n) {
            return Err(CsrError::TargetOutOfRange {
                at,
                target: adjacency[at],
            });
        }
        Ok(Self {
            row_offsets,
            adjacency,
        })
    }

    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.row_offsets.len() - 1
    }

    /// Number of directed edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.adjacency.len()
    }

    /// Out-degree of vertex `v`.
    #[inline]
    pub fn degree(&self, v: VertexId) -> u32 {
        self.row_offsets[v as usize + 1] - self.row_offsets[v as usize]
    }

    /// Offset of the first out-edge of `v` in the adjacency array.
    #[inline]
    pub fn edge_start(&self, v: VertexId) -> u32 {
        self.row_offsets[v as usize]
    }

    /// Out-neighbours of vertex `v`.
    #[inline]
    pub fn neighbors(&self, v: VertexId) -> &[VertexId] {
        let lo = self.row_offsets[v as usize] as usize;
        let hi = self.row_offsets[v as usize + 1] as usize;
        &self.adjacency[lo..hi]
    }

    /// The raw row-offset array (`n + 1` entries). This is what gets copied
    /// into simulated device memory as the `Nodes` buffer.
    #[inline]
    pub fn row_offsets(&self) -> &[u32] {
        &self.row_offsets
    }

    /// The raw adjacency array — the device `Edges` buffer.
    #[inline]
    pub fn adjacency(&self) -> &[VertexId] {
        &self.adjacency
    }

    /// Degree statistics over out-degrees — the `Edges Per Vertex` columns
    /// of the paper's Tables 1 and 2 (min / max / avg / std).
    pub fn degree_stats(&self) -> DegreeStats {
        let n = self.num_vertices();
        if n == 0 {
            return DegreeStats::default();
        }
        let mut min = u32::MAX;
        let mut max = 0u32;
        let mut sum = 0u64;
        let mut sum_sq = 0f64;
        for v in 0..n as u32 {
            let d = self.degree(v);
            min = min.min(d);
            max = max.max(d);
            sum += u64::from(d);
            sum_sq += f64::from(d) * f64::from(d);
        }
        let avg = sum as f64 / n as f64;
        // Population standard deviation, matching how the paper's tables
        // summarize a full dataset rather than a sample.
        let var = (sum_sq / n as f64 - avg * avg).max(0.0);
        DegreeStats {
            min,
            max,
            avg,
            std: var.sqrt(),
        }
    }
}

/// Summary of an out-degree distribution.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct DegreeStats {
    /// Smallest out-degree.
    pub min: u32,
    /// Largest out-degree.
    pub max: u32,
    /// Mean out-degree.
    pub avg: f64,
    /// Population standard deviation of out-degrees.
    pub std: f64,
}

/// Incremental CSR construction from an unsorted edge list.
///
/// Edges are accumulated as `(src, dst)` pairs and counting-sorted by source
/// at [`CsrBuilder::build`] time, which is `O(V + E)` and never touches a
/// comparison sort — important for the 58M-edge USA roadmap.
///
/// ```
/// use ptq_graph::CsrBuilder;
///
/// let mut b = CsrBuilder::new(3);
/// b.add_edge(0, 2);
/// b.add_edge(0, 1);
/// b.add_undirected_edge(1, 2);
/// let g = b.build();
/// assert_eq!(g.neighbors(0), &[2, 1]); // insertion order kept
/// assert_eq!(g.degree(1), 1);
/// assert_eq!(g.num_edges(), 4);
/// ```
#[derive(Clone, Debug, Default)]
pub struct CsrBuilder {
    num_vertices: usize,
    edges: Vec<(VertexId, VertexId)>,
}

impl CsrBuilder {
    /// Creates a builder for a graph with `num_vertices` vertices.
    pub fn new(num_vertices: usize) -> Self {
        Self {
            num_vertices,
            edges: Vec::new(),
        }
    }

    /// Creates a builder and pre-reserves space for `num_edges` edges.
    pub fn with_capacity(num_vertices: usize, num_edges: usize) -> Self {
        Self {
            num_vertices,
            edges: Vec::with_capacity(num_edges),
        }
    }

    /// Number of vertices the finished graph will have.
    pub fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    /// Number of edges added so far.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Adds the directed edge `src -> dst`.
    ///
    /// # Panics
    /// Panics if either endpoint is out of range.
    pub fn add_edge(&mut self, src: VertexId, dst: VertexId) {
        assert!(
            (src as usize) < self.num_vertices && (dst as usize) < self.num_vertices,
            "edge ({src}, {dst}) out of range for {} vertices",
            self.num_vertices
        );
        self.edges.push((src, dst));
    }

    /// Adds both `a -> b` and `b -> a`.
    pub fn add_undirected_edge(&mut self, a: VertexId, b: VertexId) {
        self.add_edge(a, b);
        self.add_edge(b, a);
    }

    /// Grows the vertex count (never shrinks).
    pub fn ensure_vertices(&mut self, n: usize) {
        self.num_vertices = self.num_vertices.max(n);
    }

    /// Finishes construction. Within a source vertex, edges keep insertion
    /// order (the counting sort is stable), so generators produce
    /// deterministic adjacency layouts.
    pub fn build(self) -> Csr {
        let n = self.num_vertices;
        let mut counts = vec![0u32; n + 1];
        for &(src, _) in &self.edges {
            counts[src as usize + 1] += 1;
        }
        for i in 0..n {
            counts[i + 1] += counts[i];
        }
        let row_offsets = counts.clone();
        let mut cursor = counts;
        let mut adjacency = vec![0u32; self.edges.len()];
        for &(src, dst) in &self.edges {
            let slot = cursor[src as usize];
            adjacency[slot as usize] = dst;
            cursor[src as usize] += 1;
        }
        Csr {
            row_offsets,
            adjacency,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> Csr {
        // 0 -> 1, 0 -> 2, 1 -> 3, 2 -> 3
        let mut b = CsrBuilder::new(4);
        b.add_edge(0, 1);
        b.add_edge(0, 2);
        b.add_edge(1, 3);
        b.add_edge(2, 3);
        b.build()
    }

    #[test]
    fn builder_counts_and_offsets() {
        let g = diamond();
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.row_offsets(), &[0, 2, 3, 4, 4]);
    }

    #[test]
    fn neighbors_preserve_insertion_order() {
        let g = diamond();
        assert_eq!(g.neighbors(0), &[1, 2]);
        assert_eq!(g.neighbors(1), &[3]);
        assert_eq!(g.neighbors(3), &[] as &[u32]);
    }

    #[test]
    fn degree_accessors() {
        let g = diamond();
        assert_eq!(g.degree(0), 2);
        assert_eq!(g.degree(3), 0);
        assert_eq!(g.edge_start(1), 2);
    }

    #[test]
    fn degree_stats_match_hand_computation() {
        let g = diamond();
        let s = g.degree_stats();
        assert_eq!(s.min, 0);
        assert_eq!(s.max, 2);
        assert!((s.avg - 1.0).abs() < 1e-12);
        // degrees 2,1,1,0 -> var = (4+1+1+0)/4 - 1 = 0.5
        assert!((s.std - 0.5f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn empty_graph_stats_are_zero() {
        let g = Csr::from_parts(vec![0], vec![]);
        assert_eq!(g.num_vertices(), 0);
        assert_eq!(g.degree_stats(), DegreeStats::default());
    }

    #[test]
    fn undirected_edge_adds_both_directions() {
        let mut b = CsrBuilder::new(2);
        b.add_undirected_edge(0, 1);
        let g = b.build();
        assert_eq!(g.neighbors(0), &[1]);
        assert_eq!(g.neighbors(1), &[0]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn add_edge_rejects_out_of_range() {
        let mut b = CsrBuilder::new(2);
        b.add_edge(0, 2);
    }

    // The O(V + E) scans are debug-only on the trusted path; release
    // builds rely on `from_parts_checked` for untrusted input.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "non-decreasing")]
    fn from_parts_rejects_bad_offsets() {
        let _ = Csr::from_parts(vec![0, 2, 1], vec![0]);
    }

    #[test]
    #[should_panic(expected = "edge count")]
    fn from_parts_rejects_mismatched_lengths() {
        let _ = Csr::from_parts(vec![0, 1], vec![]);
    }

    #[test]
    fn from_parts_checked_accepts_valid_input() {
        let g = Csr::from_parts_checked(vec![0, 2, 3, 4, 4], vec![1, 2, 3, 3]).unwrap();
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.neighbors(0), &[1, 2]);
    }

    #[test]
    fn from_parts_checked_reports_each_violation() {
        assert_eq!(
            Csr::from_parts_checked(vec![], vec![]),
            Err(CsrError::EmptyOffsets)
        );
        assert_eq!(
            Csr::from_parts_checked(vec![0, 1], vec![]),
            Err(CsrError::EdgeCountMismatch {
                last_offset: 1,
                edges: 0
            })
        );
        assert_eq!(
            Csr::from_parts_checked(vec![0, 2, 1], vec![0]),
            Err(CsrError::NonMonotonic { at: 1 })
        );
        assert_eq!(
            Csr::from_parts_checked(vec![0, 1], vec![5]),
            Err(CsrError::TargetOutOfRange { at: 0, target: 5 })
        );
        // Errors format into readable messages.
        assert!(CsrError::NonMonotonic { at: 1 }.to_string().contains("1"));
    }

    #[test]
    fn self_loops_and_parallel_edges_are_allowed() {
        let mut b = CsrBuilder::new(2);
        b.add_edge(0, 0);
        b.add_edge(0, 1);
        b.add_edge(0, 1);
        let g = b.build();
        assert_eq!(g.neighbors(0), &[0, 1, 1]);
    }
}
