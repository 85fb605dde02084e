//! Compressed Sparse Row (CSR) graph storage.
//!
//! The persistent-thread BFS kernels address the graph exactly the way the
//! paper's OpenCL kernels do (`Nodes[i].StartingEdgeIndex`, `Edges[e]`), so
//! CSR is the natural representation: a row-offset array (`Nodes`) and a
//! flat adjacency array (`Edges`). Vertex ids and edge offsets are `u32` —
//! the largest dataset in the paper (soc-LiveJournal1, 69M edges) fits
//! comfortably, and halving index width matters on a GPU.

use std::fmt;
use std::sync::Arc;

/// Vertex identifier. `u32` matches the paper's task-token payload width.
pub type VertexId = u32;

/// An immutable directed graph in CSR form.
///
/// `row_offsets` has `n + 1` entries; the out-neighbours of vertex `v` are
/// `adjacency[row_offsets[v] as usize .. row_offsets[v + 1] as usize]`.
///
/// Both arrays sit behind an `Arc`, moved in without a copy: simulated
/// device memory maps them read-only in place of an upload, and a clone
/// shares them.
#[derive(Clone, PartialEq, Eq)]
pub struct Csr {
    row_offsets: Arc<Vec<u32>>,
    adjacency: Arc<Vec<VertexId>>,
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
            row_offsets: Arc::new(row_offsets),
            adjacency: Arc::new(adjacency),
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
            row_offsets: Arc::new(row_offsets),
            adjacency: Arc::new(adjacency),
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

    /// The raw row-offset array (`n + 1` entries): the device `Nodes`
    /// buffer, which simulated device memory maps read-only from
    /// [`Csr::shared_row_offsets`] rather than copying.
    #[inline]
    pub fn row_offsets(&self) -> &[u32] {
        &self.row_offsets
    }

    /// The raw adjacency array — the device `Edges` buffer, mapped from
    /// [`Csr::shared_adjacency`].
    #[inline]
    pub fn adjacency(&self) -> &[VertexId] {
        &self.adjacency
    }

    /// A shared handle on the row-offset array, for mapping it into
    /// simulated device memory without a copy.
    pub fn shared_row_offsets(&self) -> Arc<Vec<u32>> {
        Arc::clone(&self.row_offsets)
    }

    /// A shared handle on the adjacency array (see
    /// [`Csr::shared_row_offsets`]).
    pub fn shared_adjacency(&self) -> Arc<Vec<VertexId>> {
        Arc::clone(&self.adjacency)
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

/// Converts an edge count into a CSR row offset.
///
/// # Panics
/// Panics if `edges` exceeds `u32::MAX`: CSR offsets are 32-bit.
pub(crate) fn csr_offset(edges: u64) -> u32 {
    u32::try_from(edges).unwrap_or_else(|_| panic!("edge count {edges} exceeds u32 CSR offsets"))
}

/// Incremental CSR construction from an edge stream.
///
/// Which path a build takes is decided by the order the edges arrive in,
/// never by an option, and both paths return the same graph:
///
/// * **Grouped by ascending source** — what the synthetic, social, Rodinia
///   and roadmap generators and the giant stream emit. The builder keeps
///   each edge's target (4 bytes per edge) and one row start per source,
///   and [`CsrBuilder::build`] hands the two arrays back as the CSR, with
///   no scatter and no copy.
/// * **Any other order** — `erdos_renyi`, SNAP and DIMACS files not sorted
///   by source, arbitrary input. At the first edge whose source is lower
///   than the one before, the builder writes out the source of every edge
///   seen so far and from then on keeps `(src, dst)` side by side (8 bytes
///   per edge); `build` counting-sorts them by source into a fresh
///   adjacency array, `O(V + E)` with no comparison sort, 12 bytes per
///   edge at its peak.
///
/// Either way, edges of one source keep their insertion order, and 4
/// bytes per vertex hold the row offsets. Building 8 Mi in-order edges
/// raises peak resident memory by 4.5 bytes per edge, against 13 when
/// every input was sorted (`tests/graph_footprint.rs`). Peak resident
/// memory of `Dataset::build(1.0)` fell from 845 to 302 MiB for
/// soc-LiveJournal1 (69 M edges, a 281 MiB CSR) and from 842 to 313 MiB
/// for USA-road-d.USA (57 M edges, 311 MiB) when the in-order path
/// replaced the sort.
///
/// ```
/// use ptq_graph::CsrBuilder;
///
/// let mut b = CsrBuilder::new(3);
/// b.add_edge(0, 2);
/// b.add_edge(0, 1);
/// b.add_undirected_edge(1, 2); // 2 -> 1 arrives after 1 -> 2: in order
/// let g = b.build();
/// assert_eq!(g.neighbors(0), &[2, 1]); // insertion order kept
/// assert_eq!(g.degree(1), 1);
/// assert_eq!(g.num_edges(), 4);
/// ```
#[derive(Clone, Debug, Default)]
pub struct CsrBuilder {
    num_vertices: usize,
    /// Every edge's target, in arrival order.
    targets: Vec<VertexId>,
    sources: Sources,
}

/// Where the sources of a [`CsrBuilder`]'s edges are kept.
#[derive(Clone, Debug)]
enum Sources {
    /// Sources have arrived in ascending order: entry `v` is the index in
    /// `targets` of `v`'s first edge, for every `v` up to the last source.
    Ordered(Vec<u32>),
    /// A source arrived out of order: each edge's source, beside its
    /// target.
    Listed(Vec<VertexId>),
}

impl Default for Sources {
    fn default() -> Self {
        Sources::Ordered(Vec::new())
    }
}

impl CsrBuilder {
    /// Creates a builder for a graph with `num_vertices` vertices.
    pub fn new(num_vertices: usize) -> Self {
        Self {
            num_vertices,
            ..Self::default()
        }
    }

    /// Creates a builder and pre-reserves space for `num_edges` edges.
    pub fn with_capacity(num_vertices: usize, num_edges: usize) -> Self {
        Self {
            num_vertices,
            targets: Vec::with_capacity(num_edges),
            ..Self::default()
        }
    }

    /// Number of vertices the finished graph will have.
    pub fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    /// Number of edges added so far.
    pub fn num_edges(&self) -> usize {
        self.targets.len()
    }

    /// Adds the directed edge `src -> dst`.
    ///
    /// # Panics
    /// Panics if either endpoint is out of range, or if the edges so far
    /// exceed `u32::MAX` when a new source starts.
    pub fn add_edge(&mut self, src: VertexId, dst: VertexId) {
        assert!(
            (src as usize) < self.num_vertices && (dst as usize) < self.num_vertices,
            "edge ({src}, {dst}) out of range for {} vertices",
            self.num_vertices
        );
        let src_index = src as usize;
        if let Sources::Ordered(starts) = &mut self.sources {
            if src_index >= starts.len() {
                // A new source: its row, and the empty rows of every
                // vertex skipped on the way, start here.
                let start = csr_offset(self.targets.len() as u64);
                starts.resize(src_index + 1, start);
            } else if src_index + 1 < starts.len() {
                let (edges, capacity) = (self.targets.len(), self.targets.capacity());
                self.sources = Sources::Listed(list_sources(starts, edges, capacity));
            }
        }
        if let Sources::Listed(sources) = &mut self.sources {
            sources.push(src);
        }
        self.targets.push(dst);
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
    /// order on either path (the counting sort is stable), so generators
    /// produce deterministic adjacency layouts.
    ///
    /// # Panics
    /// Panics if the edge count exceeds `u32::MAX` (CSR offsets are
    /// 32-bit).
    pub fn build(self) -> Csr {
        let n = self.num_vertices;
        let end = csr_offset(self.targets.len() as u64);
        match self.sources {
            Sources::Ordered(mut row_offsets) => {
                row_offsets.resize(n + 1, end);
                Csr {
                    row_offsets: Arc::new(row_offsets),
                    adjacency: Arc::new(self.targets),
                }
            }
            Sources::Listed(sources) => sort_by_source(n, &sources, &self.targets),
        }
    }
}

/// The source of each of the first `edges` edges, as `starts` places
/// them, in a list with room for `capacity` edges.
fn list_sources(starts: &[u32], edges: usize, capacity: usize) -> Vec<VertexId> {
    let mut sources = Vec::with_capacity(capacity);
    for (v, &start) in starts.iter().enumerate() {
        debug_assert_eq!(start as usize, sources.len());
        let end = starts.get(v + 1).map_or(edges, |&e| e as usize);
        sources.resize(end, v as VertexId);
    }
    sources
}

/// Stable counting sort of the edges `(sources[i], targets[i])` by source
/// into a CSR over `n` vertices.
fn sort_by_source(n: usize, sources: &[VertexId], targets: &[VertexId]) -> Csr {
    let mut counts = vec![0u32; n + 1];
    for &src in sources {
        counts[src as usize + 1] += 1;
    }
    for i in 0..n {
        counts[i + 1] += counts[i];
    }
    let row_offsets = counts.clone();
    let mut cursor = counts;
    let mut adjacency = vec![0u32; targets.len()];
    for (&src, &dst) in sources.iter().zip(targets) {
        let slot = &mut cursor[src as usize];
        adjacency[*slot as usize] = dst;
        *slot += 1;
    }
    Csr {
        row_offsets: Arc::new(row_offsets),
        adjacency: Arc::new(adjacency),
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
    fn csr_offset_takes_u32_max_edges() {
        assert_eq!(csr_offset(u64::from(u32::MAX)), u32::MAX);
    }

    #[test]
    #[should_panic(expected = "exceeds u32 CSR offsets")]
    fn csr_offset_rejects_u32_max_plus_one() {
        let _ = csr_offset(u64::from(u32::MAX) + 1);
    }

    #[test]
    fn out_of_order_source_sorts_to_the_same_layout() {
        // Sources 0, 2, 2 arrive in order (1 is skipped), then 1 and 0
        // arrive late; vertex 4 never appears.
        let mut b = CsrBuilder::new(5);
        for (src, dst) in [(0, 1), (2, 0), (2, 3), (1, 2), (0, 4), (2, 2)] {
            b.add_edge(src, dst);
        }
        assert_eq!(b.num_edges(), 6);
        let g = b.build();
        assert_eq!(g.row_offsets(), &[0, 2, 3, 6, 6, 6]);
        assert_eq!(g.adjacency(), &[1, 4, 2, 0, 3, 2]);
    }

    #[test]
    fn skipped_and_trailing_sources_get_empty_rows() {
        let mut b = CsrBuilder::new(3);
        b.add_edge(1, 0);
        b.add_edge(1, 2);
        b.ensure_vertices(5);
        b.add_edge(3, 4);
        let g = b.build();
        assert_eq!(g.row_offsets(), &[0, 0, 2, 2, 3, 3]);
        assert_eq!(g.adjacency(), &[0, 2, 4]);
        assert_eq!(CsrBuilder::new(2).build().row_offsets(), &[0, 0, 0]);
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
