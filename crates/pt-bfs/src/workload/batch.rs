//! Multi-query batching: several compatible queries co-scheduled through
//! one persistent-thread launch over one shared CSR.
//!
//! A [`QueryBatch`] of `k` member queries widens the per-token state
//! arrays (values, on-queue bits, spill) from `n` to `k * n` slots and
//! packs `query_id * n + vertex` into every scheduler token. The generic
//! kernel strips the query tag with [`PtWorkload::token_row`] when it
//! reads the shared CSR and re-applies it to every discovered child, so
//! the members' candidates and edge weights serve unchanged and the walk
//! is completely batch-oblivious. Each member's claim lattice
//! is private — confluence therefore holds per member, and slice `i` of
//! the final value array is byte-identical to member `i`'s solo run.
//!
//! Members must be *execution-homogeneous*: same workload type, claim
//! direction, value buffer, edge weights (e.g. one shared SSSP weight
//! array), and candidate derivation. Per-member identity may
//! enter only through [`PtWorkload::initial_values`], `seeds`, and
//! `reference` — which is exactly the shape of a multi-source frontier.
//! The serving layer guarantees this by batching only queries with the
//! same workload kind × dataset × scale.

use super::{Claim, PtWorkload};
use ptq_graph::Csr;
use std::sync::Arc;

/// `k` compatible queries fused into one launch (see module docs).
///
/// Execution hooks (claim, candidate, edge weights) delegate to the
/// first member, so a batch maps shared edge weights exactly once;
/// identity hooks (initial values, seeds, reference) concatenate the
/// members' state, offsetting member `i` by `i * num_vertices`.
#[derive(Clone)]
pub struct QueryBatch<W: PtWorkload> {
    members: Vec<W>,
    num_vertices: usize,
}

impl<W: PtWorkload> QueryBatch<W> {
    /// Fuses `members` (at least one) over a graph of `num_vertices`
    /// vertices.
    ///
    /// # Panics
    /// If `members` is empty or members disagree on name, claim
    /// direction, or value buffer (execution homogeneity).
    pub fn new(members: Vec<W>, num_vertices: usize) -> Self {
        assert!(!members.is_empty(), "a batch needs at least one member");
        let proto = &members[0];
        for m in &members {
            assert_eq!(m.name(), proto.name(), "mixed workload kinds in batch");
            assert_eq!(m.claim(), proto.claim(), "mixed claim directions");
            assert_eq!(
                m.value_buffer_name(),
                proto.value_buffer_name(),
                "mixed value buffers"
            );
        }
        assert!(
            members.len() * num_vertices <= u32::MAX as usize,
            "batched token space must fit in u32"
        );
        QueryBatch {
            members,
            num_vertices,
        }
    }

    /// Number of member queries.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// True iff the batch has no members (unreachable post-construction;
    /// provided for clippy symmetry with [`QueryBatch::len`]).
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// The member workloads.
    pub fn members(&self) -> &[W] {
        &self.members
    }

    /// The member the execution hooks delegate to.
    fn proto(&self) -> &W {
        &self.members[0]
    }

    /// Member `i`'s slice of a batched state array (e.g. the final
    /// values a run produced) — the array member `i`'s solo run would
    /// have produced.
    pub fn member_values<'a>(&self, values: &'a [u32], i: usize) -> &'a [u32] {
        &values[i * self.num_vertices..(i + 1) * self.num_vertices]
    }
}

impl<W: PtWorkload> PtWorkload for QueryBatch<W> {
    fn name(&self) -> &'static str {
        "batch"
    }

    fn claim(&self) -> Claim {
        self.proto().claim()
    }

    fn value_buffer_name(&self) -> &'static str {
        self.proto().value_buffer_name()
    }

    fn initial_values(&self, num_vertices: usize) -> Vec<u32> {
        assert_eq!(
            num_vertices, self.num_vertices,
            "batch built for this graph"
        );
        let mut values = Vec::with_capacity(self.state_len(num_vertices));
        for m in &self.members {
            values.extend(m.initial_values(num_vertices));
        }
        values
    }

    fn seeds(&self, num_vertices: usize) -> Vec<u32> {
        assert_eq!(
            num_vertices, self.num_vertices,
            "batch built for this graph"
        );
        let mut seeds = Vec::new();
        for (i, m) in self.members.iter().enumerate() {
            let base = (i * num_vertices) as u32;
            seeds.extend(m.seeds(num_vertices).into_iter().map(|s| base + s));
        }
        seeds
    }

    fn state_len(&self, num_vertices: usize) -> usize {
        self.members.len() * num_vertices
    }

    fn token_row(&self, token: u32) -> u32 {
        token % self.num_vertices as u32
    }

    fn candidate(&self, raw: u32, degree: u32) -> Option<u32> {
        self.proto().candidate(raw, degree)
    }

    fn edge_weights(&self) -> Option<Arc<Vec<u32>>> {
        self.proto().edge_weights()
    }

    fn reference(&self, graph: &Csr) -> Vec<u32> {
        let mut reference = Vec::with_capacity(self.state_len(graph.num_vertices()));
        for m in &self.members {
            reference.extend(m.reference(graph));
        }
        reference
    }

    fn reached(&self, values: &[u32]) -> usize {
        self.members
            .iter()
            .enumerate()
            .map(|(i, m)| m.reached(self.member_values(values, i)))
            .sum()
    }

    fn default_capacity_factor(&self) -> f64 {
        // The token space is `k` times wider; scale the queue with it.
        self.members.len() as f64 * self.proto().default_capacity_factor()
    }
}

#[cfg(test)]
mod tests {
    use super::super::Bfs;
    use super::*;
    use crate::UNVISITED;

    #[test]
    fn seeds_and_values_are_offset_per_member() {
        let batch = QueryBatch::new(vec![Bfs::new(1), Bfs::new(3)], 5);
        assert_eq!(batch.state_len(5), 10);
        assert_eq!(batch.seeds(5), vec![1, 5 + 3]);
        let init = batch.initial_values(5);
        assert_eq!(init.len(), 10);
        assert_eq!(init[1], 0);
        assert_eq!(init[5 + 3], 0);
        assert_eq!(init.iter().filter(|&&v| v == UNVISITED).count(), 8);
    }

    #[test]
    fn token_row_strips_the_query_tag() {
        let batch = QueryBatch::new(vec![Bfs::new(0), Bfs::new(1), Bfs::new(2)], 7);
        assert_eq!(batch.token_row(3), 3);
        assert_eq!(batch.token_row(7 + 3), 3);
        assert_eq!(batch.token_row(2 * 7 + 6), 6);
    }

    #[test]
    fn capacity_scales_with_membership() {
        let solo = Bfs::new(0).default_capacity_factor();
        let batch = QueryBatch::new(vec![Bfs::new(0); 4], 10);
        assert_eq!(batch.default_capacity_factor(), 4.0 * solo);
    }

    #[test]
    #[should_panic(expected = "at least one member")]
    fn empty_batch_rejected() {
        let _ = QueryBatch::<Bfs>::new(vec![], 10);
    }
}
