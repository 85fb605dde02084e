//! Sequential fixed-point oracles for the label-propagation workloads
//! (connected components, best-contribution PageRank-delta).
//!
//! Both device workloads are *confluent*: each claims a per-vertex word
//! with a directed atomic (min for labels, max for contributions), so the
//! value lattice is totally ordered and every execution schedule
//! converges to the same least fixed point (Knaster–Tarski). These
//! oracles compute that fixed point with a plain sequential worklist —
//! the exact array every parallel run must reproduce, under any queue
//! variant and any interleaving.

use crate::csr::{Csr, VertexId};
use std::collections::VecDeque;

/// Sequential least fixed point of min-label propagation: every vertex
/// starts labelled with its own id and repeatedly adopts the minimum
/// label over its in-edges, i.e. `label[w] = min(w, min over v→w of
/// label[v])`. On an undirected (symmetric) graph this assigns every
/// vertex the smallest vertex id in its connected component.
pub fn min_label_fixpoint(graph: &Csr) -> Vec<u32> {
    let n = graph.num_vertices();
    let mut labels: Vec<u32> = (0..n as u32).collect();
    let mut inqueue = vec![true; n];
    let mut queue: VecDeque<u32> = (0..n as u32).collect();
    while let Some(v) = queue.pop_front() {
        inqueue[v as usize] = false;
        let label = labels[v as usize];
        for &w in graph.neighbors(v) {
            if label < labels[w as usize] {
                labels[w as usize] = label;
                if !inqueue[w as usize] {
                    inqueue[w as usize] = true;
                    queue.push_back(w);
                }
            }
        }
    }
    labels
}

/// Sequential least fixed point of decayed best-contribution push (the
/// confluent core of a delta-stepping PageRank push from one seed).
///
/// The seed starts with value `init`, everything else with 0. A vertex
/// `v` with out-degree `deg > 0` offers every out-neighbour the single
/// contribution `(value[v] / 2) / deg` — residual halved (damping), then
/// split across the out-edges — and an offer below `threshold` is
/// dropped (the delta cutoff). A neighbour adopts an offer only if it
/// *raises* its value, so the per-vertex word is the best single-path
/// contribution from the seed: a monotone system with a unique least
/// fixed point, independent of relaxation order.
///
/// # Panics
/// Panics if `source` is out of range or `threshold` is zero (a zero
/// threshold admits zero-valued offers, which can never improve anything
/// but would make "above threshold" meaningless).
pub fn decay_fixpoint(graph: &Csr, source: VertexId, init: u32, threshold: u32) -> Vec<u32> {
    let n = graph.num_vertices();
    assert!((source as usize) < n, "source {source} out of range");
    assert!(threshold > 0, "threshold must be positive");
    let mut values = vec![0u32; n];
    values[source as usize] = init;
    let mut inqueue = vec![false; n];
    inqueue[source as usize] = true;
    let mut queue = VecDeque::from([source]);
    while let Some(v) = queue.pop_front() {
        inqueue[v as usize] = false;
        let deg = graph.degree(v);
        if deg == 0 {
            continue;
        }
        let offer = (values[v as usize] / 2) / deg;
        if offer < threshold {
            continue;
        }
        for &w in graph.neighbors(v) {
            if offer > values[w as usize] {
                values[w as usize] = offer;
                if !inqueue[w as usize] {
                    inqueue[w as usize] = true;
                    queue.push_back(w);
                }
            }
        }
    }
    values
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::weakly_connected_components;
    use crate::CsrBuilder;

    #[test]
    fn labels_equal_min_vertex_per_component() {
        // Three components: {0,1,2}, {3,4}, {5}.
        let mut b = CsrBuilder::new(6);
        b.add_undirected_edge(0, 1);
        b.add_undirected_edge(1, 2);
        b.add_undirected_edge(3, 4);
        let g = b.build();
        assert_eq!(min_label_fixpoint(&g), vec![0, 0, 0, 3, 3, 5]);
    }

    #[test]
    fn labels_agree_with_union_find_on_undirected_graphs() {
        // Seeded undirected sparse graph (erdos_renyi is directed, where
        // label propagation and *weak* connectivity legitimately differ).
        let mut rng = crate::SplitMix64::seed_from_u64(17);
        let mut b = CsrBuilder::new(300);
        for _ in 0..250 {
            let a = (rng.next_u64() % 300) as u32;
            let c = (rng.next_u64() % 300) as u32;
            b.add_undirected_edge(a, c);
        }
        let g = b.build();
        let labels = min_label_fixpoint(&g);
        let comps = weakly_connected_components(&g);
        // Same partition: two vertices share a label iff they share a
        // union-find component.
        for v in 0..g.num_vertices() {
            for w in (v + 1)..g.num_vertices() {
                assert_eq!(
                    labels[v] == labels[w],
                    comps.component[v] == comps.component[w],
                    "partition mismatch at ({v}, {w})"
                );
            }
        }
    }

    #[test]
    fn decay_halves_along_a_path() {
        // 0 → 1 → 2 (directed chain, out-degree 1 each).
        let mut b = CsrBuilder::new(3);
        b.add_edge(0, 1);
        b.add_edge(1, 2);
        let g = b.build();
        assert_eq!(decay_fixpoint(&g, 0, 64, 1), vec![64, 32, 16]);
    }

    #[test]
    fn threshold_cuts_the_tail() {
        let mut b = CsrBuilder::new(4);
        b.add_edge(0, 1);
        b.add_edge(1, 2);
        b.add_edge(2, 3);
        let g = b.build();
        // Offers: 32, then 16, then 8 < 10 — dropped.
        assert_eq!(decay_fixpoint(&g, 0, 64, 10), vec![64, 32, 16, 0]);
    }

    #[test]
    fn best_path_wins_not_the_sum() {
        // Two paths into 3: a short strong one and a long weak one.
        let mut b = CsrBuilder::new(4);
        b.add_edge(0, 1); // offer 32
        b.add_edge(0, 2); // (deg 2: offers are 16 each)
        b.add_edge(1, 3);
        b.add_edge(2, 3);
        let g = b.build();
        let v = decay_fixpoint(&g, 0, 128, 1);
        // 0 (deg 2) offers 32 to both 1 and 2; each (deg 1) then offers
        // 16 to 3. The max (not 16 + 16) is kept — order independence
        // depends on this.
        assert_eq!(v, vec![128, 32, 32, 16]);
    }
}
