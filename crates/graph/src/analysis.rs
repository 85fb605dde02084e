//! Weak connectivity by union-find: the independent oracle the
//! label-propagation tests check `min_label_fixpoint` against.

use crate::csr::Csr;

/// Weakly connected components (edge direction ignored).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Components {
    /// `component[v]` is the 0-based component id of `v` (ids are dense,
    /// assigned in order of discovery).
    pub component: Vec<u32>,
    /// Vertices per component.
    pub sizes: Vec<usize>,
}

impl Components {
    /// Number of weakly connected components.
    pub fn count(&self) -> usize {
        self.sizes.len()
    }

    /// Size of the largest component.
    pub fn largest(&self) -> usize {
        self.sizes.iter().copied().max().unwrap_or(0)
    }
}

/// Computes weakly connected components with a union-find over all edges.
pub fn weakly_connected_components(graph: &Csr) -> Components {
    let n = graph.num_vertices();
    let mut parent: Vec<u32> = (0..n as u32).collect();

    fn find(parent: &mut [u32], mut v: u32) -> u32 {
        while parent[v as usize] != v {
            let grand = parent[parent[v as usize] as usize];
            parent[v as usize] = grand; // path halving
            v = grand;
        }
        v
    }

    for v in 0..n as u32 {
        for &w in graph.neighbors(v) {
            let rv = find(&mut parent, v);
            let rw = find(&mut parent, w);
            if rv != rw {
                parent[rw as usize] = rv;
            }
        }
    }

    let mut component = vec![u32::MAX; n];
    let mut sizes = Vec::new();
    for v in 0..n as u32 {
        let root = find(&mut parent, v);
        if component[root as usize] == u32::MAX {
            component[root as usize] = sizes.len() as u32;
            sizes.push(0);
        }
        let c = component[root as usize];
        component[v as usize] = c;
        sizes[c as usize] += 1;
    }
    Components { component, sizes }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::CsrBuilder;
    use crate::gen::{erdos_renyi, synthetic_tree};

    #[test]
    fn single_component_tree() {
        let g = synthetic_tree(500, 4);
        let c = weakly_connected_components(&g);
        assert_eq!(c.count(), 1);
        assert_eq!(c.largest(), 500);
    }

    #[test]
    fn disjoint_pieces_counted() {
        let mut b = CsrBuilder::new(6);
        b.add_edge(0, 1);
        b.add_edge(2, 3);
        // 4 and 5 isolated
        let g = b.build();
        let c = weakly_connected_components(&g);
        assert_eq!(c.count(), 4);
        let mut sizes = c.sizes.clone();
        sizes.sort_unstable();
        assert_eq!(sizes, vec![1, 1, 2, 2]);
    }

    #[test]
    fn direction_is_ignored() {
        let mut b = CsrBuilder::new(3);
        b.add_edge(2, 0); // only a back edge: still one component {0,2}
        let g = b.build();
        let c = weakly_connected_components(&g);
        assert_eq!(c.component[0], c.component[2]);
        assert_ne!(c.component[0], c.component[1]);
    }

    #[test]
    fn random_graph_components_cover_all_vertices() {
        let g = erdos_renyi(300, 200, 5);
        let c = weakly_connected_components(&g);
        assert_eq!(c.component.len(), 300);
        let total: usize = c.sizes.iter().sum();
        assert_eq!(total, 300);
        assert!(c.component.iter().all(|&x| (x as usize) < c.count()));
    }
}
