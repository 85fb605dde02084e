//! Catalog of the paper's evaluation datasets.
//!
//! Each entry knows the statistics the paper reports (so Tables 1–2 can be
//! printed side-by-side with measured values) and how to construct a
//! calibrated synthetic equivalent at any scale. `scale = 1.0` reproduces
//! the full published vertex counts; smaller scales shrink the vertex count
//! proportionally while preserving degree distribution and traversal shape,
//! which keeps CI and benchmark runs fast.

use crate::csr::Csr;
use crate::gen::{giant, roadmap, rodinia, social, synthetic_tree, RoadmapParams, SocialParams};

/// The datasets of the paper's §5.2 (Tables 1 and 2) plus the Rodinia and
/// CHAI baseline inputs of §6.4.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Dataset {
    /// Paper's synthetic saturating dataset: 10,485,760 vertices, fanout 4.
    Synthetic,
    /// SNAP `gplus_combined`: 107,614 vertices, 30.5M edges, avg 283.4.
    GplusCombined,
    /// SNAP `soc-LiveJournal1`: 4,847,571 vertices, 69.0M edges, avg 14.2.
    SocLiveJournal1,
    /// DIMACS `USA-road-d.NY`: 264,346 vertices, avg 2.8.
    RoadNY,
    /// DIMACS `USA-road-d.LKS`: 2,758,119 vertices, avg 2.5.
    RoadLKS,
    /// DIMACS `USA-road-d.USA`: 23,947,347 vertices, avg 2.4.
    RoadUSA,
    /// Rodinia `graph4096`: 4,096 vertices, uniform degree 1..=6.
    RodiniaGraph4096,
    /// Rodinia `graph65536`: 65,536 vertices.
    RodiniaGraph65536,
    /// Rodinia `graph1MW_6`: 1,000,000 vertices.
    RodiniaGraph1M,
    /// CHAI `NYR_input.dat`: the NY road network in CHAI's packaging.
    ChaiNYR,
    /// CHAI `USA-road-d.BAY.gr.parboil`: SF Bay Area, 321,270 vertices.
    ChaiBAY,
    /// Scale-headroom synthetic: 16,777,216 vertices,
    /// ~134M edges at full scale — roughly 2× the paper's largest dataset
    /// in edges and built through the streamed two-pass CSR path
    /// ([`crate::gen::giant()`]) so construction never materializes an edge
    /// list.
    Giant,
}

/// Published statistics for a dataset (from the paper's tables) used for
/// calibration reporting.
#[derive(Clone, Copy, Debug)]
pub struct DatasetSpec {
    /// Human-readable name matching the paper.
    pub name: &'static str,
    /// Vertex count at `scale = 1.0`.
    pub vertices: usize,
    /// Edge count published in the paper (approximate calibration
    /// target). `u64`: the giant family exceeds what a 32-bit `usize`
    /// host could hold, and derived sums must not wrap.
    pub edges: u64,
    /// Published mean out-degree.
    pub avg_degree: f64,
    /// Published max out-degree (0 where the paper does not report one).
    pub max_degree: u32,
    /// Published degree standard deviation (0 where not reported).
    pub std_degree: f64,
}

impl Dataset {
    /// The six datasets of the main evaluation (Tables 3–4, Figures 3–4).
    pub const MAIN_SIX: [Dataset; 6] = [
        Dataset::Synthetic,
        Dataset::GplusCombined,
        Dataset::SocLiveJournal1,
        Dataset::RoadNY,
        Dataset::RoadLKS,
        Dataset::RoadUSA,
    ];

    /// The three datasets of Figures 1 and 5 (CAS failures, retry ratios).
    pub const FIG5_THREE: [Dataset; 3] = [
        Dataset::Synthetic,
        Dataset::SocLiveJournal1,
        Dataset::RoadNY,
    ];

    /// Published statistics.
    pub fn spec(self) -> DatasetSpec {
        match self {
            Dataset::Synthetic => DatasetSpec {
                name: "Synthetic",
                vertices: 10_485_760,
                edges: 10_485_759,
                avg_degree: 4.0,
                max_degree: 4,
                std_degree: 0.0,
            },
            Dataset::GplusCombined => DatasetSpec {
                name: "gplus_combined",
                vertices: 107_614,
                edges: 30_494_866,
                avg_degree: 283.4,
                max_degree: 49_041,
                std_degree: 1_245.18,
            },
            Dataset::SocLiveJournal1 => DatasetSpec {
                name: "soc-LiveJournal1",
                vertices: 4_847_571,
                edges: 68_993_773,
                avg_degree: 14.2,
                max_degree: 20_293,
                std_degree: 36.08,
            },
            Dataset::RoadNY => DatasetSpec {
                name: "USA-road-d.NY",
                vertices: 264_346,
                edges: 733_846,
                avg_degree: 2.8,
                max_degree: 8,
                std_degree: 0.98,
            },
            Dataset::RoadLKS => DatasetSpec {
                name: "USA-road-d.LKS",
                vertices: 2_758_119,
                edges: 6_885_658,
                avg_degree: 2.5,
                max_degree: 8,
                std_degree: 0.95,
            },
            Dataset::RoadUSA => DatasetSpec {
                name: "USA-road-d.USA",
                vertices: 23_947_347,
                edges: 58_333_344,
                avg_degree: 2.4,
                max_degree: 9,
                std_degree: 0.95,
            },
            Dataset::RodiniaGraph4096 => DatasetSpec {
                name: "graph4096",
                vertices: 4_096,
                edges: 14_336, // 3.5 * 4096
                avg_degree: 3.5,
                max_degree: 6,
                std_degree: 1.7,
            },
            Dataset::RodiniaGraph65536 => DatasetSpec {
                name: "graph65536",
                vertices: 65_536,
                edges: 229_376,
                avg_degree: 3.5,
                max_degree: 6,
                std_degree: 1.7,
            },
            Dataset::RodiniaGraph1M => DatasetSpec {
                name: "graph1MW_6",
                vertices: 1_000_000,
                edges: 3_500_000,
                avg_degree: 3.5,
                max_degree: 6,
                std_degree: 1.7,
            },
            Dataset::ChaiNYR => DatasetSpec {
                name: "NYR_input.dat",
                vertices: 264_346,
                edges: 733_846,
                avg_degree: 2.8,
                max_degree: 8,
                std_degree: 0.98,
            },
            Dataset::ChaiBAY => DatasetSpec {
                name: "USA-road-d.BAY.gr.parboil",
                vertices: 321_270,
                edges: 800_172,
                avg_degree: 2.5,
                max_degree: 7,
                std_degree: 0.95,
            },
            Dataset::Giant => DatasetSpec {
                name: "giant",
                vertices: 16_777_216,
                edges: 134_217_728, // 8 * 2^24 calibration target
                avg_degree: 8.0,
                max_degree: 16, // 2 tree children + up to 14 extras
                std_degree: 4.4,
            },
        }
    }

    /// Builds the calibrated synthetic equivalent at the given scale
    /// (`0 < scale <= 1`). The BFS source for every dataset is vertex 0:
    /// the tree root, the social hub (generators place the largest degree
    /// draw at id 0), or the grid corner.
    ///
    /// ```
    /// use ptq_graph::Dataset;
    ///
    /// let g = Dataset::RoadNY.build(0.02); // 2% of 264,346 vertices
    /// let stats = g.degree_stats();
    /// assert!((stats.avg - 2.8).abs() < 0.3, "roadmap degree band");
    /// ```
    ///
    /// # Panics
    /// Panics if `scale` is not in `(0, 1]`.
    pub fn build(self, scale: f64) -> Csr {
        assert!(
            scale > 0.0 && scale <= 1.0,
            "scale must be in (0, 1], got {scale}"
        );
        let spec = self.spec();
        let n = ((spec.vertices as f64 * scale) as usize).max(16);
        match self {
            Dataset::Synthetic => synthetic_tree(n, 4),
            Dataset::GplusCombined => social(SocialParams {
                vertices: n,
                avg_degree: spec.avg_degree,
                alpha: 1.45,
                max_degree: scaled_cap(spec.max_degree, scale),
                seed: 0x6005,
            }),
            Dataset::SocLiveJournal1 => social(SocialParams {
                vertices: n,
                avg_degree: spec.avg_degree,
                alpha: 1.8,
                max_degree: scaled_cap(spec.max_degree, scale),
                seed: 0x117e,
            }),
            Dataset::RoadNY => grid_for(n, 0.40, 0x0a01),
            Dataset::RoadLKS => grid_for(n, 0.25, 0x0a02),
            Dataset::RoadUSA => grid_for(n, 0.20, 0x0a03),
            Dataset::RodiniaGraph4096 => rodinia(n, 6, 0x40d1),
            Dataset::RodiniaGraph65536 => rodinia(n, 6, 0x40d2),
            Dataset::RodiniaGraph1M => rodinia(n, 6, 0x40d3),
            Dataset::ChaiNYR => grid_for(n, 0.40, 0xc4a1),
            Dataset::ChaiBAY => grid_for(n, 0.25, 0xc4a2),
            // Mean degree 8 = n-1 tree edges (mean 1) + uniform[0, 14]
            // extras (mean 7).
            Dataset::Giant => giant(n, 7, 0x61A7),
        }
    }

    /// The BFS source vertex used throughout the reproduction.
    pub fn source(self) -> u32 {
        0
    }
}

/// Max-degree caps must shrink with the graph or tiny scaled instances get
/// a single hub holding most edges.
fn scaled_cap(full_cap: u32, scale: f64) -> u32 {
    ((f64::from(full_cap) * scale.sqrt()) as u32).max(64)
}

/// Picks grid dimensions whose product approximates `n` (slightly wide, as
/// real road networks are), with a vertical keep probability chosen so the
/// mean degree lands in the DIMACS band: avg ≈ 2 + 2·keep.
fn grid_for(n: usize, keep_prob: f64, seed: u64) -> Csr {
    let rows = ((n as f64 / 1.3).sqrt().round() as usize).max(2);
    let cols = (n / rows).max(2);
    roadmap(RoadmapParams {
        rows,
        cols,
        keep_prob,
        seed,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bfs::bfs_levels;

    const TEST_SCALE: f64 = 0.02;

    #[test]
    fn all_datasets_build_at_small_scale() {
        for ds in [
            Dataset::Synthetic,
            Dataset::GplusCombined,
            Dataset::SocLiveJournal1,
            Dataset::RoadNY,
            Dataset::RoadLKS,
            Dataset::RodiniaGraph4096,
            Dataset::RodiniaGraph65536,
            Dataset::ChaiNYR,
            Dataset::ChaiBAY,
            Dataset::Giant,
        ] {
            let g = ds.build(TEST_SCALE);
            assert!(g.num_vertices() > 0, "{ds:?} empty");
            let r = bfs_levels(&g, ds.source());
            assert!(
                r.reached > g.num_vertices() / 4,
                "{ds:?} reaches only {} of {}",
                r.reached,
                g.num_vertices()
            );
        }
    }

    #[test]
    fn synthetic_full_scale_matches_paper_exactly() {
        let spec = Dataset::Synthetic.spec();
        assert_eq!(spec.vertices, 10_485_760);
        // don't build the 10M graph here; scale 0.001 keeps shape
        let g = Dataset::Synthetic.build(0.001);
        assert_eq!(g.degree_stats().max, 4);
    }

    #[test]
    fn social_degree_shapes_differ() {
        let gplus = Dataset::GplusCombined.build(0.2);
        let lj = Dataset::SocLiveJournal1.build(0.005);
        let sg = gplus.degree_stats();
        let sl = lj.degree_stats();
        // gplus is far denser per-vertex than LiveJournal.
        assert!(sg.avg > 5.0 * sl.avg, "gplus {} vs lj {}", sg.avg, sl.avg);
        // Both heavy-tailed.
        assert!(sg.std > sg.avg);
        assert!(sl.std > sl.avg);
    }

    #[test]
    fn roadmaps_sit_in_dimacs_degree_band() {
        for ds in [Dataset::RoadNY, Dataset::RoadLKS] {
            let g = ds.build(0.1);
            let s = g.degree_stats();
            assert!(
                (2.2..=3.0).contains(&s.avg),
                "{ds:?} avg {} out of band",
                s.avg
            );
            assert!(s.max <= 4);
        }
    }

    #[test]
    fn roadmaps_are_much_deeper_than_social() {
        let road = Dataset::RoadNY.build(0.1);
        let soc = Dataset::SocLiveJournal1.build(0.005);
        let rd = bfs_levels(&road, 0).max_level;
        let sd = bfs_levels(&soc, 0).max_level;
        assert!(rd > 10 * sd, "roadmap depth {rd} not ≫ social depth {sd}");
    }

    #[test]
    fn usa_is_deeper_than_ny() {
        // Compare at equal scale fraction so USA has ~90x the vertices.
        let ny = Dataset::RoadNY.build(0.05);
        let usa = Dataset::RoadUSA.build(0.005);
        let d_ny = bfs_levels(&ny, 0).max_level;
        let d_usa = bfs_levels(&usa, 0).max_level;
        assert!(d_usa > d_ny, "usa {d_usa} vs ny {d_ny}");
    }

    #[test]
    #[should_panic(expected = "scale must be in (0, 1]")]
    fn rejects_zero_scale() {
        let _ = Dataset::Synthetic.build(0.0);
    }

    #[test]
    fn spec_names_match_paper() {
        assert_eq!(Dataset::SocLiveJournal1.spec().name, "soc-LiveJournal1");
        assert_eq!(Dataset::RoadUSA.spec().name, "USA-road-d.USA");
        assert_eq!(Dataset::RodiniaGraph1M.spec().name, "graph1MW_6");
    }
}
