//! Graph substrate for the ICPP'19 retry-free / arbitrary-n queue reproduction.
//!
//! The paper evaluates its concurrent queue with a persistent-thread top-down
//! BFS over six graph datasets (one synthetic, two social-media graphs from
//! SNAP, three DIMACS roadmaps) plus the datasets shipped with the Rodinia
//! and CHAI benchmark suites. This crate provides everything those
//! experiments need on the data side:
//!
//! * [`csr::Csr`] — compressed sparse row storage with degree statistics
//!   (the `Edges Per Vertex` columns of the paper's Tables 1 and 2),
//! * [`gen`] — deterministic generators calibrated to each dataset family's
//!   published statistics (fanout distribution, depth, vertex/edge counts),
//!   and [`datasets`], the catalogue that names them,
//! * [`io`] — readers/writers for the DIMACS `.gr`, SNAP edge-list, and
//!   Rodinia BFS file formats so the real datasets can be dropped in,
//! * sequential oracles every parallel run is validated against: [`bfs`]
//!   (levels), [`weights`] (edge weights and Dijkstra), [`propagate`]
//!   (label and contribution fixed points) and [`analysis`] (the
//!   union-find the label oracle is itself checked against),
//! * [`profile`] — per-level dynamic-parallelism profiles (Figure 3), and
//! * [`stream`] — two-pass chunked CSR construction that never
//!   materializes an edge list, for the giant scale-headroom datasets.
//!
//! All generators take explicit seeds from the in-tree [`rng`] and are
//! fully deterministic.

pub mod analysis;
pub mod bfs;
pub mod csr;
pub mod datasets;
pub mod gen;
pub mod io;
pub mod profile;
pub mod propagate;
pub mod rng;
pub mod stream;
pub mod weights;

pub use analysis::{weakly_connected_components, Components};
pub use bfs::{bfs_levels, validate_levels, BfsResult};
pub use csr::{Csr, CsrBuilder, CsrError, DegreeStats, VertexId};
pub use datasets::{Dataset, DatasetSpec};
pub use profile::{level_profile, LevelProfile};
pub use propagate::{decay_fixpoint, min_label_fixpoint};
pub use rng::SplitMix64;
pub use stream::build_streamed;
pub use weights::{dijkstra, random_weights, validate_distances};

/// Sentinel level for vertices not reached by a BFS.
pub const UNREACHED: u32 = u32::MAX;
