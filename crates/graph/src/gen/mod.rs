//! Deterministic graph generators calibrated to the paper's dataset families.
//!
//! The evaluation environment has no network access to SNAP or the 9th
//! DIMACS challenge, so each dataset family is replaced by a generator that
//! reproduces the statistics the paper reports (Tables 1–2) and — more
//! importantly for the queue experiments — the *dynamic parallelism shape*
//! of Figure 3: how many vertices become available per BFS level.
//!
//! | family | generator | shape knobs |
//! |---|---|---|
//! | paper's synthetic | [`synthetic_tree`] | exact: fanout-4 tree, 10,485,760 vertices |
//! | SNAP social media | [`social`] | power-law fanout (huge std), shallow diameter |
//! | DIMACS roadmaps | [`roadmap`] | fanout 2–3, tiny std, very deep |
//! | Rodinia BFS inputs | [`rodinia`] | uniform degree 1..=2·avg, shallow |
//! | test graphs | [`erdos_renyi`] | uniform random |
//! | scale headroom | [`giant()`] | heap-tree skeleton + random extras, streamed |
//!
//! Every generator takes an explicit seed and produces identical graphs on
//! every run and platform (we rely only on the in-tree [`crate::rng::SplitMix64`]
//! with fixed seeds; its output is pinned by golden-value tests).

pub mod giant;
mod random;
mod roadmap;
mod rodinia;
mod social;
mod synthetic;

pub use giant::{for_each_giant_edge, giant, giant_with_chunk};
pub use random::erdos_renyi;
pub use roadmap::{roadmap, RoadmapParams};
pub use rodinia::rodinia;
pub use social::{social, SocialParams};
pub use synthetic::synthetic_tree;
