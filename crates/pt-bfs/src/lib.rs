//! `pt-bfs` — the persistent-thread core and its driver applications:
//! the paper's top-down Breadth First Search (§5.1), the external
//! baselines it is compared against (§6.4), and the workload-generic
//! machinery that runs SSSP, connected components, and PageRank-delta on
//! the same kernel.
//!
//! * [`workload`] — the [`workload::PtWorkload`] trait: claim direction,
//!   initial state, the candidate a token offers its children (plus
//!   optional edge weights), and sequential oracle of one irregular
//!   workload, plus the four implementations
//!   ([`workload::Bfs`], [`workload::Sssp`],
//!   [`workload::ConnectedComponents`], [`workload::PrDelta`]).
//! * [`kernel`] — the generic persistent-thread kernel (Algorithm 1):
//!   every wavefront loops work cycles of up to four uniform sub-tasks,
//!   acquiring tokens through any of the six queue designs, walking
//!   each token's edges, claiming every child with the workload's
//!   candidate and enqueuing the children whose claim improved.
//! * [`runner`] — the host program, spelled out once: the private
//!   launch primitive (buffer set-up, queue layout, launch, read-back for
//!   one launch or a co-resident group), the [`runner::Run`] report
//!   (simulated seconds, atomic counts, retries, recovery log) and the
//!   plain-run constructors.
//! * [`recovery`] — the one run path: [`recovery::execute`] drives the
//!   launch primitive under a [`recovery::RecoveryPolicy`] (bounded
//!   attempts, geometric capacity regrow, backoff, watchdog, value-fenced
//!   checkpoint epochs). [`run_workload`], [`run_bfs`] and
//!   [`run_recoverable`] are thin constructors over it; the paper's plain
//!   run is the policy value [`recovery::RecoveryPolicy::regrow_only`].
//!   Which of the six queue designs schedules a run is
//!   [`runner::PtConfig::design`].
//! * [`baseline`] — the Rodinia-style level-synchronous BFS (relaunches a
//!   kernel per level) and the CHAI-style collaborative CPU+GPU BFS.

pub mod baseline;
pub mod kernel;
pub mod recovery;
pub mod runner;
pub mod workload;

pub use kernel::{PtKernel, SpillFence, CHUNK};
pub use recovery::{
    execute, run_recoverable, Checkpoint, RecoveryAttempt, RecoveryLog, RecoveryPolicy, RunFailure,
    RunSpec,
};
pub use runner::{
    queue_capacity, run_bfs, run_bfs_stealing, run_workload, PhaseWalls, PtConfig, Run,
};
pub use workload::{
    Bfs, Claim, ConnectedComponents, PrDelta, PtWorkload, QueryBatch, Sssp, WorkBuffers,
};

/// Value for a vertex no min-directed traversal has reached yet
/// (matches `ptq_graph::UNREACHED`).
pub const UNVISITED: u32 = u32::MAX;
