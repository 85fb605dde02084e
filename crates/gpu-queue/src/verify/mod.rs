//! Model-checking-style verification of the host queues.
//!
//! Three layers (the third lives in [`simt::audit`]):
//!
//! 1. **Interleaving explorer** ([`explorer`]) — a deterministic
//!    controlled scheduler over the host core's operation machines (the
//!    step functions the public blocking methods drive to completion). A DFS
//!    odometer enumerates distinct schedules of 2–4 threads exhaustively
//!    up to a budget; a seeded sampler adds random coverage beyond it
//!    (`PTQ_SCHEDULES` scales both in CI's `verify-deep` job).
//! 2. **History recorder + linearizability checker** ([`history`]) — a
//!    Wing–Gong search for a precedence-respecting legal total order,
//!    against one batch-aware sequential spec per reservation discipline:
//!    [`FifoSpec`] for CAS, [`TicketSpec`] (bounded or segmented) for AFA.
//!    `reserve(n)` is *one* linearization point for `n` slots, width 1
//!    included, and a failed RF/AN batch enqueue advances `Rear` anyway
//!    (the paper's abort semantics).
//! 3. **Device-path claim auditor** (`simt::audit`) — per-wavefront
//!    atomic budgets asserted inside the simulator: RF variants issue
//!    zero CAS, AN issues exactly one CAS per wavefront queue op, BASE
//!    alone retries.
//!
//! [`scenarios`] holds one producer/consumer program pair per reservation
//! discipline (CAS, AFA), generic over the storage, and one [`Scenario`]
//! type that runs them against any of the four `Queue<R, S>` cores
//! ([`Explored`]) with that core's spec (segment installation and
//! recycling are explicit linearization points of the segmented
//! [`TicketSpec`]); the top-level `tests/linearizability.rs` suite runs
//! them.
//!
//! [`conformance`] is a complementary *real-thread* harness: every host
//! queue variant runs through one shared scenario matrix (FIFO order,
//! MPMC token conservation, batch boundary crossing, overflow behaviour,
//! reset-reuse, sentinel-token refusal, empty batch) behind a common
//! adapter trait — one adapter per discipline plus the `MUTEX` strawman —
//! and the segmented variants through a memory-bound churn.

pub mod conformance;
pub mod explorer;
pub mod history;
pub mod scenarios;

pub use conformance::{
    check_segment_memory_bound, conformance_suite, run_conformance, ConformanceReport,
    ConformingQueue,
};
pub use explorer::{explore, explore_random, schedule_budget, ExploreStats, Program};
pub use history::{
    check_linearizable, CompletedOp, FifoSpec, History, Op, Recorder, SeqSpec, TicketSpec,
};
pub use scenarios::{Explored, Scenario, ScenarioReport};
