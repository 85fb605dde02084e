//! `ptq_serve` — the overload-safe multi-query serving core.
//!
//! A resident service that consumes a seeded [`trace::ArrivalTrace`] of
//! queries (workload × dataset × source × priority) against shared
//! immutable CSRs, executing each on the persistent-thread stack with:
//!
//! * a **bounded admission queue with backpressure** built on the
//!   segmented host queue family, rejecting with typed
//!   [`admission::AdmissionError`]s — no panics, no string matching
//!   ([`admission`]);
//! * **per-query deadlines in simulated cycles** with deadline-based
//!   load shedding when the projected backlog completion exceeds the
//!   budget ([`service`]);
//! * **capped exponential retry/backoff with deterministic jitter** for
//!   fault-aborted queries, resuming from the last good checkpoint so a
//!   retry replays fewer rounds than a restart ([`backoff`]);
//! * **poison-query quarantine**: a query that exhausts its retry
//!   budget is isolated with its full recovery log while the service
//!   keeps draining the trace ([`outcome`]).
//!
//! Every outcome lands in a structured [`outcome::OutcomeLog`] that is
//! byte-identical at any `--jobs` count — see the two-phase determinism
//! argument in [`service`] and DESIGN.md *Serving*.

pub mod admission;
pub mod backoff;
pub mod outcome;
pub mod service;
pub mod trace;

pub use admission::{AdmissionError, AdmissionQueue};
pub use backoff::BackoffSchedule;
pub use outcome::{ClassFairness, Disposition, OutcomeLog, QueryOutcome, ServeSummary};
pub use service::{AttemptSim, ExecutionProfile, Service, ServiceConfig};
pub use trace::{
    ArrivalTrace, KindVisitor, Priority, QuerySpec, TraceParams, WorkloadKind, NUM_TENANTS,
};
