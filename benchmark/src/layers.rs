//! The product API this benchmark pins — and nothing else.
//!
//! Every name the harness calls or reads is imported here, once, so a
//! refactor of the runner entry points or the queue family knows exactly
//! which names must keep resolving for the benchmark to stay comparable
//! across commits. The harness measures each layer only from outside:
//! it times calls into these functions and reads the public
//! `Run.{metrics, profile, phases, recovery}` / `OutcomeLog` they return.

// graph: dataset catalogue, generators, streamed and in-memory builders,
// sequential oracles.
pub use ptq_graph::gen::for_each_giant_edge;
pub use ptq_graph::stream::{build_streamed, DEFAULT_CHUNK_EDGES};
pub use ptq_graph::{bfs_levels, random_weights, Csr, CsrBuilder, Dataset, SplitMix64};

// simt: the simulated device.
pub use simt::{Engine, FaultPlan, FaultSpec, GpuConfig};
// The error type the runner entry points return (named only in signatures).
pub use simt::SimError;

// gpu_queue: the scheduler variants, the host queue family, the device
// queue layouts.
pub use gpu_queue::device::{QueueLayout, StealingLayout};
pub use gpu_queue::host::{
    AnQueue, BaseQueue, MutexQueue, RfAnQueue, SegmentedAnQueue, SegmentedRfAnQueue,
    SegmentedRfQueue, SlotTicket, StatsSnapshot,
};
pub use gpu_queue::Variant;

// pt_bfs: runner entry points, recovery, the four workloads.
pub use pt_bfs::workload::{Bfs, ConnectedComponents, PrDelta, PtWorkload, Sssp};
pub use pt_bfs::{
    run_bfs, run_bfs_stealing, run_recoverable, run_workload, PtConfig, RecoveryPolicy, Run,
};

// bench: scheduler width and the serving core.
pub use repro_bench::serve::{
    AdmissionQueue, ArrivalTrace, Disposition, ExecutionProfile, OutcomeLog, Priority, Service,
    ServiceConfig, TraceParams, WorkloadKind,
};
pub use repro_bench::{Scale, Sched};
