//! `simt` — a deterministic, cycle-approximate SIMT GPU simulator.
//!
//! The ICPP'19 queue paper's results are driven by four first-order
//! architectural effects of AMD GCN-class GPUs:
//!
//! 1. **Lock-step SIMT execution** — 64-lane wavefronts share a program
//!    counter; divergent lanes idle; 64 lanes CASing the same word in
//!    lock-step all observe the same old value, so exactly one wins.
//! 2. **Per-address atomic serialization** — atomics to one word are
//!    serialized device-wide; the k-th in line waits k serialization slots.
//! 3. **Zero-cost thread switching** — *latency* (memory, atomic wait) is
//!    hidden while other resident wavefronts issue, but *issue slots*
//!    (instructions, including re-issued CAS retries) are never hidden.
//! 4. **Static device memory** — no dynamic allocation inside a kernel.
//!
//! This crate models exactly those four effects and nothing more. Kernels
//! are per-wavefront state machines advanced one *work cycle* per round
//! (matching the paper's persistent-thread work-cycle structure); costs are
//! charged through an explicit [`config::CostModel`]; execution is fully
//! deterministic so tests can assert exact atomic-operation and retry
//! counts.
//!
//! ```
//! use simt::{Engine, GpuConfig, Launch, WaveCtx, WaveKernel, WaveStatus};
//!
//! /// Every lane fetch-adds 1 to a counter, once.
//! struct CountKernel { done: bool }
//! impl WaveKernel for CountKernel {
//!     fn work_cycle(&mut self, ctx: &mut WaveCtx<'_>) -> WaveStatus {
//!         if !self.done {
//!             let counter = ctx.buffer("counter");
//!             for _lane in 0..ctx.wave_size() {
//!                 ctx.atomic_add(counter, 0, 1);
//!             }
//!             self.done = true;
//!         }
//!         WaveStatus::Done
//!     }
//! }
//!
//! let config = GpuConfig::spectre();
//! let mut engine = Engine::new(config);
//! engine.memory_mut().alloc("counter", 1);
//! let report = engine
//!     .run(Launch::workgroups(2), |_wave| CountKernel { done: false })
//!     .unwrap();
//! let counter = engine.memory().buffer("counter");
//! assert_eq!(engine.memory().read_u32(counter, 0), 128);
//! assert_eq!(report.metrics.global_atomics, 128);
//! ```

pub mod audit;
pub mod config;
pub mod ctx;
pub mod engine;
pub mod error;
pub mod fault;
pub mod memory;
pub mod metrics;
#[cfg(test)]
mod park_tests;
pub mod round;
pub mod trace;

pub use audit::OpSpec;
pub use config::{CostModel, GpuConfig, MAX_WAVE_SIZE};
pub use ctx::{WaveClass, WaveCtx, WaveInfo, WaveKernel, WaveStatus};
pub use engine::{Engine, Launch, RunReport, ROUND_LIMIT};
pub use error::{AbortReason, FaultKind, SimError};
pub use fault::{CuStall, FaultPlan, FaultSpec, MemPoison, WaveKill};
pub use memory::{Buffer, DeviceMemory};
pub use metrics::{Metrics, Profile};
pub use trace::RoundBounds;
