//! Simulator error types and the structured abort taxonomy.
//!
//! The paper's queue deliberately turns queue-full into a kernel abort
//! ("aborts the kernel because there is insufficient space to store
//! ready tasks") so the host can retry with a larger queue. Recovery
//! code must therefore *classify* aborts; matching on message strings
//! is fragile, so aborts carry a typed [`AbortReason`].

use std::fmt;

/// The category of an injected fault (see [`crate::fault::FaultPlan`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// A wavefront was killed at the start of a scheduling round.
    WaveKill,
    /// A compute unit was stalled for extra cycles (timing-only; never
    /// surfaces as an error, but listed here for the fault taxonomy).
    CuStall,
    /// A device memory word was poisoned; the fault fires on the next
    /// kernel access (ECC-style detected error, not silent corruption).
    MemPoison,
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultKind::WaveKill => write!(f, "wave-kill"),
            FaultKind::CuStall => write!(f, "cu-stall"),
            FaultKind::MemPoison => write!(f, "mem-poison"),
        }
    }
}

/// Why a kernel aborted. Replaces the old stringly `KernelAbort(String)`
/// so recovery policies can match structurally.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AbortReason {
    /// A device queue ran out of slots: a reservation reached `requested`
    /// (token index or rear position) against a queue of `capacity` slots.
    QueueFull {
        /// The slot/rear position the reservation reached.
        requested: u64,
        /// The queue's capacity in tokens.
        capacity: u32,
    },
    /// A deterministic injected fault fired (see [`crate::fault`]).
    InjectedFault {
        /// What kind of fault fired.
        kind: FaultKind,
        /// The wavefront that observed it.
        wave: usize,
        /// The scheduling round at which the fault was scheduled/armed.
        round: u64,
    },
    /// A supervisory round budget was exhausted. Raised by recovery
    /// runners that cap per-epoch rounds (distinct from the engine's own
    /// [`SimError::MaxRoundsExceeded`], which is a hard non-termination
    /// error). Carries its context like its `QueueFull` sibling so
    /// per-query service logs can report what budget was blown.
    Watchdog {
        /// The supervisory round budget that was in force.
        budget: u64,
        /// The round at which the budget was observed exhausted.
        round: u64,
    },
}

impl AbortReason {
    /// True for the queue-full classification — the retryable condition
    /// the paper's host-side regrow loop responds to.
    pub fn is_queue_full(&self) -> bool {
        matches!(self, AbortReason::QueueFull { .. })
    }
}

impl fmt::Display for AbortReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AbortReason::QueueFull {
                requested,
                capacity,
            } => write!(f, "queue full: slot {requested} >= capacity {capacity}"),
            AbortReason::InjectedFault { kind, wave, round } => {
                write!(f, "injected {kind} fault (wave {wave}, round {round})")
            }
            AbortReason::Watchdog { budget, round } => {
                write!(
                    f,
                    "watchdog round budget {budget} exhausted at round {round}"
                )
            }
        }
    }
}

/// Errors surfaced by a simulated kernel run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// A kernel accessed a buffer outside its bounds.
    OutOfBounds {
        /// Offending word index.
        index: usize,
        /// Buffer length in words.
        len: usize,
    },
    /// A kernel aborted (e.g. the paper's queue-full exception). The
    /// engine attaches the round at which the abort was observed so
    /// recovery code can account for lost work.
    KernelAbort {
        /// The structured abort classification.
        reason: AbortReason,
        /// The scheduling round at which the engine observed the abort.
        round: u64,
    },
    /// The engine's round limit was exceeded — almost always a kernel
    /// that fails to terminate (lost wakeup, bad termination detection).
    MaxRoundsExceeded {
        /// The limit that was hit.
        limit: u64,
    },
    /// AuditMode caught a queue operation exceeding its declared atomic
    /// budget (e.g. a retry-free design issuing a CAS, or an arbitrary-n
    /// design issuing more than one reservation per wavefront op).
    AuditViolation(String),
    /// The host asked for a launch that cannot be set up at all (an
    /// empty launch group, a fault plan spanning co-resident launches,
    /// seeds outside the graph, …). Carries the cause; raised before any
    /// device state exists, so nothing is lost by fixing the request.
    InvalidLaunch(String),
    /// A kernel stored to, or issued an atomic on, a read-only buffer
    /// mapped from a host array ([`crate::DeviceMemory::map`]). Nothing
    /// was written.
    ReadOnly {
        /// The name the buffer was mapped under.
        buffer: String,
    },
}

impl SimError {
    /// The structured abort reason, if this error is a kernel abort.
    pub fn abort_reason(&self) -> Option<AbortReason> {
        match self {
            SimError::KernelAbort { reason, .. } => Some(*reason),
            _ => None,
        }
    }

    /// True when this error is a queue-full abort — the retryable
    /// condition the paper's host-side regrow loop responds to.
    pub fn is_queue_full(&self) -> bool {
        matches!(
            self,
            SimError::KernelAbort {
                reason: AbortReason::QueueFull { .. },
                ..
            }
        )
    }
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::OutOfBounds { index, len } => {
                write!(
                    f,
                    "device access out of bounds: index {index} in buffer of {len} words"
                )
            }
            SimError::KernelAbort { reason, round } => {
                write!(f, "kernel aborted at round {round}: {reason}")
            }
            SimError::MaxRoundsExceeded { limit } => {
                write!(f, "simulation exceeded {limit} rounds without terminating")
            }
            SimError::AuditViolation(detail) => write!(f, "audit violation: {detail}"),
            SimError::InvalidLaunch(cause) => write!(f, "invalid launch: {cause}"),
            SimError::ReadOnly { buffer } => {
                write!(f, "device write to read-only mapped buffer {buffer:?}")
            }
        }
    }
}

impl std::error::Error for SimError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        let e = SimError::OutOfBounds { index: 5, len: 2 };
        assert!(e.to_string().contains("index 5"));
        let e = SimError::KernelAbort {
            reason: AbortReason::QueueFull {
                requested: 64,
                capacity: 64,
            },
            round: 9,
        };
        assert!(e.to_string().contains("queue full"));
        assert!(e.to_string().contains("round 9"));
        let e = SimError::MaxRoundsExceeded { limit: 10 };
        assert!(e.to_string().contains("10 rounds"));
        let e = SimError::AuditViolation("RF/AN enqueue: 2 CAS".into());
        assert!(e.to_string().contains("audit violation"));
        let e = SimError::InvalidLaunch("empty launch group".into());
        assert!(e.to_string().contains("invalid launch: empty"));
        let e = SimError::ReadOnly {
            buffer: "edges".into(),
        };
        assert!(e.to_string().contains("read-only mapped buffer \"edges\""));
    }

    #[test]
    fn structured_accessors() {
        let e = SimError::KernelAbort {
            reason: AbortReason::QueueFull {
                requested: 100,
                capacity: 64,
            },
            round: 3,
        };
        assert!(e.is_queue_full());
        assert_eq!(
            e.abort_reason(),
            Some(AbortReason::QueueFull {
                requested: 100,
                capacity: 64
            })
        );
        assert!(e.abort_reason().unwrap().is_queue_full());
        let wd = AbortReason::Watchdog {
            budget: 16,
            round: 16,
        };
        assert!(!wd.is_queue_full());
        assert!(wd.to_string().contains("budget 16"));
        assert!(wd.to_string().contains("round 16"));
        let e = SimError::KernelAbort {
            reason: AbortReason::InjectedFault {
                kind: FaultKind::WaveKill,
                wave: 2,
                round: 7,
            },
            round: 7,
        };
        assert!(!e.is_queue_full());
        let e = SimError::MaxRoundsExceeded { limit: 1 };
        assert!(e.abort_reason().is_none());
    }

    #[test]
    fn fault_kind_display() {
        assert_eq!(FaultKind::WaveKill.to_string(), "wave-kill");
        assert_eq!(FaultKind::CuStall.to_string(), "cu-stall");
        assert_eq!(FaultKind::MemPoison.to_string(), "mem-poison");
    }
}
