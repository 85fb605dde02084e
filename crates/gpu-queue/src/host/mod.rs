//! Host-side (real-thread) implementations of the queue designs.
//!
//! These are genuine Rust concurrent data structures implementing the same
//! algorithms as the device variants: the interleaving explorer
//! ([`crate::verify`]) checks them, and callers use them as plain queues
//! (`repro`'s `--jobs` scheduler, the serving core's admission queue).
//!
//! **One queue, from parts.** The paper's designs differ in two decisions,
//! and the segmented queues add a third; each is written once and the
//! family is their product ([`Queue<R, S>`], statically dispatched):
//!
//! * *how a ticket range is reserved* — a [`Reserve`] policy: [`Cas`]
//!   (read, check, compare-exchange, loop on failure; a dequeue never
//!   passes `Rear` and raises queue-empty) or [`Afa`] (one fetch-add that
//!   cannot fail; dequeues reserve ahead and poll the `dna` sentinel);
//! * *where the slots live and what overflow means* — a [`Storage`]:
//!   [`Bounded`] (one sentinel-painted ring, overflow is [`QueueFull`]) or
//!   [`Segmented`] (linked rings with a recycled-segment pool, overflow is
//!   a segment install);
//! * *batch width* — the `n` argument of an operation, not a type.
//!
//! | alias | core | width |
//! |---|---|---|
//! | [`RfAnQueue`] — the proposed design | `Queue<Afa, Bounded>` | any |
//! | [`AnQueue`] | `Queue<Cas, Bounded>` | any |
//! | [`BaseQueue`] — classic per-token CAS | over `Queue<Cas, Bounded>` | 1 |
//! | [`SegmentedRfAnQueue`] | `Queue<Afa, Segmented>` | any |
//! | [`SegmentedRfQueue`] | over `Queue<Afa, Segmented>` | 1 |
//! | [`SegmentedAnQueue`] | `Queue<Cas, Segmented>` | any |
//!
//! Beside the family: [`MutexQueue`], a `Mutex<VecDeque>` strawman.
//!
//! The bounded queues are **non-wrapping**: `capacity` must bound the
//! total number of tokens ever enqueued between `reset` calls, exactly
//! like the device queues (and the paper's driver, which sizes the queue
//! by the task count — the vertex count for a traversal). Overflow returns
//! [`QueueFull`] — the paper's abort semantics, never a retry. Tokens are
//! `u32` values below [`DNA`](crate::DNA); enqueueing the sentinel itself
//! panics in every build (or is a typed [`EnqueueError::InvalidToken`] on
//! the `try_` surface).
//!
//! Every queue keeps [`QueueStats`] so tests and benches can observe the
//! atomic-operation and retry behaviour the paper measures.

mod an;
mod base;
mod mutex;
pub(crate) mod queue;
mod reserve;
mod rfan;
mod segmented;
mod stats;
mod storage;

pub use an::AnQueue;
pub use base::BaseQueue;
pub use mutex::MutexQueue;
pub use queue::{Queue, SlotTicket};
pub use reserve::{Afa, Cas, CasState, Claim, Reserve};
pub use rfan::RfAnQueue;
pub use segmented::{SegmentedAnQueue, SegmentedRfAnQueue, SegmentedRfQueue};
pub use stats::{QueueStats, StatsSnapshot};
pub use storage::{Bounded, Seg, Segmented, Storage, Taken};

/// Error returned when an enqueue would exceed the queue's capacity.
///
/// Mirrors the paper's queue-full exception: "It indicates there are more
/// available tasks ready for execution than can be stored in the queue …
/// the user can retry the kernel with a larger queue."
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct QueueFull {
    /// Capacity that was exceeded.
    pub capacity: usize,
}

impl std::fmt::Display for QueueFull {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "queue full: capacity {} exceeded", self.capacity)
    }
}

impl std::error::Error for QueueFull {}

/// Error returned by the non-panicking enqueue surface
/// ([`Queue::try_enqueue_batch`]), used where the input may be
/// untrusted — e.g. a checkpoint mirror replaying a snapshotted queue
/// window, where a corrupt snapshot must surface as an error rather than
/// a panic.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EnqueueError {
    /// The batch does not fit; nothing was published (see the
    /// abort-semantics notes on [`Queue::try_enqueue_batch`]).
    Full(QueueFull),
    /// A token collides with the `dna` sentinel — corrupt input; nothing
    /// was published and the queue state is untouched.
    InvalidToken {
        /// The offending token value.
        token: u32,
    },
}

impl std::fmt::Display for EnqueueError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EnqueueError::Full(e) => e.fmt(f),
            EnqueueError::InvalidToken { token } => {
                write!(f, "token {token:#x} collides with the dna sentinel")
            }
        }
    }
}

impl std::error::Error for EnqueueError {}

impl From<QueueFull> for EnqueueError {
    fn from(e: QueueFull) -> Self {
        EnqueueError::Full(e)
    }
}

/// A [`Segmented`] queue has no capacity to exceed.
impl From<std::convert::Infallible> for EnqueueError {
    fn from(never: std::convert::Infallible) -> Self {
        match never {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn queue_full_displays_capacity() {
        assert!(QueueFull { capacity: 64 }.to_string().contains("64"));
    }

    #[test]
    fn enqueue_error_displays_both_variants() {
        let e = EnqueueError::from(QueueFull { capacity: 8 });
        assert!(e.to_string().contains("capacity 8"));
        let e = EnqueueError::InvalidToken { token: u32::MAX };
        assert!(e.to_string().contains("sentinel"));
    }
}
