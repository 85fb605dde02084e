//! RF/AN: the retry-free / arbitrary-n queue — the proposed design.
//!
//! The [`Afa`] × [`Bounded`] core; the same algorithm as the device RF/AN
//! queue, on real threads:
//!
//! * **Dequeue** is split into a wait-free slot reservation
//!   ([`RfAnQueue::reserve`], one `fetch_add` for any batch size) and a
//!   non-atomic poll ([`Queue::try_take`]) on the privately owned slot.
//!   There is no queue-empty exception: reserving past `Rear` just means
//!   the data hasn't arrived yet.
//! * **Enqueue** ([`RfAnQueue::enqueue_batch`]) reserves a contiguous
//!   region with one `fetch_add` on `Rear` and publishes each token with a
//!   release store over the sentinel.
//!
//! Like the paper's queue, this is bounded and non-wrapping: `capacity`
//! must bound the total tokens enqueued between [`Queue::reset`] calls;
//! overflow is a [`QueueFull`] error (abort semantics).

use super::{Afa, Bounded, Queue, QueueFull};
use std::ops::Range;

/// The retry-free, arbitrary-n concurrent queue on host threads.
///
/// ```
/// use gpu_queue::host::{RfAnQueue, SlotTicket};
///
/// let q = RfAnQueue::new(8);
/// // Consumers may reserve BEFORE data exists — that is the design.
/// let ticket = SlotTicket(q.reserve(1).start);
/// assert_eq!(q.try_take(ticket), None); // data not arrived
/// q.enqueue_batch(&[42]).unwrap();      // one fetch-add for any batch
/// assert_eq!(q.try_take(ticket), Some(42));
/// assert_eq!(q.stats().total_retries(), 0);
/// ```
pub type RfAnQueue = Queue<Afa, Bounded>;

impl RfAnQueue {
    /// Reserves `n` dequeue slots with a single fetch-add — the
    /// arbitrary-n property: any batch for the price of one atomic.
    /// Never fails; slots beyond the data simply stay pending.
    pub fn reserve(&self, n: usize) -> Range<u64> {
        self.claim(n as u64)
    }

    /// Enqueues a batch of tokens with a single fetch-add on `Rear`.
    ///
    /// # Errors
    /// [`QueueFull`] if the reservation exceeds capacity. (The tokens up
    /// to capacity are *not* written — like the paper's abort, the caller
    /// should restart with a larger queue.)
    ///
    /// **Abort-semantics invariant:** a failed batch leaves `Rear`
    /// advanced past capacity — the fetch-add cannot be undone without
    /// reintroducing the CAS retry loop the design exists to avoid. After
    /// a `QueueFull` the queue is in abort state: no further tokens can be
    /// published (every later reservation also lands past capacity), and
    /// accounting views such as [`Queue::len_hint`] clamp `Rear` to
    /// capacity so the overshoot never counts phantom tokens. The only way
    /// forward is [`Queue::reset`] with a larger queue, exactly like the
    /// paper's kernel abort.
    ///
    /// # Panics
    /// Panics if a token equals the sentinel.
    pub fn enqueue_batch(&self, tokens: &[u32]) -> Result<(), QueueFull> {
        self.put(tokens).map(drop)
    }

    /// Convenience single-token enqueue.
    pub fn enqueue(&self, token: u32) -> Result<(), QueueFull> {
        self.enqueue_batch(std::slice::from_ref(&token))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::host::{EnqueueError, SlotTicket, StatsSnapshot};
    use crate::DNA;
    use std::sync::atomic::{AtomicU64 as StdAtomicU64, Ordering};

    #[test]
    fn single_thread_roundtrip() {
        let q = RfAnQueue::new(8);
        q.enqueue_batch(&[10, 20, 30]).unwrap();
        let r = q.reserve(3);
        let toks: Vec<u32> = r
            .clone()
            .map(|s| q.try_take(SlotTicket(s)).expect("data present"))
            .collect();
        assert_eq!(toks, vec![10, 20, 30]);
    }

    #[test]
    fn reservation_before_data_polls_pending() {
        let q = RfAnQueue::new(4);
        let r = q.reserve(1);
        let t = SlotTicket(r.start);
        assert_eq!(q.try_take(t), None);
        q.enqueue(77).unwrap();
        assert_eq!(q.try_take(t), Some(77));
        // Sentinel restored: polling again reports pending, not stale data.
        assert_eq!(q.try_take(t), None);
    }

    #[test]
    fn out_of_bounds_ticket_is_pending_forever() {
        let q = RfAnQueue::new(2);
        let r = q.reserve(5);
        assert_eq!(q.try_take(SlotTicket(r.end - 1)), None);
    }

    #[test]
    fn overflow_returns_queue_full() {
        let q = RfAnQueue::new(2);
        assert_eq!(q.enqueue_batch(&[1, 2, 3]), Err(QueueFull { capacity: 2 }));
    }

    #[test]
    fn overflow_does_not_report_phantom_tokens() {
        let q = RfAnQueue::new(2);
        q.enqueue_batch(&[1, 2]).unwrap();
        assert_eq!(q.len_hint(), 2);
        // The failed batch advances Rear past capacity (abort semantics)
        // but publishes nothing — len_hint must not count the overshoot.
        assert_eq!(q.enqueue_batch(&[3, 4, 5]), Err(QueueFull { capacity: 2 }));
        assert_eq!(q.len_hint(), 2);
        // Draining the two real tokens empties the hint; the three
        // phantom reservations never surface.
        let r = q.reserve(2);
        assert_eq!(q.try_take(SlotTicket(r.start)), Some(1));
        assert_eq!(q.try_take(SlotTicket(r.start + 1)), Some(2));
        assert_eq!(q.len_hint(), 0);
        // Reset is the only recovery from abort state.
        let mut q = q;
        q.reset();
        assert_eq!(q.len_hint(), 0);
        q.enqueue_batch(&[7, 8]).unwrap();
        assert_eq!(q.len_hint(), 2);
    }

    #[test]
    fn try_enqueue_refuses_without_burning_the_reservation() {
        let q = RfAnQueue::new(2);
        q.enqueue_batch(&[1]).unwrap();
        // A visibly over-large batch is refused and Rear is untouched —
        // unlike enqueue_batch's abort semantics.
        assert_eq!(
            q.try_enqueue_batch(&[2, 3, 4]),
            Err(EnqueueError::Full(QueueFull { capacity: 2 }))
        );
        // The queue still works: the remaining slot is usable.
        q.try_enqueue_batch(&[2]).unwrap();
        assert_eq!(q.len_hint(), 2);
        let r = q.reserve(2);
        assert_eq!(q.try_take(SlotTicket(r.start)), Some(1));
        assert_eq!(q.try_take(SlotTicket(r.start + 1)), Some(2));
    }

    #[test]
    fn try_enqueue_rejects_sentinel_collisions_untouched() {
        let q = RfAnQueue::new(4);
        assert_eq!(
            q.try_enqueue_batch(&[1, DNA, 3]),
            Err(EnqueueError::InvalidToken { token: DNA })
        );
        assert_eq!(q.len_hint(), 0, "nothing published, Rear untouched");
        q.try_enqueue_batch(&[1, 2, 3]).unwrap();
        assert_eq!(q.len_hint(), 3);
    }

    #[test]
    fn batch_reservation_is_one_afa() {
        let q = RfAnQueue::new(64);
        q.enqueue_batch(&(0..32).collect::<Vec<_>>()).unwrap();
        let before = q.stats().afa_ops;
        q.reserve(32);
        assert_eq!(q.stats().afa_ops - before, 1);
    }

    #[test]
    fn reset_restores_initial_state() {
        let mut q = RfAnQueue::new(4);
        q.enqueue_batch(&[1, 2]).unwrap();
        q.reserve(2);
        q.reset();
        assert_eq!(q.len_hint(), 0);
        assert_eq!(q.stats(), StatsSnapshot::default());
        q.enqueue(9).unwrap();
        let r = q.reserve(1);
        assert_eq!(q.try_take(SlotTicket(r.start)), Some(9));
    }

    #[test]
    fn concurrent_producers_consumers_conserve_tokens() {
        const PRODUCERS: usize = 4;
        const CONSUMERS: usize = 4;
        const PER_PRODUCER: usize = 2_000;
        let q = RfAnQueue::new(PRODUCERS * PER_PRODUCER);
        let taken = StdAtomicU64::new(0);
        let mut seen: Vec<Vec<u32>> = Vec::new();
        std::thread::scope(|scope| {
            for p in 0..PRODUCERS {
                let q = &q;
                scope.spawn(move || {
                    let base = (p * PER_PRODUCER) as u32;
                    for chunk in (0..PER_PRODUCER as u32).collect::<Vec<_>>().chunks(37) {
                        let toks: Vec<u32> = chunk.iter().map(|i| base + i).collect();
                        q.enqueue_batch(&toks).unwrap();
                    }
                });
            }
            let mut handles = Vec::new();
            for _ in 0..CONSUMERS {
                let q = &q;
                let taken = &taken;
                handles.push(scope.spawn(move || {
                    let mut got = Vec::new();
                    let total = (PRODUCERS * PER_PRODUCER) as u64;
                    let mut pending: Vec<u64> = Vec::new();
                    loop {
                        if pending.is_empty() {
                            if taken.load(Ordering::Relaxed) >= total {
                                break;
                            }
                            pending.extend(q.reserve(16));
                        }
                        pending.retain(|&s| {
                            if let Some(tok) = q.try_take(SlotTicket(s)) {
                                got.push(tok);
                                taken.fetch_add(1, Ordering::Relaxed);
                                false
                            } else {
                                true
                            }
                        });
                        // Give up on slots that can never be filled once
                        // everything has been consumed.
                        if taken.load(Ordering::Relaxed) >= total {
                            break;
                        }
                        std::hint::spin_loop();
                    }
                    got
                }));
            }
            seen = handles.into_iter().map(|h| h.join().unwrap()).collect();
        });
        let mut all: Vec<u32> = seen.into_iter().flatten().collect();
        all.sort_unstable();
        let expect: Vec<u32> = (0..(PRODUCERS * PER_PRODUCER) as u32).collect();
        assert_eq!(all, expect, "every token exactly once");
        // Retry-free: no CAS, no empty exceptions — only data waits.
        let s = q.stats();
        assert_eq!(s.cas_attempts, 0);
        assert_eq!(s.empty_retries, 0);
    }
}
