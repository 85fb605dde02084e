//! The segmented family: the three protocols over [`Segmented`] storage.
//!
//! `Front` and `Rear` are the same monotone ticket counters, the fast path
//! *within* a segment is byte-for-byte the bounded protocol, and overflow
//! is impossible: a producer whose reservation crosses a segment boundary
//! installs the covering segment(s) instead of aborting (see
//! [`super::storage`](Segmented) for the handoff and the ABA argument).
//! Segment installs are counted separately
//! ([`StatsSnapshot::segment_appends`]); only `seg_cap` is configured.

use super::{Afa, Cas, Queue, Segmented, SlotTicket, StatsSnapshot};
use std::ops::Range;

/// Segmented retry-free arbitrary-n queue: the
/// [`RfAnQueue`](super::RfAnQueue) protocol over linked segments. One AFA
/// per batch reservation, zero CAS, zero retries; `enqueue_batch` cannot
/// fail — there is no queue-full condition.
pub type SegmentedRfAnQueue = Queue<Afa, Segmented>;

impl SegmentedRfAnQueue {
    /// Reserves `n` dequeue tickets with one AFA (never fails, may
    /// outrun `Rear` and even the installed prefix).
    pub fn reserve(&self, n: u64) -> Range<u64> {
        self.claim(n)
    }

    /// Enqueues a whole batch: one AFA on `Rear`, then installs any
    /// segment the reserved region touches beyond the installed prefix,
    /// then publishes. Cannot fail — overflow is a segment append.
    /// Returns the base ticket of the reserved region.
    pub fn enqueue_batch(&self, tokens: &[u32]) -> u64 {
        let Ok(base) = self.put(tokens);
        base
    }

    /// Enqueues one token.
    pub fn enqueue(&self, token: u32) {
        self.enqueue_batch(std::slice::from_ref(&token));
    }
}

/// Segmented CAS queue with batched reservations: the
/// [`AnQueue`](super::AnQueue) protocol over linked segments. The CAS can
/// still fail under contention (counted), but the queue-full rejection is
/// gone — a winning CAS always finds storage because the producer installs
/// the covering segments before publishing.
pub type SegmentedAnQueue = Queue<Cas, Segmented>;

impl SegmentedAnQueue {
    /// Enqueues a whole batch with one (looping) CAS reservation on
    /// `Rear`, installing covering segments before publishing. Never
    /// rejects: there is no capacity bound to exceed.
    pub fn push_batch(&self, tokens: &[u32]) {
        let Ok(_) = self.put(tokens);
    }
}

/// Segmented retry-free queue *without* arbitrary-n: the AFA core
/// restricted to width 1 (the RF-only ablation's segmented sibling).
#[derive(Debug)]
pub struct SegmentedRfQueue(SegmentedRfAnQueue);

impl SegmentedRfQueue {
    /// Creates a queue of `seg_cap`-slot segments.
    pub fn new(seg_cap: usize) -> Self {
        SegmentedRfQueue(Queue::new(seg_cap))
    }

    /// Enqueues one token: one AFA, then publish (installing the
    /// covering segment when the ticket crosses a boundary).
    pub fn enqueue(&self, token: u32) {
        self.0.enqueue(token);
    }

    /// Reserves one dequeue ticket (one AFA, never fails).
    pub fn reserve(&self) -> SlotTicket {
        SlotTicket(self.0.reserve(1).start)
    }

    /// Polls a reserved ticket.
    pub fn try_take(&self, ticket: SlotTicket) -> Option<u32> {
        self.0.try_take(ticket)
    }

    /// Published-token estimate (see [`Queue::len_hint`]).
    pub fn len_hint(&self) -> u64 {
        self.0.len_hint()
    }

    /// Operation counters.
    pub fn stats(&self) -> StatsSnapshot {
        self.0.stats()
    }

    /// Restores the initial state (exclusive access required).
    pub fn reset(&mut self) {
        self.0.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::host::queue::Put;
    use crate::host::EnqueueError;
    use crate::DNA;
    use std::sync::atomic::Ordering;
    use std::time::{Duration, Instant};

    #[test]
    fn fifo_across_segment_boundaries() {
        let q = SegmentedRfAnQueue::new(4);
        q.enqueue_batch(&(0..10).collect::<Vec<_>>());
        for expect in 0..10 {
            let t = q.reserve(1);
            assert_eq!(q.try_take(SlotTicket(t.start)), Some(expect));
        }
        assert_eq!(q.live_segments(), 1, "segments 0 and 1 drained");
    }

    #[test]
    fn overflow_is_a_segment_append_not_a_failure() {
        let q = SegmentedRfAnQueue::new(8);
        // 100 tokens through 8-slot segments: a bounded ring would abort
        // at token 8; here every batch lands.
        for chunk in (0..100u32).collect::<Vec<_>>().chunks(7) {
            q.enqueue_batch(chunk);
        }
        let s = q.stats();
        assert_eq!(s.cas_attempts, 0);
        assert_eq!(s.total_retries(), 0);
        assert_eq!(s.segment_appends, 13, "ceil(100/8) segments installed");
        assert_eq!(q.len_hint(), 100);
    }

    #[test]
    fn len_hint_exceeds_a_single_segment_capacity() {
        // The clamp asymmetry: the bounded queue saturates against its
        // one ring's capacity; a segmented hint must saturate against the
        // total across installed segments instead.
        let q = SegmentedRfAnQueue::new(4);
        q.enqueue_batch(&(0..10).collect::<Vec<_>>());
        assert_eq!(q.len_hint(), 10, "must not clamp to seg_cap = 4");
    }

    #[test]
    fn len_hint_saturates_at_the_installed_boundary() {
        // Pin the mid-install window by stepping the enqueue machine:
        // tickets are reserved but the covering segments are not
        // installed yet.
        let q = SegmentedRfAnQueue::new(4);
        let tokens = [1, 2, 3, 4, 5, 6];
        let mut put = Put::<Afa>::new(&tokens);
        let mut step = || put.step(&q, &tokens, |_| {});
        step(); // the Rear AFA
        assert_eq!(q.len_hint(), 0, "no storage installed yet");
        step();
        assert_eq!(q.len_hint(), 4, "clamped to one installed segment");
        step();
        assert_eq!(q.len_hint(), 6, "both covering segments installed");
        step(); // the probe that finds the region covered
        assert_eq!(q.stats().segment_appends, 2, "reinstall is idempotent");
    }

    #[test]
    fn drained_segments_recycle_instead_of_allocating() {
        let q = SegmentedRfAnQueue::new(2);
        for round in 0..50u32 {
            q.enqueue_batch(&[round * 2, round * 2 + 1]);
            let r = q.reserve(2);
            assert_eq!(q.try_take(SlotTicket(r.start)), Some(round * 2));
            assert_eq!(q.try_take(SlotTicket(r.start + 1)), Some(round * 2 + 1));
        }
        // 50 segments installed over the run, but at most 1 live at a
        // time: the pool recycles one storage forever.
        assert_eq!(q.stats().segment_appends, 50);
        assert_eq!(q.fresh_allocs(), 1, "memory bounded by live occupancy");
        assert_eq!(q.live_segments(), 0);
    }

    #[test]
    fn reserve_ahead_of_installation_is_harmless() {
        let q = SegmentedRfAnQueue::new(4);
        let r = q.reserve(3);
        assert_eq!(q.try_take(SlotTicket(r.start)), None, "nothing installed");
        q.enqueue_batch(&[7]);
        assert_eq!(q.try_take(SlotTicket(r.start)), Some(7));
        assert_eq!(q.try_take(SlotTicket(r.start + 1)), None, "unpublished");
        assert!(q.stats().data_waits >= 2);
    }

    #[test]
    fn reset_restores_initial_state() {
        let mut q = SegmentedRfAnQueue::new(4);
        q.enqueue_batch(&[1, 2, 3, 4, 5]);
        let r = q.reserve(2);
        q.try_take(SlotTicket(r.start));
        q.reset();
        assert_eq!(q.len_hint(), 0);
        assert_eq!(q.stats(), StatsSnapshot::default());
        assert_eq!(q.live_segments(), 0);
        q.enqueue_batch(&[9]);
        assert_eq!(q.try_take(SlotTicket(q.reserve(1).start)), Some(9));
    }

    #[test]
    fn invalid_token_is_the_only_enqueue_failure() {
        let q = SegmentedRfAnQueue::new(4);
        assert!(q.try_enqueue_batch(&(0..100).collect::<Vec<_>>()).is_ok());
        assert_eq!(
            q.try_enqueue_batch(&[1, DNA]),
            Err(EnqueueError::InvalidToken { token: DNA })
        );
    }

    #[test]
    fn covered_enqueues_never_enter_the_handoff() {
        // Width 1 is one `install_next` probe per token: all but the one
        // that crosses into a new segment must stop at the atomic.
        let q = SegmentedRfQueue::new(20_000);
        q.enqueue(0);
        assert_eq!(q.stats().segment_appends, 1, "the first token installs");
        // With the handoff state locked away, whoever reaches for it
        // blocks until the watchdog below gives up.
        let held = q.0.storage().handoff();
        std::thread::scope(|scope| {
            let worker = scope.spawn(|| {
                for t in 1..=10_000 {
                    q.enqueue(t);
                    assert_eq!(q.try_take(q.reserve()), Some(t - 1));
                }
            });
            let deadline = Instant::now() + Duration::from_secs(20);
            while !worker.is_finished() && Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(1));
            }
            let finished = worker.is_finished();
            drop(held);
            assert!(finished, "a covered put or a non-final take locked");
        });
    }

    #[test]
    fn straggler_in_segment_zero_does_not_stop_newer_segments_recycling() {
        const SEGMENTS: u32 = 10_000;
        let q = SegmentedRfAnQueue::new(2);
        q.enqueue_batch(&[0, 1]);
        // The straggler: ticket 0 stays unconsumed, so segment 0 stays
        // live — and holds its ring entry — for the whole run.
        let held = SlotTicket(q.reserve(1).start);
        assert_eq!(q.try_take(SlotTicket(q.reserve(1).start)), Some(1));
        let mut grown = None;
        for seg in 1..=SEGMENTS {
            q.enqueue_batch(&[2 * seg, 2 * seg + 1]);
            for want in [2 * seg, 2 * seg + 1] {
                assert_eq!(q.try_take(SlotTicket(q.reserve(1).start)), Some(want));
            }
            assert_eq!(q.live_segments(), 1, "segment {seg} did not retire");
            // The first segment to meet segment 0 in every level appends
            // one — by segment 64 even a production-sized first level has
            // — and after that the directory is as large as it gets.
            if seg == 64 {
                grown = Some(q.meta_bytes());
            }
        }
        assert!(grown > Some(SegmentedRfAnQueue::new(2).meta_bytes()));
        assert_eq!(Some(q.meta_bytes()), grown, "metadata grew with lifetime");
        assert_eq!(q.try_take(held), Some(0), "the old ticket lost its token");
        assert_eq!(q.live_segments(), 0);
        assert_eq!(q.fresh_allocs(), 2, "the straggler's storage plus one");
        assert_eq!(q.stats().segment_appends, u64::from(SEGMENTS) + 1);
    }

    #[test]
    fn stale_ticket_into_a_recycled_segment_reads_nothing() {
        let q = SegmentedRfAnQueue::new(2);
        q.enqueue_batch(&[10, 11]);
        let old = q.reserve(2);
        assert_eq!(q.try_take(SlotTicket(old.start)), Some(10));
        assert_eq!(q.try_take(SlotTicket(old.start + 1)), Some(11));
        // Segment 0 retired; its storage and (the unit-test directory
        // starts at one entry) its ring entry now serve segment 1.
        q.enqueue_batch(&[20, 21]);
        assert_eq!(q.fresh_allocs(), 1);
        for stale in old {
            assert_eq!(q.try_take(SlotTicket(stale)), None, "tag mismatch");
        }
        let new = q.reserve(2);
        assert_eq!(q.try_take(SlotTicket(new.start)), Some(20));
        assert_eq!(q.try_take(SlotTicket(new.start + 1)), Some(21));
    }

    /// The stress below: threads a side, the backlog the producers
    /// respect, their widest batch and the consumers' reservation.
    const THREADS: usize = 4;
    const BACKLOG: usize = 512;
    const BATCH: usize = 23;
    const RESERVE: usize = 8;

    /// `THREADS` producers x `THREADS` consumers move `THREADS * per`
    /// distinct tokens through `seg_cap`-slot segments under a bounded
    /// backlog, allocating at most `max_fresh` segment storages.
    fn stress(seg_cap: usize, per: usize, max_fresh: usize) {
        let q = SegmentedRfAnQueue::new(seg_cap);
        // Quota-based termination: consumers poll until every token is
        // collectively consumed, so a ticket holding data is always owned
        // by a live consumer (no stranded tokens, no exit races).
        let taken = std::sync::atomic::AtomicUsize::new(0);
        let mut all: Vec<u32> = Vec::new();
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let q = &q;
                scope.spawn(move || {
                    let tokens: Vec<u32> = (0..per as u32).map(|i| (t * per) as u32 + i).collect();
                    for chunk in tokens.chunks(BATCH) {
                        // Bounded backlog: fresh allocations track *live*
                        // occupancy, so a producer that respects
                        // backpressure keeps the arena small no matter how
                        // many lifetime segments flow through.
                        while q.len_hint() > BACKLOG as u64 {
                            std::thread::yield_now();
                        }
                        q.enqueue_batch(chunk);
                    }
                });
            }
            let mut handles = Vec::new();
            for _ in 0..THREADS {
                let q = &q;
                let taken = &taken;
                handles.push(scope.spawn(move || {
                    let mut got = Vec::new();
                    let mut pending: Vec<u64> = Vec::new();
                    while taken.load(Ordering::Relaxed) < THREADS * per {
                        if pending.is_empty() {
                            pending.extend(q.reserve(RESERVE as u64));
                        }
                        pending.retain(|&slot| match q.try_take(SlotTicket(slot)) {
                            Some(v) => {
                                got.push(v);
                                taken.fetch_add(1, Ordering::Relaxed);
                                false
                            }
                            None => true,
                        });
                        std::thread::yield_now();
                    }
                    got
                }));
            }
            all = handles
                .into_iter()
                .flat_map(|h| h.join().unwrap())
                .collect();
        });
        all.sort_unstable();
        assert_eq!(all, (0..(THREADS * per) as u32).collect::<Vec<_>>());
        let s = q.stats();
        assert_eq!(s.cas_attempts, 0, "segmented RF/AN must never CAS");
        assert_eq!(s.total_retries(), 0);
        assert!(s.segment_appends >= (THREADS * per / seg_cap) as u64);
        // The memory bound: fresh allocations track the *live* segments —
        // `max_fresh` of them — while hundreds of lifetime segments recycle.
        assert!(
            q.fresh_allocs() <= max_fresh as u64,
            "fresh {} > {max_fresh}, appends {}",
            q.fresh_allocs(),
            s.segment_appends
        );
    }

    #[test]
    fn concurrent_producers_consumers_conserve_tokens() {
        // With backlog capped near 512 tokens (~8 live segments plus
        // reserve-ahead slack), fresh allocations stay a small constant.
        stress(64, 4_000, 64);
    }

    #[test]
    fn concurrent_handoff_storm_through_tiny_segments() {
        // A handoff every second or third token. A live segment holds a
        // token that is claimed but not consumed: the backlog, plus a batch
        // per producer and a reservation per consumer in flight — and twice
        // that many segments (partly drained ones count whole) is the
        // bound. A release build moves a million tokens per row; a debug
        // build, sharing its cores with the rest of the suite, 16 000.
        let per = if cfg!(debug_assertions) {
            4_000
        } else {
            250_000
        };
        let in_flight = BACKLOG + THREADS * (BATCH + RESERVE);
        for seg_cap in [2, 3] {
            stress(seg_cap, per, 2 * in_flight / seg_cap);
        }
    }

    #[test]
    fn segmented_an_batch_roundtrip_never_rejects() {
        let q = SegmentedAnQueue::new(3);
        // The bounded AnQueue would reject once Rear hit capacity; the
        // segmented one installs segments instead.
        for chunk in (0..40u32).collect::<Vec<_>>().chunks(4) {
            q.push_batch(chunk);
        }
        let mut out = Vec::new();
        while q.pop_batch(&mut out, 7) > 0 {}
        out.sort_unstable();
        assert_eq!(out, (0..40).collect::<Vec<_>>());
        let s = q.stats();
        assert!(s.cas_attempts >= 14, "CAS reservation per batch");
        assert!(s.segment_appends >= 14, "ceil(40/3) installs");
    }

    #[test]
    fn segmented_rf_single_token_roundtrip() {
        let q = SegmentedRfQueue::new(2);
        for t in 0..9 {
            q.enqueue(t);
        }
        for expect in 0..9 {
            assert_eq!(q.try_take(q.reserve()), Some(expect));
        }
        assert_eq!(q.stats().cas_attempts, 0);
        assert!(q.len_hint() == 0);
    }
}
