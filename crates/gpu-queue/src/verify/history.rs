//! Operation histories and a Wing–Gong linearizability checker.
//!
//! The explorer ([`super::explorer`]) records every completed queue
//! operation as a [`CompletedOp`] with start/end timestamps from a global
//! logical clock (one tick per explored step). The checker then searches
//! for a *linearization*: a total order of the operations that (a) respects
//! real-time precedence (if `a` finished before `b` started, `a` comes
//! first) and (b) is legal for a sequential queue specification.
//!
//! Specs are **batch-aware**: `reserve(n)` is one linearization point that
//! claims `n` slots atomically, and `enqueue_batch` publishes a whole
//! region from a single `Rear` ticket — matching the paper's arbitrary-n
//! property rather than decomposing batches into per-token operations.

use std::collections::{HashMap, HashSet, VecDeque};

/// One queue operation with its observed outcome.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Op {
    /// CAS-core enqueue, all or nothing; `ok = false` means the queue was
    /// full. A width-1 push is a one-token batch.
    PushBatch { tokens: Vec<u32>, ok: bool },
    /// CAS-core dequeue of up to `max` tokens; `taken` is what actually
    /// arrived (empty = queue-empty exception). A width-1 pop has `max: 1`.
    PopBatch { max: usize, taken: Vec<u32> },
    /// RF/AN dequeue-side reservation: one AFA claiming `n` slots
    /// starting at `base`.
    Reserve { n: u64, base: u64 },
    /// RF/AN enqueue reservation: one AFA claiming a region at `base` —
    /// the single linearization point of the whole batch. `ok = false` is
    /// the overflow abort (the reservation still advanced `Rear`, nothing
    /// gets published). Data lands per-slot afterwards via [`Op::Publish`]
    /// — batch publication is *not* atomic; that is the sentinel design.
    EnqueueBatch {
        base: u64,
        tokens: Vec<u32>,
        ok: bool,
    },
    /// RF/AN per-slot publication: the release store flipping `slot` from
    /// the sentinel to `token`.
    Publish { slot: u64, token: u32 },
    /// RF/AN slot poll: `Some` consumed the published token, `None` found
    /// the sentinel (data not yet arrived).
    TryTake { slot: u64, result: Option<u32> },
    /// Segmented only: the directory store publishing virtual segment
    /// `seg`'s storage — the segment-handoff linearization point. Installs
    /// are strictly in order (`seg` counts up from 0).
    InstallSegment { seg: u64 },
    /// Segmented only: retirement of a fully drained segment back to the
    /// pool. Legal only once every slot of `seg` has been consumed;
    /// retirements may complete out of order.
    RecycleSegment { seg: u64 },
}

/// An operation together with who ran it and when.
#[derive(Clone, Debug)]
pub struct CompletedOp {
    /// Explorer thread index.
    pub thread: usize,
    /// Logical time of the operation's first step.
    pub start: u64,
    /// Logical time of the operation's last step.
    pub end: u64,
    /// What happened.
    pub op: Op,
}

/// A complete run: every operation observed under one schedule.
#[derive(Clone, Debug, Default)]
pub struct History {
    /// Completed operations, in completion order.
    pub ops: Vec<CompletedOp>,
}

/// Records operations against a global logical clock.
///
/// The explorer advances the clock once per scheduled step, so two
/// operations overlap in the history exactly when their steps interleave
/// in the schedule.
#[derive(Debug, Default)]
pub struct Recorder {
    clock: u64,
    history: History,
}

impl Recorder {
    /// Current logical time (= steps scheduled so far).
    pub fn now(&self) -> u64 {
        self.clock
    }

    /// Advances the clock by one step.
    pub fn advance(&mut self) {
        self.clock += 1;
    }

    /// Records an operation whose single linearizable step happened *now*
    /// (start == end) — e.g. an RF/AN AFA reservation.
    pub fn atomic(&mut self, thread: usize, op: Op) {
        let t = self.clock;
        self.record(thread, t, op);
    }

    /// Records an operation that began at `start` and completed now.
    pub fn record(&mut self, thread: usize, start: u64, op: Op) {
        debug_assert!(start <= self.clock);
        self.history.ops.push(CompletedOp {
            thread,
            start,
            end: self.clock,
            op,
        });
    }

    /// Consumes the recorder, yielding the history.
    pub fn into_history(self) -> History {
        self.history
    }
}

/// A sequential specification: can `op` legally happen next?
///
/// `apply` may leave the state corrupted when it returns `false` — the
/// checker always clones before applying.
pub trait SeqSpec: Clone {
    /// Applies `op`; `true` iff the recorded outcome is legal here.
    fn apply(&mut self, op: &Op) -> bool;
}

/// Sequential spec of the CAS core ([`crate::host::AnQueue`],
/// [`crate::host::SegmentedAnQueue`], and [`crate::host::BaseQueue`] at
/// width 1): all-or-nothing batch pushes, batch pops that take exactly
/// `min(available, max)` tokens in FIFO order.
#[derive(Clone, Debug)]
pub struct FifoSpec {
    capacity: usize,
    /// Total tokens ever pushed (the queues are non-wrapping: capacity
    /// bounds lifetime pushes, not occupancy).
    pushed: usize,
    queue: VecDeque<u32>,
}

impl FifoSpec {
    /// Empty queue with `capacity` lifetime slots (`usize::MAX` for
    /// segmented storage, which never overflows).
    pub fn new(capacity: usize) -> Self {
        FifoSpec {
            capacity,
            pushed: 0,
            queue: VecDeque::new(),
        }
    }
}

impl SeqSpec for FifoSpec {
    fn apply(&mut self, op: &Op) -> bool {
        match op {
            Op::PushBatch { tokens, ok } => {
                let fits = self.pushed + tokens.len() <= self.capacity;
                if fits {
                    self.pushed += tokens.len();
                    self.queue.extend(tokens.iter().copied());
                }
                fits == *ok
            }
            Op::PopBatch { max, taken } => {
                let n = self.queue.len().min(*max);
                taken.len() == n && taken.iter().all(|t| self.queue.pop_front() == Some(*t))
            }
            _ => false,
        }
    }
}

/// Sequential spec of the AFA ticket protocol over either storage
/// ([`crate::host::RfAnQueue`], [`crate::host::SegmentedRfAnQueue`], and
/// [`crate::host::SegmentedRfQueue`] at width 1).
///
/// `Front`/`Rear` are explicit because the protocol's linearization
/// points are the AFA reservations themselves: a `Reserve { n, base }` is
/// legal exactly when `base` equals the current `Front` (then `Front`
/// advances by `n` — one point for `n` slots). An `EnqueueBatch` advances
/// `Rear` even when it overflows (abort semantics) and, on success, makes
/// its region *writable*; each token then arrives via its own
/// [`Op::Publish`] point (batch publication is not atomic — consumers may
/// observe any prefix through the sentinel). `TryTake` consumes a
/// published slot or legally observes the sentinel.
///
/// The storage adds one rule set: [`TicketSpec::bounded`] aborts a batch
/// past the lifetime capacity; [`TicketSpec::segmented`] never overflows
/// but gates each publish on its segment's install and allows a segment's
/// recycling only after a full drain.
#[derive(Clone, Debug)]
pub struct TicketSpec {
    front: u64,
    rear: u64,
    /// Reserved-but-unpublished slots and the token each must receive.
    writable: HashMap<u64, u32>,
    published: HashMap<u64, u32>,
    slots: Slots,
}

/// The storage rules of a [`TicketSpec`].
#[derive(Clone, Debug)]
enum Slots {
    /// One ring of `capacity` lifetime slots: a batch past its end aborts,
    /// and there are no segments to install or recycle.
    Bounded { capacity: u64 },
    /// An unbounded ticket space over segments of `cap` slots — an
    /// `EnqueueBatch` always succeeds, but a slot only becomes publishable
    /// once its segment's storage exists. [`Op::InstallSegment`] is the
    /// directory store that publishes virtual segment `k`'s storage
    /// (strictly in order, the contiguous-prefix invariant behind the
    /// lock-free `len_hint` clamp), and [`Op::RecycleSegment`] retires a
    /// segment to the pool, legal only when every one of its `cap` slots
    /// has been consumed — which is exactly the ABA exclusion argument: no
    /// live ticket can observe recycled storage, because an unconsumed
    /// ticket in the segment would have blocked the retirement.
    /// Retirements may complete out of order (a slow consumer in segment 0
    /// must not stall segment 1's retirement). Publishing into a recycled
    /// segment is a use-after-free; no rule of its own rejects it, because
    /// a full drain means every slot of the segment was published, and a
    /// slot is writable once.
    Segmented {
        cap: u64,
        /// Segments installed so far (in order: ids `0..installed`).
        installed: u64,
        /// Consumed-slot count per segment with at least one consumption.
        consumed: HashMap<u64, u64>,
        /// Segments retired back to the pool (each retires once).
        recycled: HashSet<u64>,
    },
}

impl TicketSpec {
    fn with(slots: Slots) -> Self {
        TicketSpec {
            front: 0,
            rear: 0,
            writable: HashMap::new(),
            published: HashMap::new(),
            slots,
        }
    }

    /// Empty bounded queue with `capacity` lifetime slots.
    pub fn bounded(capacity: usize) -> Self {
        Self::with(Slots::Bounded {
            capacity: capacity as u64,
        })
    }

    /// Empty segmented queue with `seg_cap` slots per segment.
    pub fn segmented(seg_cap: usize) -> Self {
        Self::with(Slots::Segmented {
            cap: seg_cap as u64,
            installed: 0,
            consumed: HashMap::new(),
            recycled: HashSet::new(),
        })
    }
}

impl SeqSpec for TicketSpec {
    fn apply(&mut self, op: &Op) -> bool {
        match (op, &mut self.slots) {
            (Op::Reserve { n, base }, _) => {
                if *base != self.front {
                    return false;
                }
                self.front += n;
                true
            }
            (Op::EnqueueBatch { base, tokens, ok }, slots) => {
                if *base != self.rear {
                    return false;
                }
                // Abort semantics: Rear advances even on overflow.
                self.rear += tokens.len() as u64;
                let fits = match slots {
                    Slots::Bounded { capacity } => self.rear <= *capacity,
                    Slots::Segmented { .. } => true,
                };
                if fits {
                    for (i, &tok) in tokens.iter().enumerate() {
                        self.writable.insert(base + i as u64, tok);
                    }
                }
                fits == *ok
            }
            (Op::Publish { slot, token }, slots) => {
                let live = match slots {
                    Slots::Bounded { .. } => true,
                    Slots::Segmented { cap, installed, .. } => slot / *cap < *installed,
                };
                live && self.writable.remove(slot) == Some(*token) && {
                    self.published.insert(*slot, *token);
                    true
                }
            }
            (Op::TryTake { slot, result }, slots) => match result {
                Some(v) => {
                    self.published.remove(slot) == Some(*v) && {
                        if let Slots::Segmented { cap, consumed, .. } = slots {
                            *consumed.entry(slot / *cap).or_insert(0) += 1;
                        }
                        true
                    }
                }
                None => !self.published.contains_key(slot),
            },
            (Op::InstallSegment { seg }, Slots::Segmented { installed, .. }) => {
                *seg == *installed && {
                    *installed += 1;
                    true
                }
            }
            (
                Op::RecycleSegment { seg },
                Slots::Segmented {
                    cap,
                    installed,
                    consumed,
                    recycled,
                },
            ) => {
                *seg < *installed
                    && consumed.get(seg).copied().unwrap_or(0) == *cap
                    && recycled.insert(*seg)
            }
            _ => false,
        }
    }
}

/// Upper bound on checkable history size (the search is exponential in
/// the worst case; explored scenarios stay far below this).
pub const MAX_CHECKED_OPS: usize = 64;

/// Wing–Gong linearizability check: is there a total order of `history`
/// that respects real-time precedence and is legal for `spec`?
///
/// Recursive search over candidates whose predecessors are all placed,
/// cloning the spec state before each tentative apply. No memoization —
/// with a stateful spec the reachable state depends on the order chosen,
/// so caching on the "done" set alone would be unsound.
///
/// # Panics
/// Panics if the history exceeds [`MAX_CHECKED_OPS`] operations.
pub fn check_linearizable<S: SeqSpec>(history: &History, spec: S) -> bool {
    let n = history.ops.len();
    assert!(
        n <= MAX_CHECKED_OPS,
        "history too large for the checker: {n} ops"
    );
    // pred[i] = bitmask of ops that must precede op i (real-time order).
    let mut pred = vec![0u64; n];
    for (i, mask) in pred.iter_mut().enumerate() {
        for j in 0..n {
            if i != j && history.ops[j].end < history.ops[i].start {
                *mask |= 1 << j;
            }
        }
    }
    fn search<S: SeqSpec>(history: &History, pred: &[u64], done: u64, spec: &S) -> bool {
        let n = history.ops.len();
        if done.count_ones() as usize == n {
            return true;
        }
        for i in 0..n {
            if done & (1 << i) != 0 {
                continue;
            }
            // Every real-time predecessor must already be linearized.
            if pred[i] & !done != 0 {
                continue;
            }
            let mut next = spec.clone();
            if next.apply(&history.ops[i].op) && search(history, pred, done | (1 << i), &next) {
                return true;
            }
        }
        false
    }
    search(history, &pred, 0, &spec)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq(ops: Vec<Op>) -> History {
        // Fully sequential history: op k occupies [k, k].
        History {
            ops: ops
                .into_iter()
                .enumerate()
                .map(|(k, op)| CompletedOp {
                    thread: 0,
                    start: k as u64,
                    end: k as u64,
                    op,
                })
                .collect(),
        }
    }

    /// Width-1 CAS operations, as BASE records them.
    fn push(token: u32) -> Op {
        Op::PushBatch {
            tokens: vec![token],
            ok: true,
        }
    }

    fn pop(result: Option<u32>) -> Op {
        Op::PopBatch {
            max: 1,
            taken: result.into_iter().collect(),
        }
    }

    #[test]
    fn sequential_fifo_history_passes() {
        let h = seq(vec![
            push(1),
            push(2),
            pop(Some(1)),
            pop(Some(2)),
            pop(None),
        ]);
        assert!(check_linearizable(&h, FifoSpec::new(4)));
    }

    #[test]
    fn value_invention_is_rejected() {
        let h = seq(vec![push(1), pop(Some(9))]);
        assert!(!check_linearizable(&h, FifoSpec::new(4)));
    }

    #[test]
    fn double_delivery_is_rejected() {
        let h = seq(vec![push(1), pop(Some(1)), pop(Some(1))]);
        assert!(!check_linearizable(&h, FifoSpec::new(4)));
    }

    #[test]
    fn empty_width_one_pop_on_a_non_empty_queue_is_rejected() {
        let h = seq(vec![push(1), pop(None)]);
        assert!(!check_linearizable(&h, FifoSpec::new(4)));
    }

    #[test]
    fn fifo_order_violation_is_rejected() {
        let h = seq(vec![push(1), push(2), pop(Some(2))]);
        assert!(!check_linearizable(&h, FifoSpec::new(4)));
    }

    #[test]
    fn overlap_permits_reordering_but_precedence_binds() {
        // Twist: pop(2) completes before pop(1) in completion order, but
        // the pops overlap both pushes — a legal linearization exists.
        let h = History {
            ops: vec![
                CompletedOp {
                    thread: 0,
                    start: 0,
                    end: 3,
                    op: push(1),
                },
                CompletedOp {
                    thread: 0,
                    start: 0,
                    end: 4,
                    op: push(2),
                },
                CompletedOp {
                    thread: 1,
                    start: 1,
                    end: 5,
                    op: pop(Some(2)),
                },
                CompletedOp {
                    thread: 2,
                    start: 1,
                    end: 6,
                    op: pop(Some(1)),
                },
            ],
        };
        assert!(check_linearizable(&h, FifoSpec::new(4)));
        // Same outcomes forced sequential: pop(2) before pop(1) with both
        // pushes already linearized is a FIFO violation.
        let h2 = seq(vec![push(1), push(2), pop(Some(2)), pop(Some(1))]);
        assert!(!check_linearizable(&h2, FifoSpec::new(4)));
    }

    #[test]
    fn batch_spec_is_all_or_nothing() {
        let h = seq(vec![
            Op::PushBatch {
                tokens: vec![1, 2],
                ok: true,
            },
            Op::PushBatch {
                tokens: vec![3, 4],
                ok: false, // capacity 3: whole batch rejected
            },
            Op::PopBatch {
                max: 10,
                taken: vec![1, 2],
            },
        ]);
        assert!(check_linearizable(&h, FifoSpec::new(3)));
        // A partial batch take is illegal: must take min(avail, max).
        let h2 = seq(vec![
            Op::PushBatch {
                tokens: vec![1, 2],
                ok: true,
            },
            Op::PopBatch {
                max: 10,
                taken: vec![1],
            },
        ]);
        assert!(!check_linearizable(&h2, FifoSpec::new(3)));
    }

    #[test]
    fn ticket_spec_reservation_is_one_point_for_n_slots() {
        let h = seq(vec![
            Op::EnqueueBatch {
                base: 0,
                tokens: vec![5, 6, 7],
                ok: true,
            },
            Op::Publish { slot: 0, token: 5 },
            Op::Publish { slot: 1, token: 6 },
            Op::Reserve { n: 3, base: 0 },
            Op::TryTake {
                slot: 1,
                result: Some(6),
            },
            Op::TryTake {
                slot: 0,
                result: Some(5),
            },
            // Slot 2 not yet published: the sentinel is a legal read.
            Op::TryTake {
                slot: 2,
                result: None,
            },
            Op::Publish { slot: 2, token: 7 },
            Op::TryTake {
                slot: 2,
                result: Some(7),
            },
        ]);
        assert!(check_linearizable(&h, TicketSpec::bounded(4)));
    }

    #[test]
    fn ticket_spec_rejects_publish_to_unreserved_slot() {
        let h = seq(vec![Op::Publish { slot: 0, token: 5 }]);
        assert!(!check_linearizable(&h, TicketSpec::bounded(4)));
        // Double publish of a reserved slot is equally illegal.
        let h2 = seq(vec![
            Op::EnqueueBatch {
                base: 0,
                tokens: vec![5],
                ok: true,
            },
            Op::Publish { slot: 0, token: 5 },
            Op::Publish { slot: 0, token: 5 },
        ]);
        assert!(!check_linearizable(&h2, TicketSpec::bounded(4)));
    }

    #[test]
    fn ticket_spec_rejects_wrong_reservation_base() {
        // Two overlapping reserves cannot both start at base 0.
        let h = seq(vec![
            Op::Reserve { n: 2, base: 0 },
            Op::Reserve { n: 2, base: 0 },
        ]);
        assert!(!check_linearizable(&h, TicketSpec::bounded(8)));
    }

    #[test]
    fn ticket_spec_abort_advances_rear() {
        // Capacity 2: first batch fills it, second overflows (ok: false)
        // but still advances Rear — a third batch claiming base 2 would
        // also be illegal at base 2? No: Rear is now 4, so base must be 4.
        let h = seq(vec![
            Op::EnqueueBatch {
                base: 0,
                tokens: vec![1, 2],
                ok: true,
            },
            Op::EnqueueBatch {
                base: 2,
                tokens: vec![3, 4],
                ok: false,
            },
            Op::EnqueueBatch {
                base: 4,
                tokens: vec![5],
                ok: false,
            },
        ]);
        assert!(check_linearizable(&h, TicketSpec::bounded(2)));
    }

    #[test]
    fn ticket_spec_taking_unpublished_slot_is_rejected() {
        let h = seq(vec![
            Op::EnqueueBatch {
                base: 0,
                tokens: vec![1, 2],
                ok: false, // claims overflow, but capacity holds both
            },
            Op::TryTake {
                slot: 0,
                result: Some(1),
            },
        ]);
        assert!(!check_linearizable(&h, TicketSpec::bounded(8)));
    }

    #[test]
    fn seg_spec_gates_publish_on_installation() {
        // Reservation straddles a segment boundary (seg_cap 2): slots 0–1
        // are publishable after install 0, slot 2 only after install 1.
        let enq = Op::EnqueueBatch {
            base: 0,
            tokens: vec![5, 6, 7],
            ok: true,
        };
        let h = seq(vec![
            enq.clone(),
            Op::InstallSegment { seg: 0 },
            Op::Publish { slot: 0, token: 5 },
            Op::Publish { slot: 1, token: 6 },
            Op::InstallSegment { seg: 1 },
            Op::Publish { slot: 2, token: 7 },
        ]);
        assert!(check_linearizable(&h, TicketSpec::segmented(2)));
        // Without the second install, publishing slot 2 is illegal.
        let h2 = seq(vec![
            enq,
            Op::InstallSegment { seg: 0 },
            Op::Publish { slot: 2, token: 7 },
        ]);
        assert!(!check_linearizable(&h2, TicketSpec::segmented(2)));
    }

    #[test]
    fn seg_spec_installs_are_in_order() {
        let h = seq(vec![Op::InstallSegment { seg: 1 }]);
        assert!(!check_linearizable(&h, TicketSpec::segmented(2)));
        let h2 = seq(vec![
            Op::InstallSegment { seg: 0 },
            Op::InstallSegment { seg: 0 },
        ]);
        assert!(!check_linearizable(&h2, TicketSpec::segmented(2)));
    }

    #[test]
    fn seg_spec_never_overflows() {
        // 100 tokens through seg_cap 2 with only the first installed:
        // the reservation itself is always legal.
        let h = seq(vec![
            Op::EnqueueBatch {
                base: 0,
                tokens: (0..100).collect(),
                ok: true,
            },
            Op::InstallSegment { seg: 0 },
        ]);
        assert!(check_linearizable(&h, TicketSpec::segmented(2)));
    }

    #[test]
    fn segmented_ticket_spec_rejects_an_overflow_abort() {
        let h = seq(vec![Op::EnqueueBatch {
            base: 0,
            tokens: vec![1],
            ok: false,
        }]);
        assert!(!check_linearizable(&h, TicketSpec::segmented(2)));
    }

    #[test]
    fn bounded_ticket_spec_rejects_segment_lifecycle_ops() {
        for op in [Op::InstallSegment { seg: 0 }, Op::RecycleSegment { seg: 0 }] {
            let h = seq(vec![op]);
            assert!(!check_linearizable(&h, TicketSpec::bounded(4)), "{h:?}");
        }
    }

    #[test]
    fn seg_spec_recycle_requires_full_drain() {
        let mk = |recycle_early: bool| {
            let mut ops = vec![
                Op::EnqueueBatch {
                    base: 0,
                    tokens: vec![5, 6],
                    ok: true,
                },
                Op::InstallSegment { seg: 0 },
                Op::Publish { slot: 0, token: 5 },
                Op::Publish { slot: 1, token: 6 },
                Op::Reserve { n: 2, base: 0 },
                Op::TryTake {
                    slot: 0,
                    result: Some(5),
                },
            ];
            if recycle_early {
                ops.push(Op::RecycleSegment { seg: 0 });
            }
            ops.push(Op::TryTake {
                slot: 1,
                result: Some(6),
            });
            if !recycle_early {
                ops.push(Op::RecycleSegment { seg: 0 });
            }
            seq(ops)
        };
        assert!(check_linearizable(&mk(false), TicketSpec::segmented(2)));
        // One slot still unconsumed: retirement is illegal — the ABA
        // exclusion argument as a checkable property.
        assert!(!check_linearizable(&mk(true), TicketSpec::segmented(2)));
    }

    #[test]
    fn seg_spec_publish_after_recycle_is_use_after_free() {
        let mut ops = vec![
            Op::EnqueueBatch {
                base: 0,
                tokens: vec![5],
                ok: true,
            },
            Op::InstallSegment { seg: 0 },
            Op::Publish { slot: 0, token: 5 },
            Op::Reserve { n: 1, base: 0 },
            Op::TryTake {
                slot: 0,
                result: Some(5),
            },
            Op::RecycleSegment { seg: 0 },
        ];
        assert!(check_linearizable(
            &seq(ops.clone()),
            TicketSpec::segmented(1)
        ));
        // A late publish into the retired segment's storage.
        ops.push(Op::Publish { slot: 0, token: 5 });
        assert!(!check_linearizable(&seq(ops), TicketSpec::segmented(1)));
    }

    #[test]
    fn seg_spec_recycles_out_of_order() {
        // Segment 1 fully drains while segment 0's consumer is stalled;
        // its retirement must not be blocked on segment 0's.
        let h = seq(vec![
            Op::EnqueueBatch {
                base: 0,
                tokens: vec![5, 6],
                ok: true,
            },
            Op::InstallSegment { seg: 0 },
            Op::InstallSegment { seg: 1 },
            Op::Publish { slot: 0, token: 5 },
            Op::Publish { slot: 1, token: 6 },
            Op::Reserve { n: 2, base: 0 },
            Op::TryTake {
                slot: 1,
                result: Some(6),
            },
            Op::RecycleSegment { seg: 1 },
            Op::TryTake {
                slot: 0,
                result: Some(5),
            },
            Op::RecycleSegment { seg: 0 },
        ]);
        assert!(check_linearizable(&h, TicketSpec::segmented(1)));
    }

    #[test]
    fn recorder_tracks_overlap() {
        let mut rec = Recorder::default();
        let start = rec.now();
        rec.advance();
        rec.advance();
        rec.record(0, start, pop(None));
        rec.atomic(1, Op::Reserve { n: 1, base: 0 });
        let h = rec.into_history();
        assert_eq!(h.ops[0].start, 0);
        assert_eq!(h.ops[0].end, 2);
        assert_eq!(h.ops[1].start, h.ops[1].end);
    }
}
