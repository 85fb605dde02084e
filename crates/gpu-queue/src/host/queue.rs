//! The one host queue: `Front`, `Rear`, counters and a [`Storage`], with a
//! [`Reserve`] policy deciding how tickets are claimed on the two.
//!
//! Every variant of the family is an instantiation (see the aliases in
//! [`super`]), statically dispatched. Each operation is written once, as a
//! small resumable machine that performs **one shared-memory access per
//! `step`**: [`Put`] (claim a region on `Rear`, install the segments it
//! touches, publish each token) and [`Pop`] (claim up to `max` tickets on
//! `Front`, collect each token as its data arrives). The public blocking
//! methods drive a machine to completion; the `verify` explorer drives the
//! same machine one step at a time, so what it interleaves *is* the
//! production control flow. Batch width is an argument, not a type: BASE is
//! the CAS queue called with `n = 1`.

use super::{Afa, Cas, Claim, EnqueueError, QueueStats, Reserve, StatsSnapshot};
use super::{Bounded, Seg, Segmented, Storage, Taken};
use crate::DNA;
use std::marker::PhantomData;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};

/// A reserved dequeue ticket, obtained from an AFA queue's `reserve`.
///
/// The holder owns the slot exclusively; poll it with `try_take` until the
/// token arrives (or until the application-level termination condition
/// says it never will).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SlotTicket(pub u64);

/// A host queue composed from a reservation policy `R` and a storage `S`.
#[derive(Debug)]
pub struct Queue<R: Reserve, S: Storage> {
    pub(super) front: AtomicU64,
    rear: AtomicU64,
    stats: QueueStats,
    storage: S,
    reserve: PhantomData<R>,
}

/// Outcome of advancing an operation machine.
#[derive(Debug)]
pub(crate) enum Step<T> {
    /// One access done, the operation is still in flight.
    Pending,
    /// The operation completed with this result.
    Done(T),
}

impl<T> Step<T> {
    /// The result of a run to completion.
    fn finished(self) -> T {
        match self {
            Step::Done(result) => result,
            Step::Pending => unreachable!("only a stepwise advance yields"),
        }
    }
}

/// A ticket's segment, resolved at most once per token access. Where the
/// storage grows, resolving reads the segment directory — an access that
/// races installs and retirements — so a `STEPWISE` advance yields between
/// it and the slot access; a bounded ring has nothing to resolve and its
/// machines take no extra step.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct Resolved(Option<Seg>);

impl Resolved {
    /// `Done(segment)` when the slot access is next, `Pending` when the
    /// resolve was this step's access. A miss is never held: the next
    /// poll resolves again.
    #[inline]
    fn get<S: Storage, const STEPWISE: bool>(
        &mut self,
        storage: &S,
        slot: u64,
    ) -> Step<Option<Seg>> {
        if let Some(at) = self.0.take() {
            return Step::Done(Some(at));
        }
        let at = storage.resolve(slot);
        if STEPWISE && S::GROWS && at.is_some() {
            self.0 = at;
            return Step::Pending;
        }
        Step::Done(at)
    }
}

/// What a [`Put`] just made visible — the explorer's recording hook (the
/// blocking driver ignores it).
#[derive(Clone, Copy, Debug)]
pub(crate) enum Event {
    /// The reservation settled at ticket `base`; `ok = false` is a
    /// refusal (for AFA the tickets stay reserved all the same).
    Claimed { base: u64, ok: bool },
    /// Segment `seg` was installed.
    Installed { seg: u64 },
    /// `token` was published into `slot`.
    Published { slot: u64, token: u32 },
}

/// Enqueue of one batch, as a resumable machine: claim a region on
/// `Rear`, install the segments it touches, publish each token.
#[derive(Debug)]
pub(crate) enum Put<R: Reserve> {
    Claim(R::State),
    Install {
        base: u64,
    },
    Publish {
        base: u64,
        next: usize,
        at: Resolved,
    },
}

impl<R: Reserve> Put<R> {
    /// Starts an enqueue of `tokens`.
    ///
    /// # Panics
    /// Panics — in every build, before anything is reserved — if a token
    /// equals the `dna` sentinel: stored, it would read as "data not
    /// arrived" forever and be silently lost.
    #[inline]
    pub(crate) fn new(tokens: &[u32]) -> Self {
        assert!(
            !tokens.contains(&DNA),
            "token {DNA:#x} collides with the dna sentinel"
        );
        Put::Claim(R::State::default())
    }

    fn publishing(base: u64) -> Self {
        let (next, at) = (0, Resolved::default());
        Put::Publish { base, next, at }
    }

    /// Advances the enqueue: by one shared-memory access when `STEPWISE`
    /// (what [`Put::step`] and the explorer use), else to completion (what
    /// [`Queue::put`] uses) — one control flow, yielding or not.
    /// `Done(Ok(base))` carries the first ticket of the published region.
    #[inline]
    fn advance<S: Storage, const STEPWISE: bool>(
        &mut self,
        q: &Queue<R, S>,
        tokens: &[u32],
        mut see: impl FnMut(Event),
    ) -> Step<Result<u64, S::Overflow>> {
        let n = tokens.len() as u64;
        if let Put::Claim(state) = self {
            if n == 0 {
                // An empty batch is a no-op: nothing reserved or counted.
                return Step::Done(Ok(q.rear.load(Ordering::Relaxed)));
            }
            let admit = |base| q.storage.admit(base, n);
            let base = loop {
                match R::claim_rear(state, &q.rear, n, admit, &q.stats) {
                    Claim::Pending => {}
                    Claim::Granted(region) => break region.start,
                    Claim::Refused { at: base, why } => {
                        see(Event::Claimed { base, ok: false });
                        return Step::Done(Err(why));
                    }
                }
                if STEPWISE {
                    return Step::Pending;
                }
            };
            see(Event::Claimed { base, ok: true });
            *self = match S::GROWS {
                true => Put::Install { base },
                false => Put::publishing(base),
            };
            if STEPWISE {
                return Step::Pending;
            }
        }
        // The producer whose region crosses into missing storage installs
        // it, one segment per access; the probe that finds the region
        // covered (by a racing producer, too) is an access of its own.
        if let Put::Install { base } = *self {
            while let Some(seg) = q.storage.install_next(base + n - 1, &q.stats) {
                see(Event::Installed { seg });
                if STEPWISE {
                    return Step::Pending;
                }
            }
            *self = Put::publishing(base);
            if STEPWISE {
                return Step::Pending;
            }
        }
        // Publication is per slot, not atomic for the batch: consumers may
        // observe any prefix through the sentinel.
        let Put::Publish { base, next, at } = self else {
            unreachable!("the earlier phases fall through to Publish")
        };
        loop {
            let (slot, token) = (*base + *next as u64, tokens[*next]);
            let Step::Done(seg) = at.get::<S, STEPWISE>(&q.storage, slot) else {
                return Step::Pending;
            };
            let seg = seg.expect("publish into an uninstalled segment");
            q.storage.publish(seg, slot, token);
            see(Event::Published { slot, token });
            *next += 1;
            if *next == tokens.len() {
                return Step::Done(Ok(*base));
            }
            if STEPWISE {
                return Step::Pending;
            }
        }
    }

    /// One shared-memory access of the enqueue.
    pub(crate) fn step<S: Storage>(
        &mut self,
        q: &Queue<R, S>,
        tokens: &[u32],
        see: impl FnMut(Event),
    ) -> Step<Result<u64, S::Overflow>> {
        self.advance::<S, true>(q, tokens, see)
    }
}

/// Dequeue of up to `max` tokens that waits for claimed data, as a
/// resumable machine: claim tickets on `Front`, collect each token.
#[derive(Debug)]
pub(crate) enum Pop<R: Reserve> {
    Claim {
        max: u64,
        state: R::State,
    },
    Take {
        first: u64,
        next: u64,
        end: u64,
        at: Resolved,
    },
}

impl<R: Reserve> Pop<R> {
    pub(crate) fn new(max: usize) -> Self {
        Pop::Claim {
            max: max as u64,
            state: R::State::default(),
        }
    }

    /// The claimed slot whose data this pop is waiting for, if any.
    pub(crate) fn waits_on(&self) -> Option<u64> {
        match *self {
            Pop::Take { next, .. } => Some(next),
            Pop::Claim { .. } => None,
        }
    }

    /// Advances the dequeue by one access or to completion (see
    /// [`Put::advance`]); tokens go to `sink` in ticket order. `Done(n)`
    /// is the number delivered — `0` means the claim was refused (the
    /// queue-empty exception).
    #[inline]
    fn advance<S: Storage, const STEPWISE: bool>(
        &mut self,
        q: &Queue<R, S>,
        mut sink: impl FnMut(u32),
    ) -> Step<usize> {
        if let Pop::Claim { max, state } = self {
            if *max == 0 {
                return Step::Done(0);
            }
            let tickets = loop {
                match R::claim_front(state, &q.front, &q.rear, *max, &q.stats) {
                    Claim::Pending => {}
                    Claim::Granted(tickets) => break tickets,
                    Claim::Refused { .. } => return Step::Done(0),
                }
                if STEPWISE {
                    return Step::Pending;
                }
            };
            *self = Pop::Take {
                first: tickets.start,
                next: tickets.start,
                end: tickets.end,
                at: Resolved::default(),
            };
            if STEPWISE {
                return Step::Pending;
            }
        }
        let Pop::Take {
            first,
            next,
            end,
            at,
        } = self
        else {
            unreachable!("Claim falls through to Take")
        };
        loop {
            // Publication (and segment installation) follows reservation
            // on the producer side; spin for the brief window.
            let Step::Done(taken) = q.poll::<STEPWISE>(at, *next) else {
                return Step::Pending;
            };
            match taken.token {
                Some(token) => {
                    sink(token);
                    *next += 1;
                    if next == end {
                        return Step::Done((*end - *first) as usize);
                    }
                }
                None => std::hint::spin_loop(),
            }
            if STEPWISE {
                return Step::Pending;
            }
        }
    }

    /// One shared-memory access of the dequeue.
    pub(crate) fn step<S: Storage>(
        &mut self,
        q: &Queue<R, S>,
        sink: impl FnMut(u32),
    ) -> Step<usize> {
        self.advance::<S, true>(q, sink)
    }
}

impl<R: Reserve, S: Storage> Queue<R, S> {
    /// Creates a queue over `S::new(size)`: `size` is the lifetime token
    /// capacity of a [`Bounded`] queue, the slots per segment of a
    /// [`Segmented`] one.
    pub fn new(size: usize) -> Self {
        Queue {
            front: AtomicU64::new(0),
            rear: AtomicU64::new(0),
            stats: R::stats(),
            storage: S::new(size),
            reserve: PhantomData,
        }
    }

    /// The slot storage.
    pub(crate) fn storage(&self) -> &S {
        &self.storage
    }

    /// Enqueues `tokens` as one batch; `Ok` is the first ticket of the
    /// region. Drives [`Put`] to completion.
    #[inline]
    pub(crate) fn put(&self, tokens: &[u32]) -> Result<u64, S::Overflow> {
        (Put::<R>::new(tokens).advance::<S, false>(self, tokens, |_| {})).finished()
    }

    /// Claims up to `n` dequeue tickets (an empty range is a refusal).
    #[inline]
    pub(crate) fn claim(&self, n: u64) -> Range<u64> {
        let mut state = R::State::default();
        loop {
            match R::claim_front(&mut state, &self.front, &self.rear, n, &self.stats) {
                Claim::Pending => {}
                Claim::Granted(tickets) => return tickets,
                Claim::Refused { at, .. } => return at..at,
            }
        }
    }

    /// One poll of a claimed ticket — resolve, then the slot access — or,
    /// `STEPWISE`, one access of it.
    #[inline]
    fn poll<const STEPWISE: bool>(&self, at: &mut Resolved, slot: u64) -> Step<Taken> {
        let Step::Done(seg) = at.get::<S, STEPWISE>(&self.storage, slot) else {
            return Step::Pending;
        };
        Step::Done(self.storage.take(seg, slot, &self.stats))
    }

    /// Polls a claimed ticket once.
    #[inline]
    pub(crate) fn take(&self, slot: u64) -> Taken {
        (self.poll::<false>(&mut Resolved::default(), slot)).finished()
    }

    /// One shared-memory access of a poll of a claimed ticket.
    pub(crate) fn take_step(&self, at: &mut Resolved, slot: u64) -> Step<Taken> {
        self.poll::<true>(at, slot)
    }

    /// Dequeues up to `max` tokens into `sink`, waiting for claimed data.
    /// Drives [`Pop`] to completion.
    #[inline]
    pub(crate) fn pop(&self, max: usize, sink: impl FnMut(u32)) -> usize {
        (Pop::<R>::new(max).advance::<S, false>(self, sink)).finished()
    }

    /// Published tokens not yet claimed by a reservation — a hint under
    /// concurrency, clamped at zero (AFA reservations may run ahead of the
    /// data).
    ///
    /// `Rear` is clamped to the materialized storage first: a refused AFA
    /// enqueue (abort semantics) leaves `Rear` past capacity, and a
    /// segmented producer between its reservation and its installs leaves
    /// it past the installed prefix, though none of those tokens exist.
    /// A CAS queue never overshoots — its bound check precedes the CAS.
    pub fn len_hint(&self) -> u64 {
        let rear = self.rear.load(Ordering::Relaxed);
        (rear.min(self.storage.materialized())).saturating_sub(self.front.load(Ordering::Relaxed))
    }

    /// Operation counters.
    pub fn stats(&self) -> StatsSnapshot {
        self.stats.snapshot()
    }

    /// Restores the initial state. Requires `&mut self`, so no concurrent
    /// users can exist — the "retry the kernel with a larger queue / next
    /// iteration" host-side step.
    pub fn reset(&mut self) {
        self.storage.reset();
        self.front.store(0, Ordering::Relaxed);
        self.rear.store(0, Ordering::Relaxed);
        self.stats.reset();
    }
}

impl<R: Reserve> Queue<R, Bounded> {
    /// Slot capacity (= total token bound between resets).
    pub fn capacity(&self) -> usize {
        self.storage.materialized() as usize
    }
}

impl<R: Reserve> Queue<R, Segmented> {
    /// Slots per segment.
    pub fn seg_cap(&self) -> usize {
        self.storage.seg_cap()
    }

    /// Segments currently live (installed, not yet drained).
    pub fn live_segments(&self) -> u64 {
        self.storage.live_segments()
    }

    /// Segment storages ever allocated fresh: the memory bound is peak
    /// live occupancy, not lifetime enqueues.
    pub fn fresh_allocs(&self) -> u64 {
        self.storage.fresh_allocs()
    }

    /// Bytes of segment metadata, slots excluded (see
    /// [`Segmented::meta_bytes`]).
    pub fn meta_bytes(&self) -> usize {
        self.storage.meta_bytes()
    }
}

impl<S: Storage> Queue<Cas, S> {
    /// Dequeues up to `max` tokens into `out` with one (looping) CAS
    /// reservation on `Front`, never past the published `Rear`. Returns
    /// the number delivered; `0` means the queue-empty exception fired.
    pub fn pop_batch(&self, out: &mut Vec<u32>, max: usize) -> usize {
        self.pop(max, |token| out.push(token))
    }
}

impl<S: Storage> Queue<Afa, S> {
    /// Polls a reserved ticket: `Some` exactly once, when the token has
    /// arrived. No atomics beyond one acquire load (plus the sentinel
    /// restore, private to the ticket's owner).
    pub fn try_take(&self, ticket: SlotTicket) -> Option<u32> {
        self.take(ticket.0).token
    }

    /// Non-panicking enqueue for untrusted input (e.g. a checkpoint
    /// mirror replaying a snapshotted queue window); `Ok` is the first
    /// ticket of the region.
    ///
    /// Validates every token against the sentinel *before* touching the
    /// queue ([`EnqueueError::InvalidToken`] leaves the state untouched)
    /// and pre-checks the bound so a visibly over-large batch is refused
    /// without burning the `Rear` reservation. Only when a concurrent
    /// racer steals the headroom between the pre-check and the fetch-add
    /// does the reservation overshoot — then the queue is in the same
    /// abort state as after a failed `enqueue_batch`. A segmented queue
    /// has no bound: a sentinel token is its only failure.
    pub fn try_enqueue_batch(&self, tokens: &[u32]) -> Result<u64, EnqueueError>
    where
        S::Overflow: Into<EnqueueError>,
    {
        if let Some(&token) = tokens.iter().find(|&&t| t == DNA) {
            return Err(EnqueueError::InvalidToken { token });
        }
        if !tokens.is_empty() {
            let rear = self.rear.load(Ordering::Relaxed);
            (self.storage.admit(rear, tokens.len() as u64)).map_err(Into::into)?;
        }
        self.put(tokens).map_err(Into::into)
    }
}
