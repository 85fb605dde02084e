//! Reservation policies: how a range of tickets is claimed on `Front` or
//! `Rear`.
//!
//! This is the first of the two decisions the paper's designs differ in.
//! [`Cas`] is the traditional discipline: read the counter, check the
//! bound (enqueue) or the published `Rear` (dequeue) *before* the
//! compare-exchange, loop when another thread got there first. [`Afa`] is
//! the paper's: one fetch-add that cannot fail, so there is nothing to
//! check beforehand and nothing to retry — a dequeue may reserve ahead of
//! the data and an overflowing enqueue keeps its (useless) tickets.
//!
//! A claim is written as a resumable step — one shared-memory access per
//! call — so [`super::queue`]'s operation machines can be driven to
//! completion by the public methods and one access at a time by the
//! `verify` explorer. The CAS is the strong compare-exchange: a weak one
//! may fail spuriously, which would make explored schedules
//! nondeterministic (on the architectures we run the two compile
//! identically for this pattern).

use super::QueueStats;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};

/// Outcome of one [`Reserve`] step.
#[derive(Debug, PartialEq, Eq)]
pub enum Claim<E> {
    /// The access did not settle the reservation (a CAS loop's read, or
    /// a lost race); step again.
    Pending,
    /// These tickets now belong to the caller.
    Granted(Range<u64>),
    /// Nothing to claim at ticket `at`: the storage refused the region
    /// (`why` is its overflow error) or the queue is empty (`why = ()`).
    Refused {
        /// The counter value the refusal was decided on.
        at: u64,
        /// The refusal itself.
        why: E,
    },
}

/// How tickets are reserved. Implemented by the zero-sized [`Cas`] and
/// [`Afa`]; a new scheme provides the two claim steps and the counter
/// gate, and every [`super::Storage`] composes with it.
pub trait Reserve: std::fmt::Debug + Sized + 'static {
    /// What a reservation in flight remembers between steps.
    type State: std::fmt::Debug + Default;

    /// Fresh counters, gated to what this policy may legally count.
    fn stats() -> QueueStats;

    /// One step toward reserving `n` enqueue tickets on `rear`.
    /// `admit(base)` is the storage's bound check for `base..base + n`.
    fn claim_rear<E>(
        state: &mut Self::State,
        rear: &AtomicU64,
        n: u64,
        admit: impl Fn(u64) -> Result<(), E>,
        stats: &QueueStats,
    ) -> Claim<E>;

    /// One step toward reserving up to `n` dequeue tickets on `front`.
    fn claim_front(
        state: &mut Self::State,
        front: &AtomicU64,
        rear: &AtomicU64,
        n: u64,
        stats: &QueueStats,
    ) -> Claim<()>;
}

/// Compare-exchange reservation (BASE with `n = 1`, AN with any `n`): can
/// fail under contention and loops; a dequeue never passes the published
/// `Rear` and reports queue-empty instead.
#[derive(Clone, Copy, Debug, Default)]
pub struct Cas;

/// Where a CAS reservation stands.
#[derive(Clone, Copy, Debug, Default)]
pub enum CasState {
    /// The counter has not been read yet.
    #[default]
    Start,
    /// The counter read (or the last failed CAS returned) this value.
    Seen(u64),
    /// Dequeue only: `Rear` showed this many tickets claimable at `Seen`.
    Sized(u64, u64),
}

impl Cas {
    /// The family's one compare-exchange: `counter: at -> at + n`.
    #[inline]
    fn attempt(counter: &AtomicU64, at: u64, n: u64, stats: &QueueStats) -> Result<(), u64> {
        stats.cas_attempt();
        counter
            .compare_exchange(at, at + n, Ordering::AcqRel, Ordering::Acquire)
            .map(drop)
            .inspect_err(|_| stats.cas_failure())
    }
}

impl Reserve for Cas {
    type State = CasState;

    fn stats() -> QueueStats {
        QueueStats::default()
    }

    #[inline]
    fn claim_rear<E>(
        state: &mut CasState,
        rear: &AtomicU64,
        n: u64,
        admit: impl Fn(u64) -> Result<(), E>,
        stats: &QueueStats,
    ) -> Claim<E> {
        match *state {
            CasState::Start => *state = CasState::Seen(rear.load(Ordering::Acquire)),
            CasState::Seen(at) | CasState::Sized(at, _) => {
                // Bound check precedes the CAS: a full queue rejects
                // without touching `Rear`.
                if let Err(why) = admit(at) {
                    return Claim::Refused { at, why };
                }
                match Self::attempt(rear, at, n, stats) {
                    Ok(()) => return Claim::Granted(at..at + n),
                    Err(actual) => *state = CasState::Seen(actual),
                }
            }
        }
        Claim::Pending
    }

    #[inline]
    fn claim_front(
        state: &mut CasState,
        front: &AtomicU64,
        rear: &AtomicU64,
        n: u64,
        stats: &QueueStats,
    ) -> Claim<()> {
        match *state {
            CasState::Start => *state = CasState::Seen(front.load(Ordering::Acquire)),
            CasState::Seen(at) => {
                let available = rear.load(Ordering::Acquire).saturating_sub(at);
                if available == 0 {
                    // The queue-empty exception.
                    stats.empty_retry();
                    return Claim::Refused { at, why: () };
                }
                *state = CasState::Sized(at, available.min(n));
            }
            CasState::Sized(at, k) => match Self::attempt(front, at, k, stats) {
                Ok(()) => return Claim::Granted(at..at + k),
                Err(actual) => *state = CasState::Seen(actual),
            },
        }
        Claim::Pending
    }
}

/// Fetch-add reservation (the paper's retry-free design): one atomic for
/// any `n`, never fails. Its counters are variant-gated
/// ([`QueueStats::retry_free`]): counting a CAS or an empty retry panics.
#[derive(Clone, Copy, Debug, Default)]
pub struct Afa;

impl Afa {
    /// The family's one ticket fetch-add.
    #[inline]
    fn add(counter: &AtomicU64, n: u64, stats: &QueueStats) -> u64 {
        stats.afa();
        counter.fetch_add(n, Ordering::Relaxed)
    }
}

impl Reserve for Afa {
    type State = ();

    fn stats() -> QueueStats {
        QueueStats::retry_free()
    }

    /// A refused region stays reserved — the fetch-add cannot be undone
    /// without reintroducing the retry loop (the paper's abort semantics).
    #[inline]
    fn claim_rear<E>(
        _: &mut (),
        rear: &AtomicU64,
        n: u64,
        admit: impl Fn(u64) -> Result<(), E>,
        stats: &QueueStats,
    ) -> Claim<E> {
        let at = Self::add(rear, n, stats);
        match admit(at) {
            Ok(()) => Claim::Granted(at..at + n),
            Err(why) => Claim::Refused { at, why },
        }
    }

    /// Never refused: tickets past `Rear` simply have no data yet.
    #[inline]
    fn claim_front(
        _: &mut (),
        front: &AtomicU64,
        _rear: &AtomicU64,
        n: u64,
        stats: &QueueStats,
    ) -> Claim<()> {
        let at = Self::add(front, n, stats);
        Claim::Granted(at..at + n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cas_claim_reads_then_swaps_and_retries_on_a_lost_race() {
        let (rear, stats) = (AtomicU64::new(3), Cas::stats());
        let mut state = CasState::default();
        let admit = |_| Ok::<(), ()>(());
        assert_eq!(
            Cas::claim_rear(&mut state, &rear, 2, admit, &stats),
            Claim::Pending
        );
        // Another thread wins the race between the read and the CAS.
        rear.store(4, Ordering::Relaxed);
        assert_eq!(
            Cas::claim_rear(&mut state, &rear, 2, admit, &stats),
            Claim::Pending
        );
        assert_eq!(
            Cas::claim_rear(&mut state, &rear, 2, admit, &stats),
            Claim::Granted(4..6)
        );
        let s = stats.snapshot();
        assert_eq!((s.cas_attempts, s.cas_failures), (2, 1));
    }

    #[test]
    fn cas_refusals_leave_the_counters_untouched() {
        let (front, rear, stats) = (AtomicU64::new(5), AtomicU64::new(5), Cas::stats());
        let mut state = CasState::default();
        Cas::claim_front(&mut state, &front, &rear, 4, &stats);
        assert_eq!(
            Cas::claim_front(&mut state, &front, &rear, 4, &stats),
            Claim::Refused { at: 5, why: () }
        );
        let mut state = CasState::default();
        Cas::claim_rear(&mut state, &rear, 1, |_| Err("full"), &stats);
        assert_eq!(
            Cas::claim_rear(&mut state, &rear, 1, |_| Err("full"), &stats),
            Claim::Refused { at: 5, why: "full" }
        );
        assert_eq!(front.load(Ordering::Relaxed), 5);
        assert_eq!(rear.load(Ordering::Relaxed), 5);
        let s = stats.snapshot();
        assert_eq!((s.cas_attempts, s.empty_retries), (0, 1));
    }

    #[test]
    fn afa_claims_in_one_step_and_keeps_refused_tickets() {
        let (front, rear, stats) = (AtomicU64::new(0), AtomicU64::new(0), Afa::stats());
        assert_eq!(
            Afa::claim_front(&mut (), &front, &rear, 3, &stats),
            Claim::Granted(0..3),
            "reserve-ahead: Rear is still 0"
        );
        assert_eq!(
            Afa::claim_rear(&mut (), &rear, 2, |_| Err("full"), &stats),
            Claim::Refused { at: 0, why: "full" }
        );
        assert_eq!(rear.load(Ordering::Relaxed), 2, "abort semantics");
        assert_eq!(stats.snapshot().afa_ops, 2);
    }
}
