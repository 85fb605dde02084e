//! Storage policies: where the slots live, and what running out means.
//!
//! The slot protocol is the same everywhere — a slot holds the `dna`
//! sentinel until its producer's release store publishes a token, and the
//! consumer that owns the ticket restores the sentinel when it picks the
//! token up. [`Bounded`] is the paper's queue: one ring painted with the
//! sentinel, non-wrapping, overflow is [`QueueFull`]. [`Segmented`] maps
//! the virtual ticket space `0..` onto linked `seg_cap`-slot rings (ticket
//! `t` lives in segment `t / seg_cap`, offset `t % seg_cap`) and turns
//! overflow into a segment install from a recycled-segment pool.
//!
//! **Segment handoff.** Installation publishes a segment through the
//! directory under a lock (the host mirror's slow path; the device
//! implementation in [`crate::device`] uses a lock-free tagged ring).
//! Segments install strictly in order, so the installed prefix is
//! contiguous and `installed * seg_cap` is the exact boundary of
//! materialized storage. A segment retires only when **all** `seg_cap` of
//! its slots have been consumed; retiring returns its storage to the pool.
//! Unique tickets + the full-drain requirement exclude ABA: a ticket into
//! a recycled segment must already have been consumed (otherwise the
//! segment could not have drained), so no live consumer can observe reused
//! storage under an old ticket.

use super::{QueueFull, QueueStats};
use crate::DNA;
use std::convert::Infallible;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// What one poll of a claimed slot found.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Taken {
    /// The token, once its data has arrived.
    pub token: Option<u32>,
    /// The segment this pickup drained and retired, if any.
    pub retired: Option<u64>,
}

/// Where the slots live. Implemented by [`Bounded`] and [`Segmented`]; a
/// new layout provides the slot protocol below and every
/// [`super::Reserve`] policy composes with it. Each method that touches
/// shared memory is one explorer step.
pub trait Storage: std::fmt::Debug + Sized + 'static {
    /// What an enqueue that does not fit reports.
    type Overflow: std::fmt::Debug;

    /// Whether a claimed region may still need [`Storage::install_next`]
    /// before it can be published into.
    const GROWS: bool;

    /// Storage of `size` slots: the lifetime capacity of a bounded ring,
    /// the slots per segment of a segmented one.
    fn new(size: usize) -> Self;

    /// The bound check for an enqueue region `base..base + n`.
    fn admit(&self, base: u64, n: u64) -> Result<(), Self::Overflow>;

    /// Installs the next missing segment if ticket `last` is not covered
    /// yet and returns its index; `None` once it is.
    fn install_next(&self, last: u64, stats: &QueueStats) -> Option<u64>;

    /// Publishes `token` into the claimed, materialized `slot`.
    fn publish(&self, slot: u64, token: u32);

    /// Polls the claimed `slot`: takes its token (restoring the sentinel)
    /// or counts a data wait.
    fn take(&self, slot: u64, stats: &QueueStats) -> Taken;

    /// Non-counting probe: does `slot` hold data? The explorer gates a
    /// blocked consumer on it; it is no step of its own.
    fn ready(&self, slot: u64) -> bool;

    /// Slots materialized so far — what `len_hint` clamps `Rear` to.
    fn materialized(&self) -> u64;

    /// Restores the initial state.
    fn reset(&mut self);
}

fn sentinel_ring(len: usize) -> Box<[AtomicU32]> {
    (0..len).map(|_| AtomicU32::new(DNA)).collect()
}

fn repaint(slots: &[AtomicU32]) {
    for s in slots {
        s.store(DNA, Ordering::Relaxed);
    }
}

/// Publishes over the sentinel with the release store consumers pair
/// their acquire poll with.
#[inline]
fn publish_into(s: &AtomicU32, slot: u64, token: u32) {
    debug_assert_eq!(
        s.load(Ordering::Relaxed),
        DNA,
        "slot {slot} overwritten before consumption"
    );
    s.store(token, Ordering::Release);
}

/// One acquire load; on data, the private pickup restores the sentinel
/// (the ticket holder owns the slot, no atomics needed).
#[inline]
fn take_from(s: &AtomicU32, stats: &QueueStats) -> Option<u32> {
    let v = s.load(Ordering::Acquire);
    if v == DNA {
        stats.data_wait();
        return None;
    }
    s.store(DNA, Ordering::Relaxed);
    Some(v)
}

/// One sentinel-painted ring, bounded and non-wrapping: `capacity` bounds
/// the tokens enqueued between resets, exactly like the device queues.
#[derive(Debug)]
pub struct Bounded {
    slots: Box<[AtomicU32]>,
}

impl Storage for Bounded {
    type Overflow = QueueFull;
    const GROWS: bool = false;

    fn new(capacity: usize) -> Self {
        Bounded {
            slots: sentinel_ring(capacity),
        }
    }

    #[inline]
    fn admit(&self, base: u64, n: u64) -> Result<(), QueueFull> {
        if base + n > self.slots.len() as u64 {
            return Err(QueueFull {
                capacity: self.slots.len(),
            });
        }
        Ok(())
    }

    fn install_next(&self, _last: u64, _stats: &QueueStats) -> Option<u64> {
        None
    }

    #[inline]
    fn publish(&self, slot: u64, token: u32) {
        publish_into(&self.slots[slot as usize], slot, token);
    }

    /// A ticket past capacity can never receive data (paper Listing 2
    /// line 3): it reports "not yet" without counting a wait, and the
    /// caller's termination logic decides when to give up.
    #[inline]
    fn take(&self, slot: u64, stats: &QueueStats) -> Taken {
        Taken {
            token: self
                .slots
                .get(slot as usize)
                .and_then(|s| take_from(s, stats)),
            retired: None,
        }
    }

    fn ready(&self, slot: u64) -> bool {
        (self.slots.get(slot as usize)).is_some_and(|s| s.load(Ordering::Acquire) != DNA)
    }

    fn materialized(&self) -> u64 {
        self.slots.len() as u64
    }

    fn reset(&mut self) {
        repaint(&self.slots);
    }
}

/// Why a poisoned directory lock is fatal: its holder died mid-handoff.
const POISONED: &str = "a thread panicked while holding the segment directory";

/// One segment's storage: a bounded ring plus its drain counter.
#[derive(Debug)]
struct SegStorage {
    slots: Box<[AtomicU32]>,
    /// Slots of the *current installation* consumed so far; the take
    /// that raises it to `seg_cap` retires the segment.
    consumed: AtomicU64,
}

/// Directory entry for one virtual segment.
#[derive(Debug)]
enum DirEntry {
    /// Installed and live: tickets resolve to this storage.
    Installed(Arc<SegStorage>),
    /// Fully drained; its storage went back to the pool.
    Drained,
}

#[derive(Debug, Default)]
struct Directory {
    /// `entries[seg]` for every segment ever installed (`Drained`
    /// entries are a fixed-size tombstone).
    entries: Vec<DirEntry>,
    /// Contiguous installed prefix: the next segment to install.
    installed: u64,
    /// Segments fully drained and recycled (not necessarily a prefix:
    /// a slow consumer in an old segment does not block newer segments
    /// from retiring — each segment's storage is independent).
    drained: u64,
    /// Recycled storages awaiting reinstallation.
    pool: Vec<Arc<SegStorage>>,
    /// Storages ever allocated fresh — the memory-bound gauge: bounded
    /// by peak *live* segments, not lifetime enqueues.
    fresh_allocs: u64,
}

/// Linked `seg_cap`-slot rings behind a directory, with a recycled-segment
/// pool: no queue-full condition, memory bounded by live occupancy. No
/// storage is materialized until a reservation touches it.
#[derive(Debug)]
pub struct Segmented {
    seg_cap: usize,
    dir: Mutex<Directory>,
    /// `installed * seg_cap`, maintained under the directory lock but
    /// readable lock-free.
    installed_cap: AtomicU64,
}

impl Segmented {
    /// Slots per segment.
    pub fn seg_cap(&self) -> usize {
        self.seg_cap
    }

    fn dir(&self) -> MutexGuard<'_, Directory> {
        (self.dir.lock()).expect(POISONED)
    }

    /// Segments currently live (installed, not yet drained).
    pub fn live_segments(&self) -> u64 {
        let dir = self.dir();
        dir.installed - dir.drained
    }

    /// Segment storages ever allocated fresh: the memory bound is peak
    /// live occupancy, not lifetime enqueues.
    pub fn fresh_allocs(&self) -> u64 {
        self.dir().fresh_allocs
    }

    /// Resolves a ticket's segment storage, if installed and live.
    fn resolve(&self, slot: u64) -> Option<Arc<SegStorage>> {
        let seg = (slot / self.seg_cap as u64) as usize;
        match self.dir().entries.get(seg) {
            Some(DirEntry::Installed(storage)) => Some(Arc::clone(storage)),
            _ => None,
        }
    }

    fn offset(&self, slot: u64) -> usize {
        (slot % self.seg_cap as u64) as usize
    }
}

impl Storage for Segmented {
    type Overflow = Infallible;
    const GROWS: bool = true;

    fn new(seg_cap: usize) -> Self {
        assert!(seg_cap > 0, "segment capacity must be positive");
        Segmented {
            seg_cap,
            dir: Mutex::new(Directory::default()),
            installed_cap: AtomicU64::new(0),
        }
    }

    #[inline]
    fn admit(&self, _base: u64, _n: u64) -> Result<(), Infallible> {
        Ok(())
    }

    /// One installation = one segment append.
    fn install_next(&self, last: u64, stats: &QueueStats) -> Option<u64> {
        let mut dir = self.dir();
        if dir.installed > last / self.seg_cap as u64 {
            return None;
        }
        let seg = dir.installed;
        let storage = dir.pool.pop().unwrap_or_else(|| {
            dir.fresh_allocs += 1;
            Arc::new(SegStorage {
                slots: sentinel_ring(self.seg_cap),
                consumed: AtomicU64::new(0),
            })
        });
        debug_assert!(storage
            .slots
            .iter()
            .all(|s| s.load(Ordering::Relaxed) == DNA));
        debug_assert_eq!(dir.entries.len() as u64, dir.installed);
        // The linearization point of the handoff: the directory
        // entry flips from absent to Installed while holding the
        // lock (the device path's single tagged-ring store).
        dir.entries.push(DirEntry::Installed(storage));
        dir.installed += 1;
        self.installed_cap
            .store(dir.installed * self.seg_cap as u64, Ordering::Release);
        stats.segment_append();
        Some(seg)
    }

    fn publish(&self, slot: u64, token: u32) {
        let storage = self
            .resolve(slot)
            .expect("publish into an uninstalled segment");
        publish_into(&storage.slots[self.offset(slot)], slot, token);
    }

    /// A ticket whose segment is not installed yet (reserve-ahead past
    /// materialized storage) counts a data wait like an unpublished one.
    fn take(&self, slot: u64, stats: &QueueStats) -> Taken {
        let Some(storage) = self.resolve(slot) else {
            stats.data_wait();
            return Taken::default();
        };
        let Some(token) = take_from(&storage.slots[self.offset(slot)], stats) else {
            return Taken::default();
        };
        // The fetch_add serializes retirement: exactly one take observes
        // the count reach seg_cap.
        let mut retired = None;
        if storage.consumed.fetch_add(1, Ordering::AcqRel) + 1 == self.seg_cap as u64 {
            let seg = slot / self.seg_cap as u64;
            let mut dir = self.dir();
            storage.consumed.store(0, Ordering::Relaxed);
            dir.entries[seg as usize] = DirEntry::Drained;
            dir.drained += 1;
            dir.pool.push(storage);
            retired = Some(seg);
        }
        Taken {
            token: Some(token),
            retired,
        }
    }

    fn ready(&self, slot: u64) -> bool {
        self.resolve(slot)
            .is_some_and(|st| st.slots[self.offset(slot)].load(Ordering::Acquire) != DNA)
    }

    /// `Rear` may transiently exceed the installed prefix (a producer
    /// between its reservation and the covering install), so the hint
    /// saturates against the capacity across *all installed segments* —
    /// not one segment's, which a segmented queue legitimately exceeds.
    fn materialized(&self) -> u64 {
        self.installed_cap.load(Ordering::Acquire)
    }

    fn reset(&mut self) {
        let dir = (self.dir.get_mut()).expect(POISONED);
        for e in std::mem::take(&mut dir.entries) {
            if let DirEntry::Installed(storage) = e {
                repaint(&storage.slots);
                storage.consumed.store(0, Ordering::Relaxed);
                dir.pool.push(storage);
            }
        }
        dir.installed = 0;
        dir.drained = 0;
        self.installed_cap.store(0, Ordering::Relaxed);
    }
}
