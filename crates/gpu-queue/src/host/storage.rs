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
//! **Segment handoff.** A ticket resolves to its segment with one
//! `Acquire` load of a generation-tagged directory entry — tag = a live
//! bit over the virtual segment's low bits, payload = physical storage
//! index, ring cell `seg & (len - 1)` — and an index into storage that
//! never moves: no lock and no reference count on `publish`, `take` or
//! `ready`. Installing a segment writes that entry with a single tagged
//! `Release` store, the handoff's linearization point (as on the device,
//! [`crate::device`]); retiring it clears the entry. When the live window
//! outgrows the ring, a level of twice the size is *appended* and readers
//! probe the levels in order — nothing is copied, nobody waits, and there
//! is no capacity to configure. One mutex remains, around the handoff's
//! slow state only (the pool and its gauge, once per `seg_cap` tokens):
//! it makes the directory single-writer, which a lock-free handoff would
//! have to get from a unique installer or helping.
//!
//! Segments install strictly in order, so the installed prefix is
//! contiguous and `installed * seg_cap` is the exact boundary of
//! materialized storage. A segment retires only when **all** `seg_cap` of
//! its slots have been consumed; retiring returns its storage to the pool.
//! Unique tickets + the full-drain requirement exclude ABA: a ticket into
//! a recycled segment must already have been consumed (otherwise the
//! segment could not have drained), so no live consumer can observe reused
//! storage under an old ticket — and a stale or early ticket finds another
//! segment's tag in its ring cell and reads nothing.
//!
//! The drain count costs each take one `fetch_add` on its segment. The
//! [`QueueStats`] counters, and the benchmark's `atomics_per_token` made
//! of them, count the `Front` / `Rear` scheduling atomics only: that
//! per-token RMW is not in them.

use super::{QueueFull, QueueStats};
use crate::DNA;
use std::convert::Infallible;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};

/// What one poll of a claimed slot found.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Taken {
    /// The token, once its data has arrived.
    pub token: Option<u32>,
    /// The segment this pickup drained and retired, if any.
    pub retired: Option<u64>,
}

/// The physical segment behind a ticket, as [`Storage::resolve`] found
/// it. It stays that ticket's segment until the ticket is consumed: a
/// segment retires only fully drained.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Seg(u32);

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

    /// The segment `slot` lives in, if materialized. One access where
    /// the storage [`GROWS`](Storage::GROWS), none otherwise.
    fn resolve(&self, slot: u64) -> Option<Seg>;

    /// Publishes `token` into the claimed `slot` of its segment `at`.
    fn publish(&self, at: Seg, slot: u64, token: u32);

    /// Polls the claimed `slot` of its segment `at` (`None`: nothing
    /// behind the ticket yet): takes its token (restoring the sentinel)
    /// or counts a data wait.
    fn take(&self, at: Option<Seg>, slot: u64, stats: &QueueStats) -> Taken;

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

    /// The one ring is segment 0, always there.
    #[inline]
    fn resolve(&self, _slot: u64) -> Option<Seg> {
        Some(Seg(0))
    }

    #[inline]
    fn publish(&self, _at: Seg, slot: u64, token: u32) {
        publish_into(&self.slots[slot as usize], slot, token);
    }

    /// A ticket past capacity can never receive data (paper Listing 2
    /// line 3): it reports "not yet" without counting a wait, and the
    /// caller's termination logic decides when to give up.
    #[inline]
    fn take(&self, _at: Option<Seg>, slot: u64, stats: &QueueStats) -> Taken {
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

/// Why a poisoned handoff lock is fatal: its holder died mid-handoff.
const POISONED: &str = "a thread panicked while holding the segment handoff state";

/// One segment's storage: a bounded ring plus its drain counter.
#[derive(Debug)]
struct SegStorage {
    slots: Box<[AtomicU32]>,
    /// Slots of the *current installation* consumed so far; the take
    /// that raises it to `seg_cap` retires the segment.
    consumed: AtomicU64,
}

/// One directory cell. While virtual segment `seg` is live, `entry` of
/// cell `seg & (len - 1)` in exactly one level holds `tag(seg) | physical
/// index`; free, it holds 0. `storage` is the segment storage whose
/// physical index is this cell's place in the directory.
#[derive(Debug, Default)]
struct Cell {
    entry: AtomicU64,
    storage: OnceLock<SegStorage>,
}

/// Low half of an entry: the physical index.
const PHYS_MASK: u64 = u32::MAX as u64;

/// High half of a live entry: a bit no free entry has, over the segment's
/// low bits. It repeats every 2^31 segments: a live window no directory
/// can hold, so a ticket never meets its tag on another segment.
fn tag(seg: u64) -> u64 {
    1 << 63 | seg << 32
}

/// Cells in the first directory level. Unit tests start at one, so every
/// suite runs the growth and multi-level probe paths.
const FIRST_LEVEL: usize = if cfg!(test) { 1 } else { 64 };

/// The directory: cells in doubling levels (`FIRST_LEVEL << i`). Growing
/// appends a level instead of copying, so a cell never moves and is not
/// freed before the queue drops: readers need no lock and no refcount.
#[derive(Debug, Default)]
struct Levels([OnceLock<Box<[Cell]>>; 32]);

impl Levels {
    /// The appended levels, smallest first.
    fn iter(&self) -> impl Iterator<Item = &[Cell]> {
        (self.0.iter()).map_while(|level| level.get().map(|cells| &**cells))
    }

    /// Appends the next level (the handoff lock admits one appender).
    fn grow(&self) -> &[Cell] {
        let level = self.iter().count();
        self.0[level].get_or_init(|| (0..FIRST_LEVEL << level).map(|_| Cell::default()).collect())
    }

    /// Cell `phys` of the levels laid end to end.
    fn get(&self, phys: u32) -> Option<&Cell> {
        let level = (phys as usize / FIRST_LEVEL + 1).ilog2() as usize;
        (self.0[level].get()?).get(phys as usize + FIRST_LEVEL - (FIRST_LEVEL << level))
    }
}

fn ring_cell(level: &[Cell], seg: u64) -> &Cell {
    &level[seg as usize & (level.len() - 1)]
}

/// The handoff's slow state, touched once per `seg_cap` tokens. A storage
/// is pooled or behind a live segment (not necessarily a contiguous run of
/// them: a slow consumer in an old one does not stop newer ones retiring).
#[derive(Debug, Default)]
pub(super) struct Handoff {
    /// Physical indices of recycled storages awaiting reinstallation.
    pool: Vec<u32>,
    /// Storages ever allocated fresh — the memory-bound gauge: bounded
    /// by peak *live* segments, not lifetime enqueues.
    fresh_allocs: u64,
}

/// Linked `seg_cap`-slot rings behind a generation-tagged directory, with
/// a recycled-segment pool: no queue-full condition, slots bounded by peak
/// live segments, metadata by the peak live window
/// ([`Segmented::meta_bytes`]); nothing is materialized until a
/// reservation touches it. `resolve`, `publish`, `ready` and every `take`
/// but the one that drains a segment take no lock and touch no reference
/// count. The one mutex guards only the handoff's slow state and makes its
/// holder the directory's one writer — install, retire, level growth; once
/// per `seg_cap` tokens — which excludes a double install across levels.
#[derive(Debug)]
pub struct Segmented {
    seg_cap: usize,
    /// `installed * seg_cap`: written under the handoff lock.
    installed_cap: AtomicU64,
    dir: Levels,
    handoff: Mutex<Handoff>,
}

impl Segmented {
    /// Slots per segment.
    pub fn seg_cap(&self) -> usize {
        self.seg_cap
    }

    pub(super) fn handoff(&self) -> MutexGuard<'_, Handoff> {
        (self.handoff.lock()).expect(POISONED)
    }

    /// Segments currently live (installed, not yet drained).
    pub fn live_segments(&self) -> u64 {
        let h = self.handoff();
        h.fresh_allocs - h.pool.len() as u64
    }

    /// Segment storages ever allocated fresh: the memory bound is peak
    /// live occupancy, not lifetime enqueues.
    pub fn fresh_allocs(&self) -> u64 {
        self.handoff().fresh_allocs
    }

    /// Bytes of metadata (all but the slots). A level is appended only
    /// when live segments collide in every smaller one, so the largest is
    /// under 2 × the peak live window (newest − oldest live segment) in
    /// cells and all together under 4 ×.
    pub fn meta_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.dir.iter().map(std::mem::size_of_val).sum::<usize>()
            + self.handoff().pool.capacity() * std::mem::size_of::<u32>()
    }

    /// The live cell of virtual segment `seg` and the storage it names:
    /// one `Acquire` load (paired with the install's `Release` store) per
    /// level — one level, unless the live window ever outgrew the first.
    fn find(&self, seg: u64) -> Option<(&Cell, u32)> {
        self.dir.iter().find_map(|level| {
            let cell = ring_cell(level, seg);
            let e = cell.entry.load(Ordering::Acquire);
            (e & !PHYS_MASK == tag(seg)).then_some((cell, e as u32))
        })
    }

    /// The storage `at` names and `slot`'s place in it.
    fn place(&self, at: Seg, slot: u64) -> (&SegStorage, &AtomicU32) {
        let cell = self.dir.get(at.0).and_then(|cell| cell.storage.get());
        let storage = cell.expect("a directory entry names allocated storage");
        (
            storage,
            &storage.slots[(slot % self.seg_cap as u64) as usize],
        )
    }
}

impl Storage for Segmented {
    type Overflow = Infallible;
    const GROWS: bool = true;

    fn new(seg_cap: usize) -> Self {
        assert!(seg_cap > 0, "segment capacity must be positive");
        Segmented {
            seg_cap,
            installed_cap: AtomicU64::new(0),
            dir: Levels::default(),
            handoff: Mutex::default(),
        }
    }

    #[inline]
    fn admit(&self, _base: u64, _n: u64) -> Result<(), Infallible> {
        Ok(())
    }

    /// One installation = one segment append. Segments install strictly
    /// in order, so `installed_cap / seg_cap` is the next one.
    fn install_next(&self, last: u64, stats: &QueueStats) -> Option<u64> {
        // Covered — every put but one per segment: one load, no handoff.
        if self.installed_cap.load(Ordering::Acquire) > last {
            return None;
        }
        let mut h = self.handoff();
        let installed_cap = self.installed_cap.load(Ordering::Relaxed);
        if installed_cap > last {
            return None;
        }
        let seg = installed_cap / self.seg_cap as u64;
        // The first level whose cell for `seg` is free; when the live
        // window has outgrown them all, a new level of twice the size —
        // appended, never copied, so no reader waits for a resize.
        let free = (self.dir.iter().map(|level| ring_cell(level, seg)))
            .find(|cell| cell.entry.load(Ordering::Relaxed) == 0);
        let cell = free.unwrap_or_else(|| ring_cell(self.dir.grow(), seg));
        let phys = h.pool.pop().unwrap_or_else(|| {
            let fresh = h.fresh_allocs as usize;
            h.fresh_allocs += 1;
            // Room for every storage at once: retiring never allocates.
            h.pool.reserve(fresh + 1);
            fresh as u32
        });
        // Live segments hold distinct cells and only an empty pool
        // allocates, so storages never outnumber cells.
        let home = self.dir.get(phys).expect("as many cells as live segments");
        let storage = home.storage.get_or_init(|| SegStorage {
            slots: sentinel_ring(self.seg_cap),
            consumed: AtomicU64::new(0),
        });
        debug_assert!((storage.slots.iter()).all(|s| s.load(Ordering::Relaxed) == DNA));
        // The linearization point of the handoff: one tagged store (the
        // device path's single tagged-ring store).
        cell.entry
            .store(tag(seg) | u64::from(phys), Ordering::Release);
        self.installed_cap
            .store(installed_cap + self.seg_cap as u64, Ordering::Release);
        stats.segment_append();
        Some(seg)
    }

    /// `None` while the ticket's segment is not installed yet (reserve-
    /// ahead past materialized storage) and after it retired: whatever
    /// occupies its cell carries another tag.
    #[inline]
    fn resolve(&self, slot: u64) -> Option<Seg> {
        let (_, phys) = self.find(slot / self.seg_cap as u64)?;
        Some(Seg(phys))
    }

    #[inline]
    fn publish(&self, at: Seg, slot: u64, token: u32) {
        publish_into(self.place(at, slot).1, slot, token);
    }

    /// A ticket with no segment behind it counts a data wait like an
    /// unpublished one. The pickup that drains its segment is the
    /// handoff's other half: it frees the cell and pools the storage.
    #[inline]
    fn take(&self, at: Option<Seg>, slot: u64, stats: &QueueStats) -> Taken {
        let Some(at) = at else {
            stats.data_wait();
            return Taken::default();
        };
        let (storage, cell) = self.place(at, slot);
        let Some(token) = take_from(cell, stats) else {
            return Taken::default();
        };
        // The fetch_add serializes retirement: exactly one take observes
        // the count reach seg_cap.
        let mut retired = None;
        if storage.consumed.fetch_add(1, Ordering::AcqRel) + 1 == self.seg_cap as u64 {
            let seg = slot / self.seg_cap as u64;
            let mut h = self.handoff();
            // This ticket, unconsumed until now, kept the segment live.
            let (cell, _) = self.find(seg).expect("a draining segment is live");
            storage.consumed.store(0, Ordering::Relaxed);
            cell.entry.store(0, Ordering::Release);
            h.pool.push(at.0);
            retired = Some(seg);
        }
        Taken {
            token: Some(token),
            retired,
        }
    }

    fn ready(&self, slot: u64) -> bool {
        self.resolve(slot)
            .is_some_and(|at| self.place(at, slot).1.load(Ordering::Acquire) != DNA)
    }

    /// `Rear` may transiently exceed the installed prefix (a producer
    /// between its reservation and the covering install), so the hint
    /// saturates against the capacity across *all installed segments* —
    /// not one segment's, which a segmented queue legitimately exceeds.
    fn materialized(&self) -> u64 {
        self.installed_cap.load(Ordering::Acquire)
    }

    fn reset(&mut self) {
        let mut h = self.handoff();
        for cell in self.dir.iter().flatten() {
            let e = cell.entry.swap(0, Ordering::Relaxed);
            if e != 0 {
                let (storage, _) = self.place(Seg(e as u32), 0);
                repaint(&storage.slots);
                storage.consumed.store(0, Ordering::Relaxed);
                h.pool.push(e as u32);
            }
        }
        self.installed_cap.store(0, Ordering::Relaxed);
    }
}
