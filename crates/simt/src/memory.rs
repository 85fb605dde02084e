//! Statically allocated device memory.
//!
//! GPUs expose no dynamic allocation inside kernels (paper §3.1): every
//! buffer — including the scheduler queue — must be allocated by the host
//! before launch. [`DeviceMemory`] models this with a bump allocator over a
//! flat `u32` arena; allocation is only possible between launches, and all
//! kernel accesses are bounds-checked against their [`Buffer`] handle.
//!
//! # Mapped read-only inputs
//!
//! The paper's host uploads the graph once per kernel; on its APU host
//! and device share one physical memory, so the faithful model of that
//! upload is a host-pointer buffer, not a second copy.
//! [`DeviceMemory::map`] takes the range an [`DeviceMemory::alloc_init`]
//! copy would take — cache lines, atomic ranks, poisons and
//! [`DeviceMemory::allocated_words`] see the same addresses, so every
//! simulated number is unchanged — and serves its words from a shared
//! host array. A kernel store or atomic on it is [`SimError::ReadOnly`];
//! a host write panics. The arena words behind the range stay zero and
//! their pages are never written, so they never become resident; a
//! recycled arena's dirty pages under it are zeroed on demand like an
//! [`DeviceMemory::alloc`]'s. The accessors branch on the [`Buffer`]'s
//! tag, and a mapped word is one heap hop further than an arena word
//! (measured in DESIGN.md *Arenas and bandwidth accounting*).
//! `alloc_init` stays the copying upload for callers that lend a slice.
//!
//! # Word shadow state
//!
//! Behind every word sits one 8-byte `WordMeta`: the round-start snapshot
//! that stale reads return, and in `state` a touched flag plus the
//! same-round atomic count that sets an atomic's serialization rank. The
//! contract is **clear what you touched**:
//!
//! * The first store or atomic to a word in a round sets the flag,
//!   snapshots the word — its current value *is* the round-start value,
//!   since any earlier mutation this round would already have set the
//!   flag — and pushes the address on a journal. Starting the next round
//!   zeroes exactly the journalled entries. So an entry is non-zero only
//!   between the first touch of its word and the next round start, a round
//!   costs O(words it touched), and stale reads and atomics stay at one
//!   shadow access (`state != 0` ⇒ read the snapshot). There is no
//!   generation stamp, so nothing can wrap and resurrect a dead snapshot.
//! * The table is zero outside the journal, so it is never copied.
//!   Growth past capacity allocates a fresh lazily-mapped zeroed block and
//!   re-applies the journalled entries (a host `alloc` between launches
//!   finds the last round still open); the old table's cold pages are
//!   never read. `Drop` clears the open round's entries before the arena
//!   goes to the thread's pool, so a recycled table is clean over its whole
//!   capacity, and the emptied journal rides along with it.
//! * The journal push is also where the *word* arena learns what a launch
//!   wrote: it marks the word's 1024-word page in a per-page dirty map
//!   (host writes mark theirs too). Resident memory then follows the pages
//!   a run writes — a recycled arena re-zeroes only the pages an earlier
//!   life wrote, and growth copies only the pages this life wrote, from
//!   the top of the outgrown block down, handing each copied 1 MiB window
//!   back to the allocator before reading the next, so at most one window
//!   is resident twice (*Arenas and bandwidth accounting* in DESIGN.md).
//! * Mutation *versions* are not per word: only the CAS queues' `Front` /
//!   `Rear` are ever asked, and every consumer subtracts two reads of one
//!   word. A short per-instance list starts a word's counter at its first
//!   read (returning 0) and bumps it on each value-changing atomic, so
//!   every delta a caller can form is exact. Cost: one scan of the list
//!   per value-changing atomic — empty on RF runs, two entries on AN/BASE.
//! * Limits: journal addresses are `u32`, so an arena past `u32::MAX`
//!   words is refused by name; the rank is 31 bits (`debug_assert!`ed),
//!   ample for the waves × lanes atomics one round can issue.
//!
//! `tests/memory_model.rs` checks the table against a hash-map reference
//! across rounds, growth with a round open and recycling into differently
//! sized successors. Why this layout (and not a sparse set or stamps) is
//! DESIGN.md *Word shadow state*.

use crate::error::{AbortReason, FaultKind, SimError};
use crate::round::RoundState;
use std::collections::HashMap;
use std::sync::Arc;

/// Handle to a named device allocation: offset and length in 32-bit
/// words, plus the tag of the host array a mapped buffer reads.
///
/// Exactly two scalar fields, so a `Buffer` travels in two registers:
/// every accessor takes one by value, and a third field would pass it
/// through memory instead (which grew the atomics enough to un-inline the
/// kernels' per-edge path).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Buffer {
    /// The flat offset in the low 32 bits; in the high 32, 0 for an arena
    /// buffer and `k + 1` for the `k`-th array [`DeviceMemory::map`]
    /// mapped.
    at: u64,
    len: u32,
}

impl Buffer {
    fn new(offset: usize, len: usize, host: u32) -> Self {
        Buffer {
            at: offset as u64 | u64::from(host) << 32,
            len: len as u32,
        }
    }

    /// The flat address of the buffer's first word.
    #[inline]
    fn offset(&self) -> usize {
        self.at as u32 as usize
    }

    /// The mapped host array's tag (0: an arena buffer).
    #[inline]
    fn host(&self) -> usize {
        (self.at >> 32) as usize
    }

    /// Length of the buffer in `u32` words.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// True if the buffer holds no words.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// True if the buffer is a read-only mapped host array
    /// ([`DeviceMemory::map`]).
    #[inline]
    pub fn is_mapped(&self) -> bool {
        self.host() != 0
    }

    /// The flat device address of word `index`, bounds-checked.
    #[inline]
    pub(crate) fn addr(&self, index: usize) -> Result<usize, SimError> {
        if index < self.len as usize {
            Ok(self.offset() + index)
        } else {
            Err(SimError::OutOfBounds {
                index,
                len: self.len as usize,
            })
        }
    }

    /// The flat address range the buffer spans.
    fn span(&self) -> std::ops::Range<usize> {
        self.offset()..self.offset() + self.len()
    }
}

/// Per-word shadow state, one 8-byte entry per device word, so the hot
/// accessors (`rmw`, `stale_load`, rank lookup) reach everything they
/// need with one access. All-zero means "untouched this round".
#[derive(Clone, Copy, Debug, Default)]
struct WordMeta {
    /// Round-start snapshot of the word, recorded at its first store or
    /// atomic of the round (the word's value at that moment *is* its
    /// round-start value: an earlier mutation would already have touched
    /// it). Backs the one-round visibility delay for cross-wavefront data
    /// flow: a value published in round `r` becomes observable through
    /// stale reads in round `r + 1`.
    base_value: u32,
    /// [`TOUCHED`] plus the atomics that have targeted this word in the
    /// current round (low 31 bits).
    state: u32,
}

/// Set in [`WordMeta::state`] by the round's first store or atomic.
const TOUCHED: u32 = 1 << 31;
/// The same-round atomic count in [`WordMeta::state`].
const RANK_MASK: u32 = TOUCHED - 1;

/// Flat, host-managed device memory.
///
/// The per-word side table (`WordMeta`) is a flat vector indexed by
/// device address and kept exactly as long as `words` by the allocator,
/// so the hot accessors (`store`/`rmw`/`stale_load`) stay free of
/// hashing. Its contract is *Word shadow state* in the module docs.
#[derive(Clone, Debug)]
pub struct DeviceMemory {
    words: Vec<u32>,
    buffers: HashMap<String, Buffer>,
    /// The host arrays [`DeviceMemory::map`] mapped, indexed by a mapped
    /// [`Buffer`]'s tag minus one. The arena words behind their ranges are
    /// never read or written.
    mapped: Vec<Arc<Vec<u32>>>,
    /// Per-word shadow state (round snapshot + atomic rank).
    meta: Vec<WordMeta>,
    /// Addresses whose `meta` entry is non-zero: every word stored to or
    /// targeted by an atomic since the last [`DeviceMemory::begin_round`].
    journal: Vec<u32>,
    /// `(flat address, value-changing atomics since first asked)` for the
    /// few words anyone reads a mutation version of (the CAS queues'
    /// `Front`/`Rear`). Consumers only compare two reads of one word, so a
    /// counter that starts at a word's first read yields exactly the deltas
    /// a per-word counter since allocation would. Empty on RF runs.
    versions: Vec<(u32, u64)>,
    /// ECC-style poisoned words armed by fault injection: `(flat address,
    /// round armed)`. Kernel accesses to a poisoned word fault; host reads
    /// (`read_u32`/`read_slice`) do not, so a checkpoint snapshot can
    /// still be taken. Per-instance state — never recycled with the arena
    /// — and empty outside fault-injected runs, so the single emptiness
    /// branch on the access paths is the entire overlay cost.
    poisoned: Vec<(usize, u64)>,
    /// One flag per [`PAGE_WORDS`]-word page of the word arena's capacity:
    /// this life wrote the page — a host write, or a device word's first
    /// store or atomic of a round (marked at the journal push). Only
    /// written pages of the allocated prefix can hold nonzero words.
    written: Vec<bool>,
    /// One flag per page: it may still hold a previous life's words at or
    /// past the allocation front. [`DeviceMemory::alloc`] zeroes exactly
    /// its overlap with these pages (zero-on-demand); every other page
    /// past the front is pristine `alloc_zeroed` memory and costs nothing.
    stale: Vec<bool>,
    /// Words actually zeroed on demand by [`DeviceMemory::alloc`] and
    /// [`DeviceMemory::map`] (profiling counter; bounded by the pages
    /// earlier lives wrote).
    demand_zeroed_words: u64,
    /// True if this arena came from the thread-local recycling pool.
    recycled: bool,
    /// Allocation namespace prefix (see
    /// [`DeviceMemory::set_alloc_prefix`]). Empty outside co-resident
    /// multi-launch setup, where per-launch prefixes keep otherwise
    /// identical buffer names ("nodes", "weights", …) from colliding.
    alloc_prefix: String,
}

impl Default for DeviceMemory {
    fn default() -> Self {
        Self::new()
    }
}

/// Recycled arena backing: the word and shadow-state vectors of the last
/// dropped [`DeviceMemory`] on this thread. Simulation points run back to
/// back on a worker thread and each allocates a fresh device memory;
/// without recycling, every point re-faults the arena pages in and unmaps
/// them again (page-fault and `munmap` time dominated experiment setup).
///
/// On reuse the *words* are **not** re-zeroed up front: the arena records
/// which pages any earlier life wrote and [`DeviceMemory::alloc`] zeroes
/// exactly the part of those pages each allocation overlaps, so a run
/// never touches a page no life wrote, nor the cold tail past its own
/// allocations. The shadow table needs nothing: `Drop` cleared the last
/// round's journalled entries, so it arrives all-zero over its whole
/// capacity.
struct Arena {
    words: Vec<u32>,
    meta: Vec<WordMeta>,
    /// The emptied journal: its capacity spares the next life the regrowth.
    journal: Vec<u32>,
    /// Per page of `words`' capacity: some earlier life may have left
    /// nonzero words in it (what it wrote, plus older dirt it never
    /// allocated over).
    dirty: Vec<bool>,
}

/// Words per page of the word arena's dirty maps: the granule at which a
/// recycled arena re-zeroes and a growing one copies.
const PAGE_WORDS: usize = 1024;

/// Words of the outgrown block copied between two hand-backs when the word
/// arena grows (1 MiB): the most of the arena that is ever resident twice.
const GROWTH_WINDOW_WORDS: usize = 256 * PAGE_WORDS;

thread_local! {
    static ARENA_POOL: std::cell::RefCell<Option<Arena>> =
        const { std::cell::RefCell::new(None) };
}

impl Drop for DeviceMemory {
    fn drop(&mut self) {
        self.begin_round(); // hand the shadow table back all-zero
        let words = std::mem::take(&mut self.words);
        let meta = std::mem::take(&mut self.meta);
        let journal = std::mem::take(&mut self.journal);
        // What this life wrote, plus the older dirt it never allocated over.
        let mut dirty = std::mem::take(&mut self.stale);
        for (page, &written) in dirty.iter_mut().zip(&self.written) {
            *page |= written;
        }
        ARENA_POOL.with(|pool| {
            let mut slot = pool.borrow_mut();
            // Keep the larger arena: the biggest point's block serves
            // every later point without regrowth.
            if slot
                .as_ref()
                .is_none_or(|kept| kept.words.capacity() <= words.capacity())
            {
                *slot = Some(Arena {
                    words,
                    meta,
                    journal,
                    dirty,
                });
            }
        });
    }
}

/// Extends `v` to `new_len` elements *without* an explicit memset: fresh
/// capacity comes from `alloc_zeroed`, so large tables start as
/// lazily-mapped kernel zero pages and only the pages the simulation
/// actually touches are ever faulted in (read-only buffers like the CSR
/// edge list never take a snapshot or a rank, so most of the shadow table
/// stays unmapped).
///
/// When `new_len` exceeds the capacity, `v` becomes a fresh all-zero block
/// and the outgrown vector is returned: the caller carries over what is
/// live (the word prefix's written pages; the journalled shadow entries)
/// and nothing else is copied or faulted in.
///
/// New elements are zero when the caller maintains the arena invariant:
/// spare capacity outside the pages a recycled arena marks stale is never
/// written, so it is pristine `alloc_zeroed` memory. Growth over a stale
/// page re-exposes previous-life words — the allocator zeroes exactly the
/// exposed overlap on demand.
///
/// `T` must be valid for any bit pattern reachable here (`u32` and
/// `WordMeta` are plain integers).
fn grow_zeroed<T: Copy>(v: &mut Vec<T>, new_len: usize) -> Option<Vec<T>> {
    use std::alloc::{alloc_zeroed, handle_alloc_error, Layout};
    let mut outgrown = None;
    if new_len > v.capacity() {
        let cap = new_len.max(v.capacity() * 2).next_power_of_two();
        let layout = Layout::array::<T>(cap).expect("device arena too large");
        // SAFETY: `cap > 0` so the layout is non-zero-sized; the block is
        // allocated by the global allocator with the exact layout a
        // `Vec<T>` of capacity `cap` deallocates with.
        unsafe {
            let ptr = alloc_zeroed(layout).cast::<T>();
            if ptr.is_null() {
                handle_alloc_error(layout);
            }
            outgrown = Some(std::mem::replace(v, Vec::from_raw_parts(ptr, 0, cap)));
        }
    }
    // SAFETY: `new_len <= capacity`, and everything between the old length
    // and `capacity` is zero by the invariant above — valid for `T`.
    unsafe { v.set_len(new_len) };
    outgrown
}

impl DeviceMemory {
    /// Creates an empty device memory, recycling this thread's pooled
    /// arena when one is available. A recycled arena's dirty pages are
    /// zeroed on demand as allocations overlap them and its shadow table
    /// is all-zero (see `Arena`), so the result behaves exactly like a
    /// fresh allocation — only the page faults and the memset of pages
    /// the run never reaches are gone.
    pub fn new() -> Self {
        let (words, meta, journal, stale, recycled) =
            ARENA_POOL.with(|pool| match pool.borrow_mut().take() {
                Some(mut arena) => {
                    arena.words.clear();
                    arena.meta.clear();
                    (arena.words, arena.meta, arena.journal, arena.dirty, true)
                }
                None => (Vec::new(), Vec::new(), Vec::new(), Vec::new(), false),
            });
        DeviceMemory {
            words,
            buffers: HashMap::new(),
            mapped: Vec::new(),
            meta,
            journal,
            versions: Vec::new(),
            poisoned: Vec::new(),
            written: vec![false; stale.len()],
            stale,
            demand_zeroed_words: 0,
            recycled,
            alloc_prefix: String::new(),
        }
    }

    /// Sets the allocation namespace: subsequent `alloc*` calls register
    /// their buffers under `"{prefix}{name}"` (and [`DeviceMemory::buffer`]
    /// lookups do NOT apply it — hold the returned handles instead).
    /// Co-resident multi-launch hosts give each launch its own prefix so
    /// per-launch buffers with identical logical names coexist in one
    /// arena. Pass `""` to clear.
    pub fn set_alloc_prefix(&mut self, prefix: &str) {
        self.alloc_prefix = prefix.to_owned();
    }

    /// Grows the arena by `len` words and registers the handle (tagged
    /// `host`, see [`Buffer`]), without establishing any particular
    /// content for the new region: on stale pages the words hold
    /// previous-life data, elsewhere they are zero. Callers overwrite or
    /// zero the region themselves.
    fn alloc_raw(&mut self, name: &str, len: usize, host: u32) -> Buffer {
        let name: std::borrow::Cow<'_, str> = if self.alloc_prefix.is_empty() {
            name.into()
        } else {
            format!("{}{}", self.alloc_prefix, name).into()
        };
        let name = name.as_ref();
        assert!(
            !self.buffers.contains_key(name),
            "buffer {name:?} allocated twice"
        );
        let offset = self.words.len();
        let end = offset
            .checked_add(len)
            .filter(|&end| end <= u32::MAX as usize)
            .unwrap_or_else(|| {
                panic!(
                    "buffer {name:?} of {len} words would grow the device arena past \
                     u32::MAX words, the range of the shadow journal's 32-bit addresses"
                )
            });
        if let Some(mut outgrown) = grow_zeroed(&mut self.words, end) {
            // Only the written pages of the live `[0, offset)` prefix can
            // hold nonzero words, so only they move into the fresh zeroed
            // block; the stale pages stay behind in the old one. The copy
            // runs from the top down a window at a time, and each copied
            // window goes back to the allocator before the next is read
            // (on glibc an in-place `mremap` of the old block), so the
            // two blocks overlap by at most one window, not the prefix.
            // Correctness does not rest on the allocator: a shrink that
            // moves the block or keeps its tail still preserves `[0, lo)`.
            let pages = self.words.capacity().div_ceil(PAGE_WORDS);
            self.written.resize(pages, false);
            self.stale = vec![false; pages];
            let mut hi = offset;
            while hi > 0 {
                let lo = (hi - 1) / GROWTH_WINDOW_WORDS * GROWTH_WINDOW_WORDS;
                for page in (lo / PAGE_WORDS..hi.div_ceil(PAGE_WORDS)).filter(|&p| self.written[p])
                {
                    let span = page * PAGE_WORDS..((page + 1) * PAGE_WORDS).min(hi);
                    self.words[span.clone()].copy_from_slice(&outgrown[span]);
                }
                outgrown.truncate(lo);
                outgrown.shrink_to(lo);
                hi = lo;
            }
        }
        if let Some(outgrown) = grow_zeroed(&mut self.meta, end) {
            // Every other entry is zero in both tables: nothing to copy,
            // and the old table's cold pages are never faulted in.
            for &addr in &self.journal {
                self.meta[addr as usize] = outgrown[addr as usize];
            }
        }
        let buf = Buffer::new(offset, len, host);
        self.buffers.insert(name.to_owned(), buf);
        buf
    }

    /// Allocates `len` words under `name`, zero-initialized, and returns
    /// the handle. Mirrors `clCreateBuffer` before kernel launch. Only
    /// the overlap with a recycled arena's stale pages is actually memset
    /// (zero-on-demand); the rest is already zero and stays unmapped
    /// until something writes it.
    ///
    /// # Panics
    /// Panics if `name` is already allocated (host code bug) or the arena
    /// would exceed `u32::MAX` words.
    pub fn alloc(&mut self, name: &str, len: usize) -> Buffer {
        let buf = self.alloc_raw(name, len, 0);
        self.zero_stale(buf.span());
        buf
    }

    /// Maps the host array `data` read-only under `name`, in the manner
    /// of OpenCL's `CL_MEM_USE_HOST_PTR` (*Mapped read-only inputs* in the
    /// module docs): the buffer takes the flat range
    /// [`DeviceMemory::alloc_init`] would, but its reads are served from
    /// `data`, shared and not copied. A kernel store or atomic on it is
    /// [`SimError::ReadOnly`]; a host write panics.
    ///
    /// # Panics
    /// As [`DeviceMemory::alloc`].
    pub fn map(&mut self, name: &str, data: Arc<Vec<u32>>) -> Buffer {
        let buf = self.alloc_raw(name, data.len(), self.mapped.len() as u32 + 1);
        self.mapped.push(data);
        // Nothing reads the arena words behind the range, but a recycled
        // arena's dirty pages under it are zeroed like an `alloc`'s: the
        // allocator retires a stale page once the front passes it, so an
        // unzeroed one would hand its dirt to a later life's `alloc`.
        self.zero_stale(buf.span());
        buf
    }

    /// Zeroes the overlap of `span`, the newest allocation, with the
    /// recycled arena's stale pages.
    fn zero_stale(&mut self, span: std::ops::Range<usize>) {
        let (start, end) = (span.start, span.end);
        let capacity = self.words.capacity();
        for page in start / PAGE_WORDS..end.div_ceil(PAGE_WORDS) {
            if !self.stale[page] {
                continue;
            }
            let page_end = ((page + 1) * PAGE_WORDS).min(capacity);
            let span = (page * PAGE_WORDS).max(start)..page_end.min(end);
            self.demand_zeroed_words += span.len() as u64;
            self.words[span].fill(0);
            // Allocations only move forward: a page wholly behind the
            // front has had all its stale words zeroed.
            self.stale[page] = page_end > end;
        }
    }

    /// Allocates and initializes from a slice (host→device copy). The
    /// copy fully paints the region, so no pre-zeroing happens — one pass
    /// over the data instead of two. Read-only data already shared in an
    /// `Arc` is mapped instead ([`DeviceMemory::map`]).
    pub fn alloc_init(&mut self, name: &str, data: &[u32]) -> Buffer {
        let buf = self.alloc_raw(name, data.len(), 0);
        self.host_write(buf, 0..buf.len()).copy_from_slice(data);
        buf
    }

    /// Allocates `len` words painted with `value`. Single-pass: the fill
    /// paints directly instead of zeroing first and filling after — but it
    /// makes every page of the buffer resident, where a zero buffer
    /// ([`DeviceMemory::alloc`]) costs only the pages a run writes.
    pub fn alloc_filled(&mut self, name: &str, len: usize, value: u32) -> Buffer {
        let buf = self.alloc_raw(name, len, 0);
        self.host_write(buf, 0..len).fill(value);
        buf
    }

    /// Words `words` of arena buffer `buf`, with their pages marked
    /// written.
    ///
    /// # Panics
    /// Panics if `buf` is mapped: the host does not write through a
    /// read-only mapping.
    fn host_write(&mut self, buf: Buffer, words: std::ops::Range<usize>) -> &mut [u32] {
        if buf.is_mapped() {
            panic!(
                "host write to buffer {:?}, a read-only mapped host array",
                self.name_of(buf)
            );
        }
        let span = buf.offset() + words.start..buf.offset() + words.end;
        if !span.is_empty() {
            self.written[span.start / PAGE_WORDS..=(span.end - 1) / PAGE_WORDS].fill(true);
        }
        &mut self.words[span]
    }

    /// Looks up a buffer by name, returning `None` when it was never
    /// allocated. Used by fault injection, whose plans name buffers that
    /// a given kernel may not bind (such poisons are skipped).
    pub fn try_buffer(&self, name: &str) -> Option<Buffer> {
        self.buffers.get(name).copied()
    }

    /// Looks up a previously allocated buffer by name.
    ///
    /// # Panics
    /// Panics if the buffer does not exist.
    pub fn buffer(&self, name: &str) -> Buffer {
        *self
            .buffers
            .get(name)
            .unwrap_or_else(|| panic!("unknown buffer {name:?}"))
    }

    /// The name `buf` was registered under (error messages; cold).
    #[cold]
    fn name_of(&self, buf: Buffer) -> String {
        self.buffers
            .iter()
            .find(|&(_, &b)| b == buf)
            .map_or_else(|| "<unregistered>".to_owned(), |(name, _)| name.clone())
    }

    /// Host-side read of one word.
    pub fn read_u32(&self, buf: Buffer, index: usize) -> u32 {
        buf.addr(index).expect("host read out of bounds");
        self.read_slice(buf)[index]
    }

    /// Host-side write of one word.
    ///
    /// # Panics
    /// Panics if `index` is out of bounds or `buf` is mapped.
    pub fn write_u32(&mut self, buf: Buffer, index: usize, value: u32) {
        buf.addr(index).expect("host write out of bounds");
        self.host_write(buf, index..index + 1)[0] = value;
    }

    /// Host-side view of an entire buffer (device→host copy).
    pub fn read_slice(&self, buf: Buffer) -> &[u32] {
        if buf.is_mapped() {
            self.host_words(buf)
        } else {
            &self.words[buf.span()]
        }
    }

    /// The arena words behind `buf`'s address range, which a mapped
    /// buffer never reads or writes.
    #[cfg(test)]
    pub(crate) fn arena_words(&self, buf: Buffer) -> &[u32] {
        &self.words[buf.span()]
    }

    /// The host array behind mapped buffer `buf`.
    #[inline]
    fn host_words(&self, buf: Buffer) -> &[u32] {
        &self.mapped[buf.host() - 1]
    }

    /// Fills a buffer with a value.
    ///
    /// # Panics
    /// Panics if `buf` is mapped.
    pub fn fill(&mut self, buf: Buffer, value: u32) {
        self.host_write(buf, 0..buf.len()).fill(value);
    }

    /// Total allocated words.
    pub fn allocated_words(&self) -> usize {
        self.words.len()
    }

    /// Bytes of shadow state behind the arena: the 8-byte-per-word table
    /// plus the touched-address journal's capacity (profiling).
    pub fn meta_bytes(&self) -> u64 {
        (self.meta.len() * std::mem::size_of::<WordMeta>()
            + self.journal.capacity() * std::mem::size_of::<u32>()) as u64
    }

    /// Words zeroed on demand by [`DeviceMemory::alloc`] and
    /// [`DeviceMemory::map`] because an allocation overlapped a recycled
    /// arena's stale pages (profiling; cumulative over this memory's
    /// life).
    pub fn demand_zeroed_words(&self) -> u64 {
        self.demand_zeroed_words
    }

    /// True if this arena was recycled from the thread-local pool
    /// (profiling).
    pub fn was_recycled(&self) -> bool {
        self.recycled
    }

    // ---- fault-injection poison overlay (crate-internal) ----

    /// Arms an ECC-style poison on flat address `addr` (armed at `round`).
    /// Idempotent per address.
    pub(crate) fn arm_poison(&mut self, addr: usize, round: u64) {
        if !self.poisoned.iter().any(|&(a, _)| a == addr) {
            self.poisoned.push((addr, round));
        }
    }

    /// Disarms every poisoned word (a fresh launch starts clean).
    pub(crate) fn clear_poisons(&mut self) {
        self.poisoned.clear();
    }

    /// True once fault injection has armed a poison in this launch.
    #[inline]
    pub(crate) fn poison_armed(&self) -> bool {
        !self.poisoned.is_empty()
    }

    /// Faults if `addr` is poisoned. The fast path is a single emptiness
    /// check; the wave/round placeholders in the error are filled in by
    /// the engine, which knows the observing wave.
    #[inline]
    fn check_poison(&self, addr: usize) -> Result<(), SimError> {
        if self.poisoned.is_empty() {
            return Ok(());
        }
        self.check_poison_slow(addr, 1)
    }

    /// The guard of a device store or atomic: faults if `addr` is
    /// poisoned, else refuses a mapped `buf` with [`SimError::ReadOnly`].
    /// One branch covers both on the fast path, which keeps the write
    /// accessors' inlined bodies as small as a poison check alone.
    #[inline]
    fn check_write(&self, buf: Buffer, addr: usize) -> Result<(), SimError> {
        if self.poisoned.is_empty() & !buf.is_mapped() {
            return Ok(());
        }
        self.check_write_slow(buf, addr)
    }

    #[cold]
    fn check_write_slow(&self, buf: Buffer, addr: usize) -> Result<(), SimError> {
        self.check_poison_slow(addr, 1)?;
        if buf.is_mapped() {
            return Err(SimError::ReadOnly {
                buffer: self.name_of(buf),
            });
        }
        Ok(())
    }

    #[cold]
    fn check_poison_slow(&self, addr: usize, len: usize) -> Result<(), SimError> {
        for &(p, armed) in &self.poisoned {
            if p >= addr && p < addr + len {
                return Err(SimError::KernelAbort {
                    reason: AbortReason::InjectedFault {
                        kind: FaultKind::MemPoison,
                        wave: usize::MAX,
                        round: armed,
                    },
                    round: armed,
                });
            }
        }
        Ok(())
    }

    // ---- device-side accessors used by WaveCtx ----
    //
    // Kernels reach these through `WaveCtx`; the `#[doc(hidden)] pub` ones
    // are public only so the differential model test
    // (`tests/memory_model.rs`) can drive them directly.

    /// Current value of a word.
    #[doc(hidden)]
    #[inline]
    pub fn load(&self, buf: Buffer, index: usize) -> Result<u32, SimError> {
        let addr = buf.addr(index)?;
        self.check_poison(addr)?;
        Ok(if buf.is_mapped() {
            self.host_words(buf)[index]
        } else {
            self.words[addr]
        })
    }

    /// Bounds-checks the whole run `[start, start + len)` once and returns
    /// it as a slice — the prevalidated read path for contiguous blocks
    /// (CSR edge chunks): one check per block instead of one per word.
    #[inline]
    pub(crate) fn load_run(
        &self,
        buf: Buffer,
        start: usize,
        len: usize,
    ) -> Result<&[u32], SimError> {
        let end =
            start
                .checked_add(len)
                .filter(|&e| e <= buf.len())
                .ok_or(SimError::OutOfBounds {
                    index: start.saturating_add(len.saturating_sub(1)),
                    len: buf.len(),
                })?;
        let offset = buf.offset();
        if !self.poisoned.is_empty() && len > 0 {
            self.check_poison_slow(offset + start, len)?;
        }
        Ok(if buf.is_mapped() {
            &self.host_words(buf)[start..end]
        } else {
            &self.words[offset + start..offset + end]
        })
    }

    /// The shadow entry of `addr`, marked touched: the round's first store
    /// or atomic snapshots the word, journals the address and marks its
    /// page written.
    #[inline]
    fn touch(&mut self, addr: usize) -> &mut WordMeta {
        let m = &mut self.meta[addr];
        if m.state == 0 {
            m.base_value = self.words[addr];
            m.state = TOUCHED;
            self.journal.push(addr as u32);
            self.written[addr / PAGE_WORDS] = true;
        }
        m
    }

    /// Device-side store of one word.
    #[doc(hidden)]
    #[inline]
    pub fn store(&mut self, buf: Buffer, index: usize, value: u32) -> Result<(), SimError> {
        let addr = buf.addr(index)?;
        self.check_write(buf, addr)?;
        self.touch(addr);
        self.words[addr] = value;
        Ok(())
    }

    /// Fused atomic read-modify-write: registers the arrival rank,
    /// applies `f`, and (on a value change) bumps the version — one bounds
    /// check and one shadow access for the whole operation. Returns
    /// `(flat address, arrival rank, old value)`; rank 0 pays no
    /// serialization delay. Simulator execution is sequential, so
    /// atomicity is inherent; contention *cost* is charged by the caller
    /// through the round state.
    #[doc(hidden)]
    #[inline]
    pub fn atomic_rmw(
        &mut self,
        buf: Buffer,
        index: usize,
        round: &mut RoundState,
        f: impl FnOnce(u32) -> u32,
    ) -> Result<(usize, u32, u32), SimError> {
        let addr = buf.addr(index)?;
        self.check_write(buf, addr)?;
        let old = self.words[addr];
        let new = f(old);
        let m = self.touch(addr);
        let rank = m.state & RANK_MASK;
        debug_assert!(rank < RANK_MASK, "same-round atomic rank overflows 31 bits");
        m.state += 1;
        if rank == 0 {
            round.note_new_address();
        }
        round.note_count(rank + 1);
        if new != old {
            self.words[addr] = new;
            // Empty on RF runs, `Front` and `Rear` on AN/BASE runs.
            if let Some(v) = self.versions.iter_mut().find(|v| v.0 == addr as u32) {
                v.1 += 1;
            }
        }
        Ok((addr, rank, old))
    }

    /// The value a word held at the start of the current round (the
    /// one-round-delayed view other wavefronts observe).
    #[doc(hidden)]
    #[inline]
    pub fn stale_load(&self, buf: Buffer, index: usize) -> Result<u32, SimError> {
        let addr = buf.addr(index)?;
        self.check_poison(addr)?;
        Ok(self.observe_stale(buf, addr))
    }

    /// Stale read of `buf`'s word at validated flat address `addr`, with
    /// no poison check (host-side observation). A mapped word is never
    /// written, so its round-start value is its host value.
    #[inline]
    pub(crate) fn observe_stale(&self, buf: Buffer, addr: usize) -> u32 {
        if buf.is_mapped() {
            return self.mapped_stale(buf, addr);
        }
        self.stale_value(addr)
    }

    /// [`DeviceMemory::observe_stale`] on a mapped buffer, out of line:
    /// nothing hot stale-reads one, and the stale accessors must stay
    /// small enough to inline.
    #[cold]
    fn mapped_stale(&self, buf: Buffer, addr: usize) -> u32 {
        self.host_words(buf)[addr - buf.offset()]
    }

    /// Raw stale read by flat address — the engine's wake-check path for
    /// parked waves. The address must come from a validated `flat_addr`.
    /// On a mapped word this and [`DeviceMemory::word`] read the zero the
    /// arena holds behind it: the word never changes, so a watch on it
    /// holds forever, exactly as it would on the host value.
    #[inline]
    pub(crate) fn stale_value(&self, addr: usize) -> u32 {
        let m = &self.meta[addr];
        if m.state != 0 {
            m.base_value
        } else {
            self.words[addr]
        }
    }

    /// Raw current-value read by flat address (wake-check path; see
    /// [`DeviceMemory::stale_value`]).
    #[inline]
    pub(crate) fn word(&self, addr: usize) -> u32 {
        self.words[addr]
    }

    /// Raw mutation-version read by flat address (park path; see
    /// [`DeviceMemory::version`]). The address must come from a validated
    /// `flat_addr`.
    pub(crate) fn version_at(&mut self, addr: usize) -> u64 {
        let addr = addr as u32;
        match self.versions.iter().find(|v| v.0 == addr) {
            Some(v) => v.1,
            None => {
                self.versions.push((addr, 0));
                0
            }
        }
    }

    /// Starts a new visibility round: everything written so far becomes
    /// observable to stale reads and every same-address atomic count
    /// restarts, by zeroing the shadow entries the last round touched.
    #[doc(hidden)]
    pub fn begin_round(&mut self) {
        for addr in self.journal.drain(..) {
            self.meta[addr as usize] = WordMeta::default();
        }
    }

    /// Mutation version of a word: how many successful (value-changing)
    /// atomics have landed on it since this was first asked about it
    /// (which returns 0). Only differences between two reads mean anything.
    #[doc(hidden)]
    pub fn version(&mut self, buf: Buffer, index: usize) -> Result<u64, SimError> {
        Ok(self.version_at(buf.addr(index)?))
    }

    /// Flat address for contention bookkeeping.
    #[inline]
    pub(crate) fn flat_addr(&self, buf: Buffer, index: usize) -> Result<usize, SimError> {
        buf.addr(index)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The unfused RMW shape the old API exposed, for test brevity.
    fn rmw(
        mem: &mut DeviceMemory,
        buf: Buffer,
        index: usize,
        f: impl FnOnce(u32) -> u32,
    ) -> Result<u32, SimError> {
        let mut round = RoundState::new();
        mem.atomic_rmw(buf, index, &mut round, f)
            .map(|(_, _, old)| old)
    }

    #[test]
    fn alloc_zeroes_and_tracks_names() {
        let mut mem = DeviceMemory::new();
        let a = mem.alloc("a", 4);
        let b = mem.alloc("b", 2);
        assert_eq!(mem.allocated_words(), 6);
        assert_eq!(mem.read_slice(a), &[0, 0, 0, 0]);
        assert_eq!(mem.buffer("b"), b);
    }

    #[test]
    fn alloc_init_copies_data() {
        let mut mem = DeviceMemory::new();
        let a = mem.alloc_init("a", &[1, 2, 3]);
        assert_eq!(mem.read_slice(a), &[1, 2, 3]);
        assert_eq!(mem.read_u32(a, 2), 3);
    }

    #[test]
    fn alloc_prefix_namespaces_identical_names() {
        let mut mem = DeviceMemory::new();
        mem.set_alloc_prefix("q0:");
        let a = mem.alloc_init("nodes", &[1, 2]);
        mem.set_alloc_prefix("q1:");
        let b = mem.alloc_init("nodes", &[3, 4, 5]);
        mem.set_alloc_prefix("");
        assert_ne!(a, b);
        assert_eq!(mem.read_slice(a), &[1, 2]);
        assert_eq!(mem.read_slice(b), &[3, 4, 5]);
        // Lookups are unprefixed: callers address the stored name.
        assert_eq!(mem.buffer("q0:nodes"), a);
        assert_eq!(mem.buffer("q1:nodes"), b);
    }

    #[test]
    fn fill_paints_whole_buffer() {
        let mut mem = DeviceMemory::new();
        let a = mem.alloc("a", 3);
        mem.fill(a, 0xFFFF_FFFF);
        assert_eq!(mem.read_slice(a), &[u32::MAX; 3]);
    }

    #[test]
    fn rmw_returns_old_value() {
        let mut mem = DeviceMemory::new();
        let a = mem.alloc("a", 1);
        mem.write_u32(a, 0, 10);
        let old = rmw(&mut mem, a, 0, |v| v + 5).unwrap();
        assert_eq!(old, 10);
        assert_eq!(mem.read_u32(a, 0), 15);
    }

    #[test]
    fn device_load_reports_out_of_bounds() {
        let mut mem = DeviceMemory::new();
        let a = mem.alloc("a", 1);
        assert!(matches!(
            mem.load(a, 1),
            Err(SimError::OutOfBounds { index: 1, len: 1 })
        ));
    }

    #[test]
    fn load_run_checks_bounds_once() {
        let mut mem = DeviceMemory::new();
        let a = mem.alloc_init("a", &[1, 2, 3, 4]);
        assert_eq!(mem.load_run(a, 1, 3).unwrap(), &[2, 3, 4]);
        assert_eq!(mem.load_run(a, 4, 0).unwrap(), &[]);
        assert!(mem.load_run(a, 2, 3).is_err());
        assert!(mem.load_run(a, usize::MAX, 2).is_err());
    }

    #[test]
    fn stale_load_sees_round_start_value() {
        let mut mem = DeviceMemory::new();
        let a = mem.alloc("a", 1);
        mem.begin_round();
        mem.store(a, 0, 7).unwrap();
        // Same round: stale view still shows the round-start value.
        assert_eq!(mem.stale_load(a, 0).unwrap(), 0);
        assert_eq!(mem.load(a, 0).unwrap(), 7);
        mem.begin_round();
        assert_eq!(mem.stale_load(a, 0).unwrap(), 7);
    }

    #[test]
    fn versions_count_value_changes_only() {
        let mut mem = DeviceMemory::new();
        let a = mem.alloc("a", 2);
        // A word's counter starts at the first read, so only deltas are
        // meaningful — which is also all the queue staleness models read.
        rmw(&mut mem, a, 0, |v| v + 1).unwrap(); // before anyone asked
        let v0 = mem.version(a, 0).unwrap();
        rmw(&mut mem, a, 0, |v| v + 1).unwrap();
        rmw(&mut mem, a, 0, |v| v).unwrap(); // no change
        mem.store(a, 0, 9).unwrap(); // stores are not atomics
        rmw(&mut mem, a, 1, |v| v + 1).unwrap(); // another word
        mem.begin_round(); // versions outlive rounds
        rmw(&mut mem, a, 0, |v| v + 1).unwrap();
        assert_eq!(mem.version(a, 0).unwrap(), v0 + 2);
        // Word 1 is first asked about now: its earlier change is not in
        // any delta a caller can form.
        let w0 = mem.version(a, 1).unwrap();
        rmw(&mut mem, a, 1, |v| v + 1).unwrap();
        assert_eq!(mem.version(a, 1).unwrap(), w0 + 1);
        assert_eq!(mem.version(a, 0).unwrap(), v0 + 2);
    }

    #[test]
    #[should_panic(expected = "allocated twice")]
    fn duplicate_names_rejected() {
        let mut mem = DeviceMemory::new();
        mem.alloc("a", 1);
        mem.alloc("a", 1);
    }

    #[test]
    #[should_panic(expected = "unknown buffer")]
    fn unknown_buffer_panics() {
        let mem = DeviceMemory::new();
        mem.buffer("ghost");
    }

    #[test]
    fn arena_growth_preserves_contents_and_zeroes_new_space() {
        let mut mem = DeviceMemory::new();
        let a = mem.alloc_init("a", &[7; 100]);
        // Force several capacity growths past the first block.
        let b = mem.alloc("b", 10_000);
        let c = mem.alloc("c", 300_000);
        assert_eq!(mem.read_slice(a), &[7u32; 100][..]);
        assert!(mem.read_slice(b).iter().all(|&w| w == 0));
        assert!(mem.read_slice(c).iter().all(|&w| w == 0));
        let v0 = mem.version(c, 299_999).unwrap();
        mem.write_u32(c, 299_999, 5);
        rmw(&mut mem, c, 299_999, |v| v + 1).unwrap();
        assert_eq!(mem.read_u32(c, 299_999), 6);
        assert_eq!(mem.version(c, 299_999).unwrap(), v0 + 1);
    }

    #[test]
    fn recycled_arena_is_indistinguishable_from_fresh() {
        let mut mem = DeviceMemory::new();
        let a = mem.alloc("a", 1000);
        mem.fill(a, 0xDEAD_BEEF);
        rmw(&mut mem, a, 5, |v| v.wrapping_add(1)).unwrap();
        mem.begin_round();
        mem.store(a, 7, 3).unwrap();
        rmw(&mut mem, a, 9, |v| v).unwrap();
        let v5 = mem.version(a, 5).unwrap();
        rmw(&mut mem, a, 5, |v| v.wrapping_add(1)).unwrap();
        assert_eq!(mem.version(a, 5).unwrap(), v5 + 1);
        drop(mem); // arena returns to this thread's pool, mid-round
        let mut mem2 = DeviceMemory::new();
        assert!(mem2.was_recycled());
        let b = mem2.alloc("b", 2000);
        // Words are re-zeroed, and the open round's snapshots and ranks
        // were cleared on the way into the pool.
        assert!(mem2.meta.iter().all(|m| (m.base_value, m.state) == (0, 0)));
        assert!(mem2.read_slice(b).iter().all(|&w| w == 0));
        assert_eq!(mem2.stale_load(b, 7).unwrap(), 0);
        assert_eq!(mem2.load(b, 7).unwrap(), 0);
        let mut round = RoundState::new();
        for i in [5, 7, 9] {
            assert_eq!(mem2.atomic_rmw(b, i, &mut round, |v| v).unwrap().1, 0);
        }
        // Version counters are per instance: a delta starts at zero.
        let v0 = mem2.version(b, 5).unwrap();
        rmw(&mut mem2, b, 5, |v| v).unwrap();
        assert_eq!(mem2.version(b, 5).unwrap(), v0);
    }

    #[test]
    fn word_shadow_state_is_eight_bytes() {
        assert_eq!(std::mem::size_of::<WordMeta>(), 8);
    }

    #[test]
    fn pooled_shadow_table_is_all_zero_over_its_capacity() {
        let mut mem = DeviceMemory::new();
        let a = mem.alloc("a", 5000);
        let mut round = RoundState::new();
        for i in (0..5000).step_by(7) {
            mem.store(a, i, i as u32 + 1).unwrap();
            mem.atomic_rmw(a, i / 2, &mut round, |v| v + 1).unwrap();
        }
        mem.begin_round();
        for i in (0..5000).step_by(11) {
            mem.atomic_rmw(a, i, &mut round, |v| v ^ 1).unwrap();
        }
        drop(mem);
        let pooled = ARENA_POOL.with(|pool| pool.borrow_mut().take()).unwrap();
        assert!(pooled.journal.is_empty());
        let (ptr, cap) = (pooled.meta.as_ptr().cast::<u32>(), pooled.meta.capacity());
        assert!(cap >= 5000);
        // SAFETY: the whole capacity is `alloc_zeroed` memory that has only
        // ever been written with initialized `WordMeta`s (two plain `u32`s).
        let raw = unsafe { std::slice::from_raw_parts(ptr, cap * 2) };
        assert!(raw.iter().all(|&half| half == 0));
    }

    #[test]
    fn shadow_growth_carries_the_open_round_and_nothing_else() {
        let mut mem = DeviceMemory::new();
        let a = mem.alloc_init("a", &[1, 2, 3, 4]);
        let mut round = RoundState::new();
        mem.store(a, 1, 20).unwrap();
        mem.atomic_rmw(a, 2, &mut round, |v| v + 1).unwrap();
        // The host allocates between launches, i.e. while the last
        // round's journal is still open; outgrowing the table must keep it.
        let cap = mem.meta.capacity();
        let big = mem.alloc("big", cap + 1);
        assert!(mem.meta.capacity() > cap);
        assert_eq!(mem.stale_load(a, 1).unwrap(), 2);
        assert_eq!(mem.stale_load(a, 2).unwrap(), 3);
        assert_eq!(mem.atomic_rmw(a, 2, &mut round, |v| v).unwrap().1, 1);
        assert_eq!(mem.stale_load(big, cap).unwrap(), 0);
        mem.begin_round();
        assert!(mem.meta.iter().all(|m| m.state == 0));
        assert_eq!(mem.stale_load(a, 1).unwrap(), 20);
    }

    #[test]
    #[should_panic(expected = "past u32::MAX words")]
    fn arena_past_the_journal_address_range_is_refused() {
        let mut mem = DeviceMemory::new();
        mem.alloc("a", 16);
        mem.alloc("huge", u32::MAX as usize - 15);
    }

    #[test]
    fn grow_zeroed_is_idempotent_within_capacity() {
        let mut v: Vec<u32> = Vec::new();
        super::grow_zeroed(&mut v, 3);
        v[1] = 9;
        super::grow_zeroed(&mut v, 3);
        let cap = v.capacity();
        super::grow_zeroed(&mut v, cap);
        assert_eq!(v[1], 9);
        assert!(v.iter().enumerate().all(|(i, &w)| w == 0 || i == 1));
    }

    #[test]
    fn alloc_filled_paints_in_one_pass() {
        let mut mem = DeviceMemory::new();
        let a = mem.alloc_filled("a", 4, 0xABCD);
        assert_eq!(mem.read_slice(a), &[0xABCD; 4]);
        let z = mem.alloc_filled("z", 0, 9);
        assert!(z.is_empty());
    }

    #[test]
    fn demand_zeroing_covers_exactly_the_dirty_overlap() {
        let mut mem = DeviceMemory::new();
        let a = mem.alloc("a", 1000);
        mem.fill(a, 7); // writes page 0, the arena's only page
        drop(mem);
        let mut mem2 = DeviceMemory::new();
        assert!(mem2.was_recycled());
        // Fully inside the stale page: the whole range is memset.
        let b = mem2.alloc("b", 400);
        assert!(mem2.read_slice(b).iter().all(|&w| w == 0));
        assert_eq!(mem2.demand_zeroed_words(), 400);
        // The page's rest stays stale: the next allocation pays for
        // exactly its overlap [400, 700), not the whole page.
        let c = mem2.alloc("c", 300);
        assert!(mem2.read_slice(c).iter().all(|&w| w == 0));
        assert_eq!(mem2.demand_zeroed_words(), 700);
    }

    #[test]
    fn realloc_leaves_the_dirty_tail_behind() {
        let mut mem = DeviceMemory::new();
        let a = mem.alloc("a", 1000);
        mem.fill(a, 9);
        drop(mem);
        let mut mem2 = DeviceMemory::new();
        // The fill wrote page 0 of a one-page arena, so page 0 is the only
        // stale page, and `b` lies inside it: its overlap is all of `b`.
        let b = mem2.alloc("b", 100);
        // Growing past capacity reallocates; only the written pages of the
        // live prefix are copied (none: `b` was zeroed, not written), so
        // the stale page's remaining 924 words never need zeroing.
        let big = mem2.alloc("big", 1 << 20);
        assert!(mem2.read_slice(b).iter().all(|&w| w == 0));
        assert!(mem2.read_slice(big).iter().all(|&w| w == 0));
        assert_eq!(mem2.demand_zeroed_words(), b.len() as u64);
    }

    #[test]
    fn a_sparse_life_costs_its_successor_only_the_pages_it_wrote() {
        const WORDS: usize = 1 << 20;
        let mut mem = DeviceMemory::new();
        let a = mem.alloc("a", WORDS);
        let mut round = RoundState::new();
        // Three words on three pages, by each kind of writer.
        mem.write_u32(a, 0, 1);
        mem.store(a, 300 * PAGE_WORDS + 5, 2).unwrap();
        mem.atomic_rmw(a, WORDS - 1, &mut round, |v| v + 3).unwrap();
        drop(mem);
        let mut mem2 = DeviceMemory::new();
        assert!(mem2.was_recycled());
        let b = mem2.alloc("b", WORDS);
        assert!(mem2.read_slice(b).iter().all(|&w| w == 0));
        assert!(mem2.demand_zeroed_words() <= 3 * PAGE_WORDS as u64);
        // What the successor zeroed is clean for the one after it.
        drop(mem2);
        let mut mem3 = DeviceMemory::new();
        mem3.alloc("c", WORDS);
        assert_eq!(mem3.demand_zeroed_words(), 0);
    }

    #[test]
    fn growth_with_a_round_open_keeps_written_words_and_copies_no_clean_page() {
        let mut mem = DeviceMemory::new();
        let a = mem.alloc("a", 8 * PAGE_WORDS);
        let mut round = RoundState::new();
        let written = [(3, 30), (5 * PAGE_WORDS + 7, 70), (7 * PAGE_WORDS, 9)];
        mem.store(a, written[0].0, written[0].1).unwrap();
        mem.atomic_rmw(a, written[1].0, &mut round, |v| v + 70)
            .unwrap();
        mem.write_u32(a, written[2].0, written[2].1);
        // A word the dirty map does not know of: if growth copied its
        // clean page, it would survive into the new block.
        mem.words[2 * PAGE_WORDS + 1] = 0xC0FFEE;
        let cap = mem.words.capacity();
        let big = mem.alloc("big", cap);
        assert!(mem.words.capacity() > cap);
        for (i, &w) in mem.read_slice(a).iter().enumerate() {
            let want = written
                .iter()
                .find(|&&(at, _)| at == i)
                .map_or(0, |&(_, v)| v);
            assert_eq!(w, want, "word {i}");
        }
        assert!(mem.read_slice(big).iter().all(|&w| w == 0));
        // The round is still open: the device writes' snapshots came along.
        assert_eq!(mem.stale_load(a, written[0].0).unwrap(), 0);
        assert_eq!(mem.stale_load(a, written[1].0).unwrap(), 0);
        mem.begin_round();
        assert_eq!(mem.stale_load(a, written[1].0).unwrap(), 70);
    }

    #[test]
    fn buffers_do_not_overlap() {
        let mut mem = DeviceMemory::new();
        let a = mem.alloc("a", 2);
        let b = mem.alloc("b", 2);
        mem.write_u32(a, 1, 7);
        mem.write_u32(b, 0, 9);
        assert_eq!(mem.read_u32(a, 1), 7);
        assert_eq!(mem.read_u32(b, 0), 9);
    }

    #[test]
    fn poisoned_word_faults_device_paths_but_not_host_reads() {
        let mut mem = DeviceMemory::new();
        let a = mem.alloc_init("a", &[1, 2, 3, 4]);
        let addr = mem.flat_addr(a, 2).unwrap();
        mem.arm_poison(addr, 5);
        for r in [
            mem.load(a, 2),
            mem.stale_load(a, 2),
            rmw(&mut mem, a, 2, |v| v + 1),
        ] {
            assert!(
                matches!(
                    r,
                    Err(SimError::KernelAbort {
                        reason: AbortReason::InjectedFault {
                            kind: FaultKind::MemPoison,
                            ..
                        },
                        ..
                    })
                ),
                "{r:?}"
            );
        }
        assert!(mem.store(a, 2, 9).is_err());
        assert!(mem.load_run(a, 1, 3).is_err());
        // Neighbours and host reads are unaffected.
        assert_eq!(mem.load(a, 1).unwrap(), 2);
        assert!(mem.load_run(a, 0, 2).is_ok());
        assert_eq!(mem.read_u32(a, 2), 3);
        assert_eq!(mem.read_slice(a), &[1, 2, 3, 4]);
        mem.clear_poisons();
        assert_eq!(mem.load(a, 2).unwrap(), 3);
    }

    #[test]
    fn recycled_arena_does_not_carry_poison() {
        let mut mem = DeviceMemory::new();
        let a = mem.alloc("a", 8);
        let addr = mem.flat_addr(a, 3).unwrap();
        mem.arm_poison(addr, 0);
        drop(mem);
        let mut mem2 = DeviceMemory::new();
        let b = mem2.alloc("b", 8);
        assert!(mem2.load(b, 3).is_ok());
    }

    #[test]
    fn mapped_buffer_reads_the_host_array_at_arena_addresses() {
        let mut mem = DeviceMemory::new();
        let a = mem.alloc_init("a", &[9, 9]);
        let host = Arc::new(vec![10, 11, 12, 13]);
        let m = mem.map("m", Arc::clone(&host));
        let b = mem.alloc("b", 3);
        // The mapping takes its range exactly like a copy would.
        assert_eq!((m.offset(), m.len()), (2, 4));
        assert!(m.is_mapped() && !a.is_mapped() && !b.is_mapped());
        assert_eq!(mem.allocated_words(), 9);
        assert_eq!(mem.flat_addr(m, 1).unwrap(), 3);
        assert_eq!(mem.flat_addr(b, 0).unwrap(), 6);
        // Every read path sees the host data; the arena behind stays zero.
        assert_eq!(mem.read_slice(m), &host[..]);
        assert_eq!(mem.read_u32(m, 3), 13);
        assert_eq!(mem.load(m, 2).unwrap(), 12);
        assert_eq!(mem.stale_load(m, 1).unwrap(), 11);
        assert_eq!(mem.observe_stale(m, mem.flat_addr(m, 1).unwrap()), 11);
        assert_eq!(mem.load_run(m, 1, 3).unwrap(), &[11, 12, 13]);
        assert!(mem.load_run(m, 2, 3).is_err());
        assert!(matches!(
            mem.load(m, 4),
            Err(SimError::OutOfBounds { index: 4, len: 4 })
        ));
        assert_eq!(mem.arena_words(m), &[0; 4]);
        // Device writes are refused by name and land nowhere.
        assert_eq!(
            mem.store(m, 0, 1),
            Err(SimError::ReadOnly { buffer: "m".into() })
        );
        assert!(matches!(
            rmw(&mut mem, m, 0, |v| v + 1),
            Err(SimError::ReadOnly { .. })
        ));
        assert_eq!(mem.read_slice(m), &host[..]);
        assert_eq!(mem.arena_words(m), &[0; 4]);
        // Neighbours are ordinary arena buffers.
        mem.write_u32(b, 0, 5);
        assert_eq!(mem.read_slice(b), &[5, 0, 0]);
        assert_eq!(mem.read_slice(a), &[9, 9]);
    }

    #[test]
    fn a_dirty_page_under_a_mapping_stays_out_of_later_zeroed_allocations() {
        let mut mem = DeviceMemory::new();
        let a = mem.alloc("a", 8 * PAGE_WORDS);
        mem.fill(a, 7);
        drop(mem);
        let mut mem2 = DeviceMemory::new();
        assert!(mem2.was_recycled());
        // The mapping covers the head of dirty page 0, the allocation its
        // tail: once the front passes page 0 the allocator retires it.
        // (Both fit the recycled capacity: growth would start clean.)
        mem2.map("m", Arc::new(vec![1; 100]));
        let z = mem2.alloc("z", 2 * PAGE_WORDS);
        assert!(mem2.read_slice(z).iter().all(|&w| w == 0));
        assert_eq!(mem2.words.capacity(), 8 * PAGE_WORDS);
        drop(mem2);
        let mut mem3 = DeviceMemory::new();
        let y = mem3.alloc("y", 3 * PAGE_WORDS);
        assert!(mem3.read_slice(y).iter().all(|&w| w == 0));
    }

    #[test]
    #[should_panic(expected = "read-only mapped host array")]
    fn host_writes_to_a_mapped_buffer_are_refused() {
        let mut mem = DeviceMemory::new();
        let m = mem.map("m", Arc::new(vec![1, 2]));
        mem.write_u32(m, 0, 3);
    }

    #[test]
    fn buffer_handles_stay_small() {
        assert!(std::mem::size_of::<Buffer>() <= 16);
    }

    #[test]
    fn zero_length_buffer_is_legal_but_unreadable() {
        let mut mem = DeviceMemory::new();
        let z = mem.alloc("z", 0);
        assert!(z.is_empty());
        assert!(mem.load(z, 0).is_err());
    }
}
