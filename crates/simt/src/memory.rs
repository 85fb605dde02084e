//! Statically allocated device memory.
//!
//! GPUs expose no dynamic allocation inside kernels (paper §3.1): every
//! buffer — including the scheduler queue — must be allocated by the host
//! before launch. [`DeviceMemory`] models this with a bump allocator over a
//! flat `u32` arena; allocation is only possible between launches, and all
//! kernel accesses are bounds-checked against their [`Buffer`] handle.

use crate::error::{AbortReason, FaultKind, SimError};
use crate::round::RoundState;
use std::collections::HashMap;

/// Handle to a named device allocation (offset + length in 32-bit words).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Buffer {
    pub(crate) offset: usize,
    pub(crate) len: usize,
}

impl Buffer {
    /// Length of the buffer in `u32` words.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the buffer holds no words.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The flat device address of word `index`, bounds-checked.
    #[inline]
    pub(crate) fn addr(&self, index: usize) -> Result<usize, SimError> {
        if index < self.len {
            Ok(self.offset + index)
        } else {
            Err(SimError::OutOfBounds {
                index,
                len: self.len,
            })
        }
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
/// device address and kept exactly as long as `words` by the allocator.
/// Its contract is *clear what you touched*: the first store or atomic to
/// a word in a round snapshots it and pushes its address on `journal`;
/// starting the next round (and dropping the memory) zeroes exactly the
/// journalled entries. The table is therefore all-zero whenever the
/// journal is empty, the hot accessors (`store`/`rmw`/`stale_load`) stay
/// free of hashing, and a round costs O(words it touched).
#[derive(Clone, Debug)]
pub struct DeviceMemory {
    words: Vec<u32>,
    buffers: HashMap<String, Buffer>,
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
    /// Length of the word-arena prefix that may still hold nonzero data
    /// from a previous life. Allocations overlapping it zero exactly the
    /// overlap (zero-on-demand); allocations past it land on pristine
    /// `alloc_zeroed` pages and pay nothing.
    dirty_words: usize,
    /// Words actually zeroed on demand by [`DeviceMemory::alloc`]
    /// (profiling counter; bounded by the previous life's footprint).
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
/// On reuse the *word* prefix is **not** re-zeroed up front: the arena
/// records how far its dirty prefix extends and [`DeviceMemory::alloc`]
/// zeroes exactly the part each allocation overlaps, so a run that
/// allocates less than the previous one never touches the cold tail.
/// The shadow table needs nothing: `Drop` cleared the last round's
/// journalled entries, so it arrives all-zero over its whole capacity.
struct Arena {
    words: Vec<u32>,
    meta: Vec<WordMeta>,
    /// The emptied journal: its capacity spares the next life the regrowth.
    journal: Vec<u32>,
    /// How far the possibly-nonzero word prefix extends (the maximum of
    /// the previous life's own dirty prefix and its final length).
    dirty_words: usize,
}

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
        // Anything this life wrote extends the dirty prefix; dirt beyond
        // our final length (from an even earlier, larger life) persists.
        let dirty_words = self.dirty_words.max(words.len());
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
                    dirty_words,
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
/// live (the word prefix; the journalled shadow entries) and nothing else
/// is copied or faulted in.
///
/// New elements are zero when the caller maintains the arena invariant:
/// spare capacity beyond `max(len, dirty_words)` is never written, so it
/// is pristine `alloc_zeroed` memory. Growth within a recycled arena's
/// dirty prefix re-exposes previous-life words — the allocator zeroes
/// exactly the exposed overlap on demand.
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
    /// arena when one is available. A recycled arena's word prefix is
    /// zeroed on demand as allocations overlap it and its shadow table
    /// is all-zero (see `Arena`), so the result behaves exactly like a
    /// fresh allocation — only the page faults and the cold-tail memset
    /// are gone.
    pub fn new() -> Self {
        let (words, meta, journal, dirty_words, recycled) =
            ARENA_POOL.with(|pool| match pool.borrow_mut().take() {
                Some(mut arena) => {
                    arena.words.clear();
                    arena.meta.clear();
                    (
                        arena.words,
                        arena.meta,
                        arena.journal,
                        arena.dirty_words,
                        true,
                    )
                }
                None => (Vec::new(), Vec::new(), Vec::new(), 0, false),
            });
        DeviceMemory {
            words,
            buffers: HashMap::new(),
            meta,
            journal,
            versions: Vec::new(),
            poisoned: Vec::new(),
            dirty_words,
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

    /// Grows the arena by `len` words and registers the handle, without
    /// establishing any particular content for the new region: within the
    /// recycled dirty prefix the words hold previous-life data, beyond it
    /// they are zero. Callers overwrite or zero the region themselves.
    fn alloc_raw(&mut self, name: &str, len: usize) -> Buffer {
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
        if let Some(outgrown) = grow_zeroed(&mut self.words, end) {
            // Only the live `[0, offset)` prefix moves into the fresh
            // zeroed block; the dirty tail stays behind in the old one.
            self.words[..offset].copy_from_slice(&outgrown);
            self.dirty_words = self.dirty_words.min(offset);
        }
        if let Some(outgrown) = grow_zeroed(&mut self.meta, end) {
            // Every other entry is zero in both tables: nothing to copy,
            // and the old table's cold pages are never faulted in.
            for &addr in &self.journal {
                self.meta[addr as usize] = outgrown[addr as usize];
            }
        }
        let buf = Buffer { offset, len };
        self.buffers.insert(name.to_owned(), buf);
        buf
    }

    /// Allocates `len` words under `name`, zero-initialized, and returns
    /// the handle. Mirrors `clCreateBuffer` before kernel launch. Only
    /// the overlap with a recycled arena's dirty prefix is actually
    /// memset (zero-on-demand); the rest is already zero.
    ///
    /// # Panics
    /// Panics if `name` is already allocated (host code bug) or the arena
    /// would exceed `u32::MAX` words.
    pub fn alloc(&mut self, name: &str, len: usize) -> Buffer {
        let buf = self.alloc_raw(name, len);
        let dirty_end = self.dirty_words.min(buf.offset + buf.len);
        if buf.offset < dirty_end {
            self.demand_zeroed_words += (dirty_end - buf.offset) as u64;
            self.words[buf.offset..dirty_end].fill(0);
        }
        buf
    }

    /// Allocates and initializes from a slice (host→device copy). The
    /// copy fully paints the region, so no pre-zeroing happens — one pass
    /// over the data instead of two.
    pub fn alloc_init(&mut self, name: &str, data: &[u32]) -> Buffer {
        let buf = self.alloc_raw(name, data.len());
        self.words[buf.offset..buf.offset + buf.len].copy_from_slice(data);
        buf
    }

    /// Allocates `len` words painted with `value` (e.g. the queue's `dna`
    /// sentinel). Single-pass: the fill paints directly instead of
    /// zeroing first and filling after.
    pub fn alloc_filled(&mut self, name: &str, len: usize, value: u32) -> Buffer {
        let buf = self.alloc_raw(name, len);
        self.words[buf.offset..buf.offset + buf.len].fill(value);
        buf
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

    /// Host-side read of one word.
    pub fn read_u32(&self, buf: Buffer, index: usize) -> u32 {
        self.words[buf.addr(index).expect("host read out of bounds")]
    }

    /// Host-side write of one word.
    pub fn write_u32(&mut self, buf: Buffer, index: usize, value: u32) {
        let addr = buf.addr(index).expect("host write out of bounds");
        self.words[addr] = value;
    }

    /// Host-side view of an entire buffer (device→host copy).
    pub fn read_slice(&self, buf: Buffer) -> &[u32] {
        &self.words[buf.offset..buf.offset + buf.len]
    }

    /// Fills a buffer with a value (e.g. painting the queue with the `dna`
    /// sentinel before launch).
    pub fn fill(&mut self, buf: Buffer, value: u32) {
        self.words[buf.offset..buf.offset + buf.len].fill(value);
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

    /// Words zeroed on demand by [`DeviceMemory::alloc`] because an
    /// allocation overlapped the recycled dirty prefix (profiling).
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
        Ok(self.words[addr])
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
                .filter(|&e| e <= buf.len)
                .ok_or(SimError::OutOfBounds {
                    index: start.saturating_add(len.saturating_sub(1)),
                    len: buf.len,
                })?;
        if !self.poisoned.is_empty() && len > 0 {
            self.check_poison_slow(buf.offset + start, len)?;
        }
        Ok(&self.words[buf.offset + start..buf.offset + end])
    }

    /// The shadow entry of `addr`, marked touched: the round's first store
    /// or atomic snapshots the word and journals the address.
    #[inline]
    fn touch(&mut self, addr: usize) -> &mut WordMeta {
        let m = &mut self.meta[addr];
        if m.state == 0 {
            m.base_value = self.words[addr];
            m.state = TOUCHED;
            self.journal.push(addr as u32);
        }
        m
    }

    /// Device-side store of one word.
    #[doc(hidden)]
    #[inline]
    pub fn store(&mut self, buf: Buffer, index: usize, value: u32) -> Result<(), SimError> {
        let addr = buf.addr(index)?;
        self.check_poison(addr)?;
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
        self.check_poison(addr)?;
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
        Ok(self.stale_value(addr))
    }

    /// Raw stale read by flat address — the engine's wake-check path for
    /// parked waves. The address must come from a validated `flat_addr`.
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
        mem.fill(a, 7);
        drop(mem);
        let mut mem2 = DeviceMemory::new();
        assert!(mem2.was_recycled());
        // Fully inside the dirty prefix: the whole range is memset.
        let b = mem2.alloc("b", 400);
        assert!(mem2.read_slice(b).iter().all(|&w| w == 0));
        assert_eq!(mem2.demand_zeroed_words(), 400);
        // Partially overlapping: only the overlap [400, 700) pays.
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
        let b = mem2.alloc("b", 100); // within the dirty prefix: memset
                                      // Growing past capacity reallocates; only the live prefix is
                                      // copied, so the rest of the old dirty prefix never needs zeroing.
        let big = mem2.alloc("big", 1 << 20);
        assert!(mem2.read_slice(b).iter().all(|&w| w == 0));
        assert!(mem2.read_slice(big).iter().all(|&w| w == 0));
        assert_eq!(mem2.demand_zeroed_words(), 100);
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
    fn zero_length_buffer_is_legal_but_unreadable() {
        let mut mem = DeviceMemory::new();
        let z = mem.alloc("z", 0);
        assert!(z.is_empty());
        assert!(mem.load(z, 0).is_err());
    }
}
