//! Per-round atomic contention and per-cycle bandwidth bookkeeping.
//!
//! Within one scheduling round, every global atomic that targets the same
//! word queues up at that word's memory partition. The k-th arrival pays
//! `k * atomic_serialize` extra latency — this is the "contended hot spot"
//! behaviour of fetch-add the paper cites from Morrison & Afek, and it is
//! what the proxy-thread optimization attacks: one AFA per wavefront
//! instead of one per lane shortens every queue by 64×.
//!
//! # Representation
//!
//! Device addresses are small dense integers (flat word indices into
//! [`crate::DeviceMemory`]), so per-address counters live in flat tables
//! indexed by address rather than a hash map: no rehashing and no
//! allocation in the steady state.
//!
//! The per-word rank count itself lives inside [`crate::DeviceMemory`]'s
//! 8-byte word shadow state (one access serves the atomic's round-start
//! snapshot *and* its rank) and is cleared, together with the snapshot, by
//! [`crate::DeviceMemory`]'s own `begin_round` — the engine starts both
//! rounds together. This struct holds the round-scalar aggregates plus the
//! per-*cache-line* bandwidth table, which is *generation stamped*: each
//! work cycle bumps a counter, the first touch of a line stamps it and
//! counts, replacing the historical per-wave `Vec` + `sort_unstable` +
//! `dedup` distinct-line accounting with O(1) per touch and no clear.

thread_local! {
    /// Recycled cache-line stamp table (with its final generation): the
    /// same page-fault-avoidance as the device-memory arena pool.
    static LINE_POOL: std::cell::RefCell<Option<(Vec<u64>, u64)>> =
        const { std::cell::RefCell::new(None) };
}

/// Round-scalar contention aggregates and the stamped cache-line table.
#[derive(Debug)]
pub struct RoundState {
    /// Generation stamp per cache line; a line has been touched this work
    /// cycle iff `line_stamp[l] == line_gen`.
    line_stamp: Vec<u64>,
    /// Current work-cycle generation for `line_stamp` (bumped every cycle,
    /// never reused).
    line_gen: u64,
    /// Distinct cache lines touched in the current work cycle.
    cycle_lines: u64,
    /// Live distinct atomic addresses this round (maintained incrementally).
    distinct: usize,
    /// Largest live same-address atomic count this round.
    max_count: u32,
}

impl Default for RoundState {
    fn default() -> Self {
        // A recycled line table carries its generation with it (+1 so the
        // previous life's final cycle is stale).
        let (line_stamp, line_gen) = LINE_POOL
            .with(|pool| pool.borrow_mut().take())
            .map(|(stamp, gen)| (stamp, gen + 1))
            .unwrap_or((Vec::new(), 1));
        RoundState {
            line_stamp,
            line_gen,
            cycle_lines: 0,
            distinct: 0,
            max_count: 0,
        }
    }
}

impl Drop for RoundState {
    fn drop(&mut self) {
        let stamp = std::mem::take(&mut self.line_stamp);
        let gen = self.line_gen;
        LINE_POOL.with(|pool| {
            let mut slot = pool.borrow_mut();
            if slot
                .as_ref()
                .is_none_or(|(kept, _)| kept.capacity() <= stamp.capacity())
            {
                *slot = Some((stamp, gen));
            }
        });
    }
}

/// Words per 64-byte cache line: the granule of
/// [`crate::WaveCtx::charge_coalesced_access`] transactions.
pub const LINE_WORDS: usize = 16;

impl RoundState {
    /// Creates an empty round state.
    pub fn new() -> Self {
        Self::default()
    }

    /// Pre-sizes the cache-line table for a device of `words` addressable
    /// words, so the hot path never grows it. Lines beyond this still work
    /// (the table grows on demand).
    pub fn ensure_capacity(&mut self, words: usize) {
        let lines = words.div_ceil(LINE_WORDS);
        if self.line_stamp.len() < lines {
            self.line_stamp.resize(lines, 0);
        }
    }

    /// Resets the round aggregates; called by the engine between rounds,
    /// together with [`crate::DeviceMemory`]'s `begin_round` (which clears
    /// the per-word counts these aggregate).
    pub fn begin_round(&mut self) {
        self.distinct = 0;
        self.max_count = 0;
    }

    /// Starts a new work cycle: invalidates the cache-line table and
    /// resets the distinct-line counter. Called by the engine before every
    /// kernel work cycle.
    pub fn begin_cycle(&mut self) {
        self.line_gen += 1;
        self.cycle_lines = 0;
    }

    /// Registers a cache-line touch for bandwidth accounting. The first
    /// touch of a line per work cycle counts; repeats are free — exactly
    /// the distinct-line count the sort+dedup reference produced.
    #[inline]
    pub fn touch_line(&mut self, line: usize) {
        if line >= self.line_stamp.len() {
            self.line_stamp.resize(line + 1, 0);
        }
        if self.line_stamp[line] != self.line_gen {
            self.line_stamp[line] = self.line_gen;
            self.cycle_lines += 1;
        }
    }

    /// Distinct cache lines touched in the current work cycle.
    pub fn cycle_lines(&self) -> u64 {
        self.cycle_lines
    }

    /// Records that an address received its first atomic of this round.
    #[inline]
    pub(crate) fn note_new_address(&mut self) {
        self.distinct += 1;
    }

    /// Records an address's updated same-round atomic count.
    #[inline]
    pub(crate) fn note_count(&mut self, count: u32) {
        self.max_count = self.max_count.max(count);
    }

    /// Number of distinct contended addresses this round (diagnostics).
    pub fn distinct_addresses(&self) -> usize {
        self.distinct
    }

    /// Largest same-address atomic count this round — the queue length at
    /// the hottest L2 slice.
    pub fn max_same_address(&self) -> u64 {
        self.max_count.into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory::DeviceMemory;

    /// Rank bookkeeping flows through the word shadow state; exercise it
    /// the way `WaveCtx::global_atomic` does.
    fn rank(mem: &mut DeviceMemory, rs: &mut RoundState, index: usize) -> u32 {
        let buf = mem.buffer("a");
        mem.atomic_rmw(buf, index, rs, |v| v).unwrap().1
    }

    /// What the engine does between rounds: the aggregates and the
    /// per-word counts they aggregate restart together.
    fn next_round(mem: &mut DeviceMemory, rs: &mut RoundState) {
        rs.begin_round();
        mem.begin_round();
    }

    fn arena() -> DeviceMemory {
        let mut mem = DeviceMemory::new();
        mem.alloc("a", 64);
        mem
    }

    #[test]
    fn ranks_increment_per_address() {
        let mut mem = arena();
        let mut rs = RoundState::new();
        assert_eq!(rank(&mut mem, &mut rs, 10), 0);
        assert_eq!(rank(&mut mem, &mut rs, 10), 1);
        assert_eq!(rank(&mut mem, &mut rs, 10), 2);
        assert_eq!(rank(&mut mem, &mut rs, 11), 0);
    }

    #[test]
    fn max_same_address_tracks_hottest_word() {
        let mut mem = arena();
        let mut rs = RoundState::new();
        assert_eq!(rs.max_same_address(), 0);
        rank(&mut mem, &mut rs, 10);
        rank(&mut mem, &mut rs, 10);
        rank(&mut mem, &mut rs, 11);
        assert_eq!(rs.max_same_address(), 2);
    }

    #[test]
    fn begin_round_resets() {
        let mut mem = arena();
        let mut rs = RoundState::new();
        rank(&mut mem, &mut rs, 5);
        rank(&mut mem, &mut rs, 5);
        next_round(&mut mem, &mut rs);
        assert_eq!(rank(&mut mem, &mut rs, 5), 0);
        assert_eq!(rs.distinct_addresses(), 1);
    }

    #[test]
    fn stale_generations_do_not_leak_counts() {
        let mut mem = arena();
        let mut rs = RoundState::new();
        rank(&mut mem, &mut rs, 3);
        rank(&mut mem, &mut rs, 3);
        rank(&mut mem, &mut rs, 7);
        assert_eq!(rs.distinct_addresses(), 2);
        next_round(&mut mem, &mut rs);
        assert_eq!(rs.distinct_addresses(), 0);
        assert_eq!(rs.max_same_address(), 0);
        // Address 7 untouched this round: its old count must not surface.
        assert_eq!(rank(&mut mem, &mut rs, 7), 0);
        assert_eq!(rs.max_same_address(), 1);
    }

    #[test]
    fn line_touches_dedup_within_a_cycle() {
        let mut rs = RoundState::new();
        rs.begin_cycle();
        rs.touch_line(3);
        rs.touch_line(3);
        rs.touch_line(4);
        rs.touch_line(3);
        assert_eq!(rs.cycle_lines(), 2);
    }

    #[test]
    fn begin_cycle_resets_line_counts() {
        let mut rs = RoundState::new();
        rs.begin_cycle();
        rs.touch_line(9);
        rs.begin_cycle();
        assert_eq!(rs.cycle_lines(), 0);
        // The same line counts again in the new cycle.
        rs.touch_line(9);
        assert_eq!(rs.cycle_lines(), 1);
    }

    #[test]
    fn capacity_hint_matches_on_demand_growth() {
        let mut sized = RoundState::new();
        sized.ensure_capacity(100 * LINE_WORDS);
        let mut lazy = RoundState::new();
        sized.begin_cycle();
        lazy.begin_cycle();
        for line in [99, 0, 99, 42] {
            sized.touch_line(line);
            lazy.touch_line(line);
        }
        assert_eq!(sized.cycle_lines(), lazy.cycle_lines());
    }
}
