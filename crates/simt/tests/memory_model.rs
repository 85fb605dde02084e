//! Differential model test: [`DeviceMemory`]'s 8-byte word shadow state
//! (touched flag + same-round atomic count + round-start snapshot, cleared
//! through a journal of touched addresses) against a naive reference that
//! keeps hash maps and clears them wholesale.
//!
//! The shadow table is only ever cleared *where the journal says*, and a
//! recycled word arena is only re-zeroed *where its page map says*, so the
//! property that matters is equivalence across many rounds, growth with a
//! round still open, and arena recycling into a differently sized
//! successor — everywhere a missed clear would leave a stale snapshot,
//! rank, flag or previous-life word behind to be misread. Lives that map
//! read-only host arrays between their arena buffers check that reads see
//! the host data, writes are refused, and a previous life's page under a
//! mapped range never leaks into a later zeroed allocation. Growth cases
//! place the written pages against the arena's copy window — the outgrown
//! block goes back a window at a time behind the copy — and check every
//! word after the move.

use simt::round::RoundState;
use simt::{Buffer, DeviceMemory, SimError};
use std::collections::HashMap;
use std::sync::Arc;

/// SplitMix64 — tiny, seedable, dependency-free PRNG (public-domain
/// algorithm; same recurrence as `java.util.SplittableRandom`).
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, bound: usize) -> usize {
        (self.next() % bound as u64) as usize
    }
}

/// The reference: what the word shadow state means, spelled out with maps.
#[derive(Default)]
struct Model {
    words: Vec<u32>,
    /// Round-start value of every word whose value changed this round.
    snapshots: HashMap<usize, u32>,
    /// Atomics per word this round.
    ranks: HashMap<usize, u32>,
    /// Value-changing atomics per word since allocation.
    mutations: HashMap<usize, u64>,
}

impl Model {
    fn stale(&self, addr: usize) -> u32 {
        *self.snapshots.get(&addr).unwrap_or(&self.words[addr])
    }

    fn store(&mut self, addr: usize, value: u32) {
        self.snapshots.entry(addr).or_insert(self.words[addr]);
        self.words[addr] = value;
    }

    /// Returns `(arrival rank, old value)`.
    fn rmw(&mut self, addr: usize, f: impl FnOnce(u32) -> u32) -> (u32, u32) {
        let old = self.words[addr];
        let new = f(old);
        let count = self.ranks.entry(addr).or_insert(0);
        let rank = *count;
        *count += 1;
        if new != old {
            self.snapshots.entry(addr).or_insert(old);
            *self.mutations.entry(addr).or_insert(0) += 1;
            self.words[addr] = new;
        }
        (rank, old)
    }

    fn begin_round(&mut self) {
        self.snapshots.clear();
        self.ranks.clear();
    }

    fn max_same_address(&self) -> u64 {
        self.ranks.values().copied().max().unwrap_or(0).into()
    }
}

/// One atomic's update rule, drawn from the shapes `WaveCtx` issues. Small
/// operands over small values make a good share of them value-preserving.
fn atomic_shape(rng: &mut SplitMix64) -> Box<dyn Fn(u32) -> u32> {
    let k = rng.below(6) as u32;
    match rng.below(6) {
        0 => Box::new(move |v| v.wrapping_add(k)), // add 0 changes nothing
        1 => Box::new(move |v| v.min(k)),
        2 => Box::new(move |v| v.max(k)),
        3 => Box::new(move |_| k),                              // exchange
        4 => Box::new(move |v| if v == k { k + 1 } else { v }), // CAS
        _ => Box::new(|v| v),
    }
}

/// How a life sets up its buffers.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Setup {
    /// Plain zeroed allocations, which on a recycled arena zero only the
    /// pages earlier lives wrote.
    Zeroed,
    /// Four buffers in five, the first among them, painted with a
    /// nonzero fill; the rest zeroed.
    Painted,
    /// Every other buffer a read-only mapped host array of random words,
    /// the rest zeroed.
    Mapped,
}

/// One life of a device memory under `steps` of random traffic on
/// buffers of up to `scale` words, laid out as `setup` says, checked step
/// by step against the model. Returns nothing: the memory is dropped
/// (mid-round) into the thread's arena pool for the next life to recycle.
fn one_life(rng: &mut SplitMix64, life: usize, scale: usize, steps: usize, setup: Setup) {
    let mut mem = DeviceMemory::new();
    let mut rs = RoundState::new();
    let mut model = Model::default();
    let mut buffers: Vec<Buffer> = Vec::new();
    // Last `(simulated, model)` version pair per word, to compare deltas.
    let mut version_reads: HashMap<usize, (u64, u64)> = HashMap::new();

    let alloc = |rng: &mut SplitMix64,
                 mem: &mut DeviceMemory,
                 model: &mut Model,
                 bufs: &mut Vec<Buffer>,
                 len: usize| {
        let name = format!("b{}", bufs.len());
        let buf = match setup {
            Setup::Mapped if bufs.len() % 2 != 1 => {
                let host: Vec<u32> = (0..len).map(|_| 1 + rng.below(6) as u32).collect();
                model.words.extend_from_slice(&host);
                mem.map(&name, Arc::new(host))
            }
            Setup::Painted if bufs.len() % 5 != 4 => {
                let fill = 1 + bufs.len() as u32 % 5;
                model.words.resize(model.words.len() + len, fill);
                mem.alloc_filled(&name, len, fill)
            }
            _ => {
                model.words.resize(model.words.len() + len, 0);
                mem.alloc(&name, len)
            }
        };
        bufs.push(buf);
    };
    let len = 1 + rng.below(scale);
    alloc(rng, &mut mem, &mut model, &mut buffers, len);

    for step in 0..steps {
        let b = rng.below(buffers.len());
        let buf = buffers[b];
        let base: usize = buffers[..b].iter().map(Buffer::len).sum();
        // A few hot words per buffer draw most of the traffic. With mapped
        // buffers they draw all of it, and are its last words: the head of
        // a zeroed buffer that shares a page with a mapped one stays
        // unwritten, so nothing but the allocator's zeroing keeps the
        // page's mapped part out of later lives (a written page goes back
        // to the pool dirty anyway).
        let index = if setup == Setup::Mapped {
            buf.len() - 1 - rng.below(buf.len().min(4))
        } else if rng.below(3) == 0 {
            rng.below(buf.len())
        } else {
            rng.below(buf.len().min(4))
        };
        let addr = base + index;
        let ctx = format!("life {life} step {step} addr {addr}");
        match rng.below(16) {
            0..=7 if buf.is_mapped() => {
                let refused = if rng.below(2) == 0 {
                    mem.store(buf, index, 1).unwrap_err()
                } else {
                    let f = atomic_shape(rng);
                    mem.atomic_rmw(buf, index, &mut rs, &f).unwrap_err()
                };
                assert_eq!(
                    refused,
                    SimError::ReadOnly {
                        buffer: format!("b{b}")
                    },
                    "{ctx}"
                );
            }
            0..=4 => {
                let f = atomic_shape(rng);
                let (flat, rank, old) = mem.atomic_rmw(buf, index, &mut rs, &f).unwrap();
                assert_eq!(flat, addr, "{ctx}");
                assert_eq!((rank, old), model.rmw(addr, &f), "{ctx}: rank / old value");
                assert_eq!(rs.max_same_address(), model.max_same_address(), "{ctx}");
                assert_eq!(rs.distinct_addresses(), model.ranks.len(), "{ctx}");
            }
            5..=7 => {
                let value = rng.below(6) as u32;
                mem.store(buf, index, value).unwrap();
                model.store(addr, value);
            }
            8..=9 => assert_eq!(mem.load(buf, index).unwrap(), model.words[addr], "{ctx}"),
            10..=12 => assert_eq!(
                mem.stale_load(buf, index).unwrap(),
                model.stale(addr),
                "{ctx}"
            ),
            13 => {
                let seen = mem.version(buf, index).unwrap();
                let truth = *model.mutations.get(&addr).unwrap_or(&0);
                if let Some((seen0, truth0)) = version_reads.insert(addr, (seen, truth)) {
                    assert_eq!(seen - seen0, truth - truth0, "{ctx}: version delta");
                }
            }
            14 => {
                rs.begin_round();
                mem.begin_round();
                model.begin_round();
            }
            _ => {
                // Host allocation between launches, the last round still
                // open: the shadow table may be outgrown here.
                if rng.below(8) == 0 && buffers.len() < 12 {
                    let len = 1 + rng.below(scale);
                    alloc(rng, &mut mem, &mut model, &mut buffers, len);
                }
            }
        }
    }

    // Whole-arena sweep: every word, touched this round or not.
    let mut addr = 0;
    for &buf in &buffers {
        for index in 0..buf.len() {
            assert_eq!(mem.load(buf, index).unwrap(), model.words[addr]);
            assert_eq!(mem.stale_load(buf, index).unwrap(), model.stale(addr));
            addr += 1;
        }
    }
}

#[test]
fn shadow_state_matches_the_naive_model_across_rounds_growth_and_recycling() {
    let mut rng = SplitMix64(0x1cc9_2019 ^ 0x5AD0_57A7);
    for life in 0..24 {
        // Lives differ in size by orders of magnitude, so a successor both
        // re-exposes the recycled table's prefix and grows past its
        // capacity.
        one_life(
            &mut rng,
            life,
            [40, 3_000, 200, 70_000][life % 4],
            4_000,
            Setup::Painted,
        );
    }
}

/// Lives of very different sizes whose few hundred writes land on a
/// small share of the arena's pages: each successor re-zeroes only those
/// pages, so a page a missed mark left out would surface a previous
/// life's word in the model comparison or the final sweep.
#[test]
fn sparse_lives_of_different_sizes_recycle_only_the_pages_they_wrote() {
    let mut rng = SplitMix64(0x9A6E_D127);
    for (life, scale) in [1 << 20, 5_000, 300_000, 1 << 19].into_iter().enumerate() {
        one_life(&mut rng, life, scale, 400, Setup::Zeroed);
    }
}

/// A recycled arena behaves like a fresh one for *every* word of a larger
/// successor: no snapshot, flag or rank of the previous life — dropped
/// mid-round, hot words still hot — can be observed.
#[test]
fn recycled_successor_sees_no_trace_of_the_previous_life() {
    let mut rng = SplitMix64(7);
    one_life(&mut rng, 1, 3_000, 4_000, Setup::Painted); // dropped mid-round
    let mut mem = DeviceMemory::new();
    assert!(mem.was_recycled());
    let buf = mem.alloc_filled("all", 100_000, 9);
    let mut rs = RoundState::new();
    for index in 0..buf.len() {
        assert_eq!(mem.stale_load(buf, index).unwrap(), 9);
        let (_, rank, old) = mem.atomic_rmw(buf, index, &mut rs, |v| v).unwrap();
        assert_eq!((rank, old), (0, 9));
    }
    assert_eq!(rs.distinct_addresses(), buf.len());
    assert_eq!(rs.max_same_address(), 1);
}

/// Painted lives leave dirty pages all over the pooled arena; the lives
/// after them map host arrays over those pages between zeroed
/// allocations, some sharing a page with a mapped range. Reads of a
/// mapped buffer must return its host array, kernel writes to it are
/// refused, and every zeroed word — in this life or a later one — must
/// still read zero.
#[test]
fn mapped_lives_interleaved_with_dirty_ones_leak_no_word() {
    let mut rng = SplitMix64(0x4D41_5050);
    // The first life sizes the pooled arena for all the others: growth
    // would hand a life a clean block and hide a leak.
    let mut lives = vec![(70_000, Setup::Painted)];
    for scale in [3_000, 500, 3_000] {
        lives.extend([Setup::Painted, Setup::Mapped, Setup::Zeroed].map(|setup| (scale, setup)));
    }
    for (life, (scale, setup)) in lives.into_iter().enumerate() {
        one_life(&mut rng, life, scale, 4_000, setup);
    }
}

/// Words per page of the arena's dirty maps, and per window of its growth
/// copy (256 pages).
const PAGE: usize = 1024;
const WINDOW: usize = 256 * PAGE;

/// One device memory beside its model, for the growth cases: buffers are
/// laid out back to back, so a word's flat address is its model index.
struct Checked {
    mem: DeviceMemory,
    rs: RoundState,
    model: Model,
    buffers: Vec<(Buffer, usize)>,
}

impl Checked {
    fn new() -> Self {
        Checked {
            mem: DeviceMemory::new(),
            rs: RoundState::new(),
            model: Model::default(),
            buffers: Vec::new(),
        }
    }

    /// Allocates `len` words painted with `fill` (zeroed if 0); returns
    /// the buffer's position.
    fn alloc(&mut self, len: usize, fill: u32) -> usize {
        let name = format!("b{}", self.buffers.len());
        let buf = if fill == 0 {
            self.mem.alloc(&name, len)
        } else {
            self.mem.alloc_filled(&name, len, fill)
        };
        self.buffers.push((buf, self.model.words.len()));
        self.model.words.resize(self.model.words.len() + len, fill);
        self.buffers.len() - 1
    }

    fn store(&mut self, b: usize, index: usize, value: u32) {
        let (buf, base) = self.buffers[b];
        self.mem.store(buf, index, value).unwrap();
        self.model.store(base + index, value);
    }

    fn rmw(&mut self, b: usize, index: usize, f: impl Fn(u32) -> u32) {
        let (buf, base) = self.buffers[b];
        let (_, rank, old) = self.mem.atomic_rmw(buf, index, &mut self.rs, &f).unwrap();
        assert_eq!(
            (rank, old),
            self.model.rmw(base + index, f),
            "rank / old value"
        );
    }

    fn begin_round(&mut self) {
        self.rs.begin_round();
        self.mem.begin_round();
        self.model.begin_round();
    }

    /// Every word's current and round-start value against the model.
    fn sweep(&self, when: &str) {
        for &(buf, base) in &self.buffers {
            for index in 0..buf.len() {
                let addr = base + index;
                assert_eq!(
                    self.mem.load(buf, index).unwrap(),
                    self.model.words[addr],
                    "{when}: word {addr}"
                );
                assert_eq!(
                    self.mem.stale_load(buf, index).unwrap(),
                    self.model.stale(addr),
                    "{when}: stale word {addr}"
                );
            }
        }
    }
}

/// Runs `case` on a thread of its own, so its first arena is fresh (its
/// capacity the next power of two of the first allocation) and whatever
/// it pools is dropped with the thread.
fn on_a_fresh_thread(case: impl FnOnce() + Send + 'static) {
    std::thread::spawn(case).join().unwrap();
}

/// The written prefix ends mid-page, past two whole windows: the top
/// window is partial and its last page is copied only up to the front.
#[test]
fn growth_copies_a_prefix_aligned_to_neither_window_nor_page() {
    on_a_fresh_thread(|| {
        let mut life = Checked::new();
        let painted = life.alloc(2 * WINDOW + 3 * PAGE + 17, 7); // 1 Mi-word block
        let tail = life.alloc(101, 0);
        for index in [0, PAGE - 1, WINDOW - 1, WINDOW, 2 * WINDOW + 3 * PAGE + 16] {
            life.store(painted, index, index as u32 ^ 0xA5);
        }
        life.store(tail, 100, 3);
        life.begin_round();
        let grown = life.alloc(600_000, 0);
        assert_eq!(life.mem.allocated_words(), life.model.words.len());
        life.sweep("after growth");
        life.store(grown, 599_999, 9);
        life.store(tail, 0, 4);
        life.sweep("after writes past the growth");
    });
}

/// Written pages on both sides of a window boundary with unwritten pages
/// between them: the unwritten ones stay zero in the new block.
#[test]
fn growth_keeps_unwritten_pages_between_written_ones_zero_across_a_window() {
    on_a_fresh_thread(|| {
        let mut life = Checked::new();
        let sparse = life.alloc(3 * WINDOW, 0); // 1 Mi-word block
        for index in [
            WINDOW - 2 * PAGE,
            WINDOW - 1,
            WINDOW,
            WINDOW + 5 * PAGE + 3,
            2 * WINDOW - 1,
            2 * WINDOW + PAGE,
        ] {
            life.store(sparse, index, 1 + index as u32 % 13);
        }
        life.begin_round();
        life.alloc(2 * WINDOW, 0);
        life.sweep("after growth");
    });
}

/// Growth between launches with the last round still open: the round's
/// snapshots and atomic ranks move with the words, so stale reads and the
/// next atomics' ranks carry on as if nothing had moved.
#[test]
fn growth_with_a_round_open_keeps_snapshots_and_ranks() {
    on_a_fresh_thread(|| {
        let mut rng = SplitMix64(0x6E0_3171);
        let mut life = Checked::new();
        let hot = life.alloc(WINDOW + 3 * PAGE + 5, 2);
        let cold = life.alloc(WINDOW / 2 + 1, 0); // 512 Ki-word block in all
        let traffic = |life: &mut Checked, rng: &mut SplitMix64| {
            for _ in 0..2_000 {
                let (b, len) = if rng.below(2) == 0 {
                    (hot, WINDOW + 3 * PAGE + 5)
                } else {
                    (cold, WINDOW / 2 + 1)
                };
                // A few words per window edge draw the traffic.
                let index = [0, WINDOW - 1, WINDOW, len - 1][rng.below(4)].min(len - 1);
                let index = index.saturating_sub(rng.below(3));
                match rng.below(3) {
                    0 => life.store(b, index, rng.below(6) as u32),
                    _ => life.rmw(b, index, atomic_shape(rng)),
                }
            }
        };
        life.begin_round();
        traffic(&mut life, &mut rng);
        life.alloc(WINDOW * 3, 0); // outgrows the block, round open
        life.sweep("after growth with the round open");
        assert_eq!(life.rs.max_same_address(), life.model.max_same_address());
        traffic(&mut life, &mut rng);
        life.sweep("after more traffic in the same round");
        life.begin_round();
        life.sweep("after the next round start");
    });
}

/// A recycled arena whose previous life painted most of it: the new
/// life's zeroed allocations retire the stale pages below its front (one
/// partly, past the front), then it outgrows the block. The new block
/// holds only what this life wrote, and the life after it, recycling the
/// grown arena, sees no trace of either.
#[test]
fn growth_of_a_recycled_arena_leaves_its_stale_pages_behind() {
    on_a_fresh_thread(|| {
        let mut dirt = Checked::new();
        dirt.alloc(700_000, 0xD1); // 1 Mi-word block, painted
        drop(dirt);
        let mut life = Checked::new();
        assert!(life.mem.was_recycled());
        let zeroed = life.alloc(300_000 + 17, 0);
        let painted = life.alloc(1_000, 3);
        for index in [0, PAGE, WINDOW - 1, WINDOW + 1, 300_016] {
            life.store(zeroed, index, 5);
        }
        life.store(painted, 999, 6);
        life.sweep("before growth");
        let grown = life.alloc(900_000, 0);
        life.sweep("after growth");
        life.store(grown, 0, 8);
        drop(life);
        let mut next = Checked::new();
        assert!(next.mem.was_recycled());
        next.alloc(1_500_000, 0);
        next.sweep("the life after");
    });
}
