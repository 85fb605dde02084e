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
//! mapped range never leaks into a later zeroed allocation.

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
