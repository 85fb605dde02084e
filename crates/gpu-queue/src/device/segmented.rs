//! Segmented RF/AN device queue: the bounded retry-free ring, unrolled
//! into linked segments so the queue-full abort disappears
//! (DESIGN.md *Segmented storage*).
//!
//! The ticket space stays a single non-wrapping pair of `Front`/`Rear`
//! counters — the reservation and the poll are [`super::TicketWaveQueue`]'s,
//! unchanged. What changes is the *storage* behind a ticket (and so the
//! publish and the retirement, here): ticket `t` lives in
//! virtual segment `t / seg_cap`, and a **directory ring** maps virtual
//! segments to physical segments of a fixed arena. A producer whose
//! reservation reaches a segment boundary pops a physical segment from the
//! recycled-segment **pool** and publishes the mapping with a single plain
//! store into the directory — the segment-handoff linearization point; no
//! CAS anywhere on the path. The consumer that picks up a segment's last
//! token retires it: the directory entry is cleared and the physical
//! segment returns to the pool (every slot holds the `dna` sentinel again,
//! because pickups restore it), ready to be re-published under a later
//! virtual segment. Arena slots are stored as `token ^ DNA` like every
//! queue's slots (see the [`super`] docs), so a fresh arena is a plain
//! zeroed allocation.
//!
//! Memory is therefore bounded by *live occupancy* (plus the reserve-ahead
//! slack of hungry lanes), not lifetime enqueues: a traversal that
//! enqueues millions of tokens runs in an arena of `phys_segs * seg_cap`
//! words as long as no more than that many tokens are simultaneously
//! in flight. If live occupancy does exceed the arena, producers see an
//! empty pool, accept a partial batch, and re-offer the remainder next
//! cycle — backpressure, never an abort; a workload whose live frontier
//! permanently exceeds the arena would spin until the launch's
//! `max_rounds` guard trips, which is the honest failure mode (the
//! bounded queues would have aborted far earlier, on *lifetime* overflow).
//!
//! Directory entries are generation-tagged (`entry = (seg / dir_len) *
//! phys_segs + phys`) so a consumer holding a ticket for virtual segment
//! `v` can tell whether ring slot `v % dir_len` currently maps `v` or some
//! other segment that shares the slot — the classic ABA guard, paid for
//! with arithmetic instead of wide atomics. `dir_len > phys_segs` keeps a
//! drained slot available whenever the pool is non-empty in the common
//! in-order case.
//!
//! Two simulator-honesty notes. First, work cycles execute atomically, so
//! the enqueue's read-`Rear`-then-reserve sequence is exact here; the
//! genuinely interleaved protocol (where the install and the reservation
//! of another producer race) is model-checked on the host's `Segmented`
//! storage, whose own steps the interleaving explorer schedules. Second,
//! `Front`/`Rear` remain `u32` words like every other state word:
//! segmentation removes the memory bound, not the 2^32 ticket-arithmetic
//! bound.

use super::{dec, enc, REAR};
use crate::DNA;
use simt::{Buffer, DeviceMemory, OpSpec, WaveCtx, MAX_WAVE_SIZE};

/// `(seg_cap, phys_segs)` of the queue [`SegmentedLayout::for_capacity`]
/// sizes for a nominal `capacity`.
pub(super) fn sized(capacity: u32) -> (u32, u32) {
    ((capacity / 8).max(32), 10)
}

/// Host-side handle to a segmented device queue's allocations.
#[derive(Clone, Copy, Debug)]
pub struct SegmentedLayout {
    /// Physical slot arena: `phys_segs * seg_cap` words, each read through
    /// `dec`; every slot starts as the sentinel.
    pub slots: Buffer,
    /// Two-word state buffer: `[Front, Rear]` (shared ticket space).
    pub state: Buffer,
    /// Directory ring: `dir_len` generation-tagged entries (`dna` = empty).
    pub dir: Buffer,
    /// Per-ring-slot consumed counters (`dir_len` words): a segment whose
    /// counter reaches `seg_cap` is fully drained and retires.
    pub consumed: Buffer,
    /// Recycled-segment pool: `[count, entries...]` (`1 + phys_segs` words).
    pub pool: Buffer,
    /// Slots per segment.
    pub seg_cap: u32,
    /// Physical segments in the arena.
    pub phys_segs: u32,
    /// Directory ring length (`phys_segs + 2`).
    pub dir_len: u32,
}

impl SegmentedLayout {
    /// Allocates and initializes a segmented queue in device memory under
    /// `name`-derived buffer names. Every arena slot holds the sentinel
    /// (the zero word: nothing is painted), the directory is empty, and
    /// the pool holds every physical segment.
    pub fn setup(
        memory: &mut DeviceMemory,
        name: &str,
        seg_cap: u32,
        phys_segs: u32,
    ) -> SegmentedLayout {
        assert!(seg_cap > 0 && phys_segs > 0);
        let dir_len = phys_segs + 2;
        // The poll and park paths track touched ring slots in a u64 mask.
        assert!(
            dir_len as usize <= MAX_WAVE_SIZE,
            "directory ring longer than the probe mask"
        );
        // Arena addresses are `u32` words (`arena_addr`).
        let arena = phys_segs
            .checked_mul(seg_cap)
            .expect("segmented arena exceeds the u32 address space");
        let slots = memory.alloc(&format!("{name}.slots"), arena as usize);
        let state = memory.alloc(&format!("{name}.state"), 2);
        let dir = memory.alloc_filled(&format!("{name}.dir"), dir_len as usize, DNA);
        let consumed = memory.alloc(&format!("{name}.consumed"), dir_len as usize);
        let pool = memory.alloc(&format!("{name}.pool"), 1 + phys_segs as usize);
        memory.write_u32(pool, 0, phys_segs);
        for i in 1..=phys_segs {
            // Stack order: the first pop hands out physical segment 0.
            memory.write_u32(pool, i as usize, phys_segs - i);
        }
        SegmentedLayout {
            slots,
            state,
            dir,
            consumed,
            pool,
            seg_cap,
            phys_segs,
            dir_len,
        }
    }

    /// Sizes a segmented queue to match a bounded queue of `capacity`
    /// slots: the arena is `~1.25x capacity` split into segments an eighth
    /// of `capacity` each, so typical workloads exercise several installs
    /// and recycles while live occupancy keeps comfortable headroom.
    pub fn for_capacity(memory: &mut DeviceMemory, name: &str, capacity: u32) -> SegmentedLayout {
        let (seg_cap, phys_segs) = sized(capacity);
        SegmentedLayout::setup(memory, name, seg_cap, phys_segs)
    }

    /// Directory entry for virtual segment `seg` mapped to `phys`.
    fn encode(&self, seg: u32, phys: u32) -> u32 {
        (seg / self.dir_len) * self.phys_segs + phys
    }

    /// Physical segment currently mapped for `seg`, if its ring slot holds
    /// an entry of the matching generation.
    pub(super) fn decode(&self, entry: u32, seg: u32) -> Option<u32> {
        if entry == DNA {
            return None;
        }
        (entry / self.phys_segs == seg / self.dir_len).then_some(entry % self.phys_segs)
    }

    /// Ring slot of virtual segment `seg`.
    pub(super) fn ring_slot(&self, seg: u32) -> usize {
        (seg % self.dir_len) as usize
    }

    /// Arena word index of ticket `ticket` under mapping `phys`.
    pub(super) fn arena_addr(&self, phys: u32, ticket: u32) -> usize {
        (phys * self.seg_cap + ticket % self.seg_cap) as usize
    }

    /// Host-side enqueue used to seed initial tasks before launch,
    /// installing segments as the seed tokens cross boundaries. Models the
    /// host writing buffers before launch, exactly like
    /// [`super::QueueLayout::host_seed`].
    pub fn host_seed(&self, memory: &mut DeviceMemory, tokens: &[u32]) {
        let rear = memory.read_u32(self.state, REAR);
        for (i, &t) in tokens.iter().enumerate() {
            assert!(t < DNA, "token {t:#x} collides with the dna sentinel");
            let ticket = rear + i as u32;
            let seg = ticket / self.seg_cap;
            let r = self.ring_slot(seg);
            let entry = memory.read_u32(self.dir, r);
            let phys = match self.decode(entry, seg) {
                Some(p) => p,
                None => {
                    assert_eq!(entry, DNA, "host_seed: directory ring slot busy");
                    let count = memory.read_u32(self.pool, 0);
                    assert!(count > 0, "host_seed: segment pool exhausted");
                    let p = memory.read_u32(self.pool, count as usize);
                    memory.write_u32(self.pool, 0, count - 1);
                    memory.write_u32(self.dir, r, self.encode(seg, p));
                    p
                }
            };
            memory.write_u32(self.slots, self.arena_addr(phys, ticket), enc(t));
        }
        memory.write_u32(self.state, REAR, rear + tokens.len() as u32);
    }
}

/// Pickups of one poll per directory ring slot.
pub(super) type Pickups = [u8; MAX_WAVE_SIZE];

/// Consumed accounting + retirement after a segmented acquire's poll,
/// closing the acquire's audit scope on its `afa` reservation AFAs plus
/// the ones issued here: one AFA per touched segment (arbitrary-n on the
/// drain side), two more per retirement, never a CAS. The wave whose add
/// completes the count retires the segment: clear the mapping, return the
/// physical segment to the pool. A lane of this wave holds one of the
/// final pickups, so the segment cannot have retired concurrently — the
/// counter belongs to this mapping.
pub(super) fn retire(ctx: &mut WaveCtx<'_>, lt: &SegmentedLayout, pickups: &Pickups, mut afa: u64) {
    for (r, &cnt) in pickups[..lt.dir_len as usize].iter().enumerate() {
        if cnt == 0 {
            continue;
        }
        let cnt = u32::from(cnt);
        let total = ctx.atomic_add(lt.consumed, r, cnt) + cnt;
        afa += 1;
        ctx.count_scheduler_atomics(1);
        if total == lt.seg_cap {
            ctx.poke(lt.consumed, r, 0);
            let entry = ctx.atomic_exchange(lt.dir, r, DNA);
            afa += 1;
            let old = ctx.atomic_add(lt.pool, 0, 1);
            afa += 1;
            ctx.poke(lt.pool, (old + 1) as usize, entry % lt.phys_segs);
            ctx.charge_cached_access(1);
            ctx.count_scheduler_atomics(2);
        }
    }
    ctx.audit_expect_afa(afa);
    ctx.audit_end();
}

/// Publishes a prefix of the non-empty `tokens`, installing segments as
/// `Rear` crosses their boundaries: one AFA on `Rear` per touched segment,
/// one pool AFA per install; the directory publish itself is a plain
/// store. Never a CAS. Returns how many tokens were accepted — the rest
/// is re-offered next cycle (backpressure, never an abort).
pub(super) fn publish(ctx: &mut WaveCtx<'_>, lt: &SegmentedLayout, tokens: &[u32]) -> usize {
    ctx.audit_begin(OpSpec::new("SEG-RF/AN", "enqueue"));
    ctx.charge_alu(1);
    ctx.lds_atomics(tokens.len() as u64);
    let mut afa = 0u64;
    let mut accepted = 0usize;
    while accepted < tokens.len() {
        let rear = ctx.global_read(lt.state, REAR);
        let seg = rear / lt.seg_cap;
        let off = rear % lt.seg_cap;
        let r = lt.ring_slot(seg);
        let entry = ctx.peek(lt.dir, r);
        ctx.charge_cached_access(1); // directory probe
        let phys = match lt.decode(entry, seg) {
            Some(p) => p,
            None => {
                if entry != DNA {
                    // Ring slot still held by an undrained old
                    // segment: accept what we have, re-offer the rest.
                    break;
                }
                let count = ctx.peek(lt.pool, 0);
                if count == 0 {
                    // Arena exhausted: backpressure, never an abort.
                    break;
                }
                let old = ctx.atomic_sub(lt.pool, 0, 1);
                afa += 1;
                ctx.count_scheduler_atomics(1);
                let p = ctx.peek(lt.pool, old as usize);
                // The segment-handoff linearization point: one plain
                // store publishes the fresh mapping.
                ctx.poke(lt.dir, r, lt.encode(seg, p));
                ctx.charge_cached_access(1);
                p
            }
        };
        // Reserve up to the segment boundary; the install above
        // guarantees every reserved ticket has installed storage.
        let take = (tokens.len() - accepted).min((lt.seg_cap - off) as usize);
        let got = ctx.atomic_add(lt.state, REAR, take as u32);
        debug_assert_eq!(got, rear, "work cycles are atomic");
        afa += 1;
        ctx.count_scheduler_atomics(1);
        let base = lt.arena_addr(phys, rear);
        ctx.charge_coalesced_access(lt.slots, base, take); // check
        ctx.charge_coalesced_access(lt.slots, base, take); // copy
        for i in 0..take {
            let tok = tokens[accepted + i];
            debug_assert!(tok < DNA, "token collides with dna sentinel");
            debug_assert_eq!(
                dec(ctx.peek(lt.slots, base + i)),
                DNA,
                "recycled segment handed out before fully drained"
            );
            ctx.poke(lt.slots, base + i, enc(tok));
        }
        accepted += take;
    }
    ctx.audit_expect_afa(afa);
    ctx.audit_end();
    accepted
}

#[cfg(test)]
mod tests {
    use super::super::testutil::{expected_tokens, over_segments, pump_through, PumpKernel, Shape};
    use super::{dec, SegmentedLayout};
    use crate::DNA;
    use simt::{DeviceMemory, Engine, GpuConfig, Launch};
    use std::sync::{Arc, Mutex};

    /// Segmented twin of `testutil::pump`: pushes `seeds` through a
    /// segmented queue with a deliberately tiny arena.
    fn pump_seg(
        seeds: &[u32],
        fanout_until: u32,
        children: u32,
        wgs: usize,
        seg_cap: u32,
        phys_segs: u32,
    ) -> (Vec<u32>, simt::Metrics) {
        let shape = Shape::Segmented { seg_cap, phys_segs };
        let gpu = GpuConfig::test_tiny();
        let (report, mut out) =
            pump_through(&gpu, shape, false, &[seeds], fanout_until, children, wgs);
        out.sort_unstable();
        (out, report.metrics)
    }

    /// Installed (not yet retired) segments of `q`.
    fn live_segments(q: &SegmentedLayout, memory: &DeviceMemory) -> usize {
        memory
            .read_slice(q.dir)
            .iter()
            .filter(|&&w| w != DNA)
            .count()
    }

    #[test]
    fn setup_leaves_every_slot_reading_empty_and_fills_pool() {
        let mut mem = DeviceMemory::new();
        let q = SegmentedLayout::setup(&mut mem, "q", 8, 4);
        assert_eq!(q.dir_len, 6);
        assert!(mem.read_slice(q.slots).iter().all(|&w| dec(w) == DNA));
        assert!(mem.read_slice(q.dir).iter().all(|&w| w == DNA));
        assert_eq!(mem.read_u32(q.pool, 0), 4);
        assert_eq!(mem.read_slice(q.state), [0, 0]);
        assert_eq!(live_segments(&q, &mem), 0);
    }

    #[test]
    #[should_panic(expected = "segmented arena exceeds the u32 address space")]
    fn setup_refuses_an_arena_past_the_address_space() {
        // 10 segments of `capacity / 8` slots, as `for_capacity` sizes a
        // queue of more than 3.4e9 slots.
        SegmentedLayout::setup(&mut DeviceMemory::new(), "q", u32::MAX / 8, 10);
    }

    #[test]
    fn host_seed_installs_segments_across_boundaries() {
        let mut mem = DeviceMemory::new();
        let q = SegmentedLayout::setup(&mut mem, "q", 4, 4);
        let tokens: Vec<u32> = (0..10).collect();
        q.host_seed(&mut mem, &tokens);
        assert_eq!(mem.read_slice(q.state), [0, 10]);
        assert_eq!(live_segments(&q, &mem), 3); // ceil(10 / 4)
    }

    #[test]
    fn pump_delivers_every_token_across_segments() {
        let seeds: Vec<u32> = (0..13).collect();
        // seg_cap 8 forces several installs for 13 + 39 tokens.
        let (consumed, metrics) = pump_seg(&seeds, 13, 3, 2, 8, 6);
        assert_eq!(consumed, expected_tokens(&seeds, 13, 3));
        assert_eq!(metrics.cas_attempts, 0, "SEG-RF/AN must never CAS");
        assert_eq!(metrics.cas_failures, 0);
        assert_eq!(metrics.queue_empty_retries, 0);
    }

    #[test]
    fn lifetime_overflow_is_absorbed_by_recycling() {
        // 64 seeds fan out to 192 children: 256 lifetime tokens through an
        // arena of 4 * 16 = 64 words — a bounded queue of that size would
        // abort with queue-full almost immediately.
        let seeds: Vec<u32> = (0..64).collect();
        let (consumed, metrics) = pump_seg(&seeds, 64, 3, 4, 16, 4);
        assert_eq!(consumed, expected_tokens(&seeds, 64, 3));
        assert_eq!(metrics.cas_attempts, 0);
        assert_eq!(metrics.queue_empty_retries, 0);
    }

    #[test]
    fn single_wave_single_token() {
        let (consumed, _) = pump_seg(&[7], 0, 0, 1, 32, 2);
        assert_eq!(consumed, vec![7]);
    }

    #[test]
    fn survives_many_waves_on_few_tokens() {
        // Reserve-ahead slack: 4 waves of hungry lanes monitor far beyond
        // Rear; unpublished tickets simply never see data.
        let (consumed, metrics) = pump_seg(&[1, 2], 0, 0, 4, 8, 4);
        assert_eq!(consumed, vec![1, 2]);
        assert_eq!(metrics.queue_empty_retries, 0);
    }

    #[test]
    fn drained_segments_recycle_on_device() {
        let mut engine = Engine::new(GpuConfig::test_tiny());
        let layout = SegmentedLayout::setup(engine.memory_mut(), "q", 4, 3);
        let pending = engine.memory_mut().alloc("pending", 1);
        let seeds: Vec<u32> = (0..8).collect();
        layout.host_seed(engine.memory_mut(), &seeds);
        engine
            .memory_mut()
            .write_u32(pending, 0, seeds.len() as u32);
        let consumed = Arc::new(Mutex::new(Vec::new()));
        let wave_size = engine.config().wave_size;
        engine
            .run(Launch::workgroups(2).with_max_rounds(2_000_000), |_info| {
                PumpKernel::new(over_segments(layout), wave_size, pending, &consumed, 8, 4)
            })
            .expect("segmented pump kernel failed");
        // 40 lifetime tokens flowed through a 12-word arena; after the
        // drain every segment has retired back to the pool.
        let mem = engine.memory_mut();
        assert_eq!(live_segments(&layout, mem), 0);
        assert_eq!(mem.read_u32(layout.pool, 0), 3);
        assert!(mem.read_slice(layout.slots).iter().all(|&w| dec(w) == DNA));
    }
}
