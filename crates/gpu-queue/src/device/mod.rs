//! Device-side queue variants for the SIMT simulator.
//!
//! A device queue lives in simulated global memory as three allocations:
//! the slot array (painted with the [`crate::DNA`] sentinel), and a
//! two-word state buffer holding `Front` and `Rear`. Host code sets it up
//! with [`QueueLayout::setup`]; kernels drive it through the
//! [`WaveQueue`] trait, one instance per wavefront (the instance holds the
//! wavefront's *private* scratch, e.g. the CAS variants' staged counter
//! reads — registers, in GPU terms).
//!
//! The queue is **non-wrapping**: `Front` and `Rear` increase monotonically
//! and the capacity must bound the total number of tokens ever enqueued
//! (for a graph traversal, the vertex count — each vertex is claimed
//! exactly once before being enqueued). This matches the paper's usage: buffers are sized by
//! the host before launch, and over-running the allocation raises the
//! queue-full exception, which *aborts* rather than retries. The paper's
//! "circular" formulation (modulus on `Front`/`Rear`) recycles slots only
//! after consumers restore the sentinel; the non-wrapping layout is the
//! same algorithm with the modulus elided, which is also exactly what the
//! persistent-thread driver needs.
//!
//! Dequeue-side lane states flow `Hungry → (Ready | Monitoring → Ready)`:
//! the CAS variants hand tokens out directly (or raise queue-empty
//! retries); the RF/AN variant always hands out a *slot to monitor* and
//! lets the lane poll for data arrival without atomics.

mod an;
mod base;
mod lanes;
mod rfan;
mod rfonly;
mod segmented;
mod stealing;

pub use an::AnWaveQueue;
pub use base::BaseWaveQueue;
pub use lanes::{bits, Lanes};
pub use rfan::RfAnWaveQueue;
pub use rfonly::RfOnlyWaveQueue;
pub use segmented::{SegmentedLayout, SegmentedWaveQueue};
pub use stealing::{StealingLayout, StealingWaveQueue};

use crate::{Variant, DNA};
use simt::round::LINE_WORDS;
use simt::{Buffer, DeviceMemory, WaveCtx, MAX_WAVE_SIZE};

/// Index of `Front` in the queue state buffer.
pub const FRONT: usize = 0;
/// Index of `Rear` in the queue state buffer.
pub const REAR: usize = 1;

/// Dequeue-side state of one lane — the per-lane view of a [`Lanes`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LanePhase {
    /// Lane has no task and is not asking for one (initial state, or the
    /// kernel decided this lane should idle).
    Idle,
    /// Lane needs work: the next `acquire` will try to feed it.
    Hungry,
    /// RF/AN only: lane owns this queue slot and polls it for arrival.
    Monitoring(u32),
    /// Lane holds a task token, ready for the kernel to consume.
    Ready(u32),
}

/// Host-side handle to a device queue's allocations.
#[derive(Clone, Copy, Debug)]
pub struct QueueLayout {
    /// Slot array buffer (`capacity` words, sentinel-initialized).
    pub slots: Buffer,
    /// Two-word state buffer: `[Front, Rear]`.
    pub state: Buffer,
    /// Slot count; also the total-token bound (non-wrapping).
    pub capacity: u32,
}

impl QueueLayout {
    /// Allocates and initializes a queue in device memory under
    /// `name`-derived buffer names (`"<name>.slots"`, `"<name>.state"`).
    /// Every slot is painted with the `dna` sentinel; `Front = Rear = 0`.
    pub fn setup(memory: &mut DeviceMemory, name: &str, capacity: u32) -> QueueLayout {
        // Paint in one pass: `alloc_filled` skips the demand-zeroing a
        // plain `alloc` would do before the sentinel overwrote it anyway.
        let slots = memory.alloc_filled(&format!("{name}.slots"), capacity as usize, DNA);
        let state = memory.alloc(&format!("{name}.state"), 2);
        QueueLayout {
            slots,
            state,
            capacity,
        }
    }

    /// Host-side enqueue used to seed initial tasks before launch (the
    /// workload's seed tokens, e.g. a traversal's source vertex). Not a simulated operation — it models the host
    /// writing the buffer before `clEnqueueNDRangeKernel`.
    pub fn host_seed(&self, memory: &mut DeviceMemory, tokens: &[u32]) {
        let rear = memory.read_u32(self.state, REAR);
        for (i, &t) in tokens.iter().enumerate() {
            assert!(t < DNA, "token {t:#x} collides with the dna sentinel");
            memory.write_u32(self.slots, rear as usize + i, t);
        }
        memory.write_u32(self.state, REAR, rear + tokens.len() as u32);
    }

    /// Host-side count of tokens currently stored (Rear − Front). Only
    /// meaningful between launches.
    pub fn host_len(&self, memory: &DeviceMemory) -> u32 {
        let front = memory.read_u32(self.state, FRONT);
        let rear = memory.read_u32(self.state, REAR);
        rear.saturating_sub(front)
    }
}

/// One wavefront's view of a device queue. Implementations hold the
/// wavefront-private scratch state; all cross-wavefront communication goes
/// through simulated device memory, so metrics capture every real memory
/// and atomic operation.
///
/// A queue handle and the [`Lanes`] it is handed belong to **one
/// wavefront for the whole launch**: a handle may remember what it
/// concluded about those lanes under their [`Lanes::epoch`], so passing it
/// another wavefront's lanes, or a fresh `Lanes`, mid-launch is a caller
/// bug.
pub trait WaveQueue {
    /// Which design this is.
    fn variant(&self) -> Variant;

    /// Services the dequeue side for one work cycle: tries to move
    /// `Hungry` lanes toward `Ready` (directly for the CAS designs, via
    /// `Monitoring` + data-arrival polling for RF/AN). Lanes the queue
    /// cannot feed this cycle stay `Hungry`/`Monitoring` and are counted
    /// as retries where the design retries.
    fn acquire(&mut self, ctx: &mut WaveCtx<'_>, lanes: &mut Lanes);

    /// Enqueues this wavefront's newly discovered task tokens. `tokens`
    /// is the concatenation of every lane's discoveries this work cycle
    /// (the per-lane counts having been aggregated with local atomics).
    /// Returns the number of tokens accepted; the remainder must be
    /// re-offered next cycle (the CAS designs may fail their reservation).
    /// RF/AN always accepts everything or aborts on queue-full.
    fn enqueue(&mut self, ctx: &mut WaveCtx<'_>, tokens: &[u32]) -> usize;

    /// If this wavefront's dequeue side is a *pure poll* — the next
    /// `acquire` will re-execute an identical cycle for as long as the
    /// words it reads stay inside a known class of observations —
    /// registers park watches naming those classes (see the wave-parking
    /// contract in `simt::ctx`) and returns `true`: the sentinel designs
    /// watch "`Rear` has not passed my smallest ticket"
    /// (`WaveCtx::park_while_at_most`, plus SEG's directory words), the
    /// CAS designs watch "still empty" over `Rear`/`Front`
    /// (`WaveCtx::park_while_empty`). Kernels combine this with their own
    /// watches (e.g. "pending still non-zero") to let the engine skip the
    /// idle long tail cycle-exactly. Designs whose idle cycle is not
    /// invariant (steal scans) keep the default `false` for it and simply
    /// never park there.
    fn register_idle_watches(&self, ctx: &mut WaveCtx<'_>, lanes: &Lanes) -> bool {
        let _ = (ctx, lanes);
        false
    }
}

/// Paper Listing 1, the batched reservation of RF/AN and SEG-RF/AN: the
/// hungry lanes count themselves with workgroup-local atomics (the proxy
/// zeroes the counter; local atomics never fail and are latency-hidden),
/// the proxy thread issues **one** global AFA on `Front` for all of them,
/// and each lane monitors its ticket of the batch. Returns the global
/// AFAs issued: one iff any lane was hungry.
pub(crate) fn reserve_batch(ctx: &mut WaveCtx<'_>, lanes: &mut Lanes, state: Buffer) -> u64 {
    let hungry = lanes.hungry().count_ones();
    if hungry == 0 {
        return 0;
    }
    ctx.charge_alu(1);
    ctx.lds_atomics(u64::from(hungry));
    let base = ctx.atomic_add(state, FRONT, hungry);
    ctx.count_scheduler_atomics(1);
    lanes.monitor_hungry(base);
    1
}

/// Where a sentinel design keeps the slot behind a ticket.
#[derive(Clone, Copy)]
pub(crate) enum Slots<'a> {
    /// Ticket `t < capacity` is `slots[t]`; later tickets have no slot.
    Flat(&'a QueueLayout),
    /// Ticket `t` is in the physical segment the directory maps virtual
    /// segment `t / seg_cap` to, if it maps it.
    Segmented(&'a SegmentedLayout),
}

/// Directory words one memoised poll can stand on — every word of the
/// ring [`SegmentedLayout::for_capacity`] builds. On a longer ring, a
/// wavefront whose tickets span more segments than this polls in full
/// every cycle.
const PROBES: usize = 12;

/// What the last arrival-free [`poll`] of a wavefront charged, valid for
/// as long as what it was computed from stands: the same lanes on the
/// same tickets ([`Lanes::epoch`]), `Rear` not past the smallest of them,
/// the probed directory words unchanged.
#[derive(Clone, Copy, Debug)]
pub(crate) struct PollMemo {
    epoch: u64,
    min_ticket: u32,
    /// Cache-resident slot lines polled.
    cached_lines: u8,
    /// Cache-resident directory lines probed (SEG).
    dir_lines: u8,
    /// Ring slots of the directory words probed (SEG), and what they held,
    /// in ring order.
    probed: u64,
    entries: [u32; PROBES],
}

impl PollMemo {
    /// Matches no [`Lanes::epoch`]: the next poll runs in full.
    pub(crate) const NONE: PollMemo = PollMemo {
        epoch: u64::MAX,
        min_ticket: 0,
        cached_lines: 0,
        dir_lines: 0,
        probed: 0,
        entries: [0; PROBES],
    };
}

/// The data-arrival poll (paper Listing 2) of RF/AN, RF-only and
/// SEG-RF/AN, in closed form.
///
/// The modelled hardware reads every monitored slot each work cycle. The
/// simulator need not: **a ticket `t` a lane still monitors reads
/// non-`dna` through the round-stale view iff `t <` the round-start value
/// of `Rear`** (bounded: and `t < capacity`; segmented: which implies the
/// stale directory maps its segment) — the argument is the worked example
/// of *Host-side observation* in `simt::ctx`. So the poll observes
/// round-start `Rear` (and, SEG, the directory word of each distinct
/// segment in play, once per run of tickets), decides arrival by integer
/// compare, and charges exactly what the reads cost: a wavefront's
/// monitored slots came from batched reservations, so the poll coalesces
/// into one transaction per cache line — cache-resident
/// (`charge_cached_access`) while the line holds only sentinels, a full
/// transaction (`charge_coalesced_access` over the watched run) once a
/// producer's write invalidated it — plus one ALU slot per monitoring lane
/// for its bounds / mapping check. It reads a slot only to pick an arrived
/// token up, restoring the sentinel (no atomics: the slot is privately
/// owned) and reporting the ticket to `picked`.
///
/// When nothing arrived, the counts are kept in `memo`; the next poll of
/// the same lanes, with `Rear` still short of them and the directory words
/// unchanged, replays them without looking at a lane. Debug builds run
/// every poll in full instead, assert the invariant on every watched word
/// and check a valid memo against the recount. While a poison is armed
/// the poll also touches every word the hardware reads, in its order, with
/// the faulting accessor.
pub(crate) fn poll(
    ctx: &mut WaveCtx<'_>,
    lanes: &mut Lanes,
    memo: &mut PollMemo,
    slots: Slots<'_>,
    mut picked: impl FnMut(u32),
) {
    let watching = lanes.monitoring();
    if watching == 0 {
        return;
    }
    let (buf, rear) = match slots {
        // No ticket at or past `capacity` ever holds data.
        Slots::Flat(q) => (q.slots, ctx.observe_stale(q.state, REAR).min(q.capacity)),
        Slots::Segmented(lt) => (lt.slots, ctx.observe_stale(lt.state, REAR)),
    };
    let armed = ctx.poison_armed();
    let replay = !armed
        && memo.epoch == lanes.epoch()
        && rear <= memo.min_ticket
        && match slots {
            Slots::Flat(_) => true,
            Slots::Segmented(lt) => bits(memo.probed)
                .zip(memo.entries)
                .all(|(r, entry)| ctx.observe_stale(lt.dir, r) == entry),
        };
    if replay && !cfg!(debug_assertions) {
        ctx.charge_cached_access(memo.dir_lines.into());
        ctx.charge_cached_access(memo.cached_lines.into());
        ctx.charge_alu(watching.count_ones().into());
        return;
    }

    let mut min_ticket = u32::MAX;
    // Ring slots and directory lines probed so far.
    let (mut probed, mut dir_lines) = (0u64, 0u64);
    // `arena address, arrived, lane` of every watched slot, packed so that
    // sorting orders them by address.
    let mut keys = [0u64; MAX_WAVE_SIZE];
    let mut watched = 0;
    // The segment the previous ticket resolved to: `(first ticket, arena
    // address of it if mapped)`.
    let mut span: Option<(u32, Option<u32>)> = None;
    for lane in bits(watching) {
        let t = lanes.ticket(lane);
        min_ticket = min_ticket.min(t);
        let addr = match slots {
            Slots::Flat(q) => (t < q.capacity).then_some(t),
            Slots::Segmented(lt) => {
                if armed || span.is_none_or(|(first, _)| t.wrapping_sub(first) >= lt.seg_cap) {
                    let seg = t / lt.seg_cap;
                    let r = lt.ring_slot(seg);
                    if armed {
                        ctx.peek_stale(lt.dir, r);
                    }
                    probed |= 1 << r;
                    dir_lines |= 1 << (r / LINE_WORDS);
                    let entry = ctx.observe_stale(lt.dir, r);
                    let base = lt.decode(entry, seg).map(|phys| phys * lt.seg_cap);
                    span = Some((seg * lt.seg_cap, base));
                }
                span.and_then(|(first, base)| Some(base? + (t - first)))
            }
        };
        let Some(addr) = addr else {
            // Never read: data cannot arrive out of bounds, nor before
            // the mapping does.
            debug_assert!(t >= rear, "ticket {t} below Rear {rear} has no slot");
            continue;
        };
        debug_assert_eq!(
            ctx.observe_stale(buf, addr as usize) != DNA,
            t < rear,
            "arrival invariant: ticket {t}, round-start Rear {rear}"
        );
        keys[watched] = u64::from(addr) << 7 | u64::from(t < rear) << 6 | lane as u64;
        watched += 1;
    }

    // Probes of distinct ring slots coalesce into cache-resident lines.
    let dir_lines = dir_lines.count_ones() as u8;
    ctx.charge_cached_access(dir_lines.into());
    let keys = &mut keys[..watched];
    keys.sort_unstable();
    let (mut cached_lines, mut arrivals) = (0u8, 0);
    let mut i = 0;
    while i < keys.len() {
        let first = (keys[i] >> 7) as usize;
        let (mut last, mut data) = (first, false);
        while i < keys.len() && (keys[i] >> 7) as usize / LINE_WORDS == first / LINE_WORDS {
            last = (keys[i] >> 7) as usize;
            if armed {
                ctx.peek_stale(buf, last);
            }
            if keys[i] & (1 << 6) != 0 {
                data = true;
                arrivals += 1;
                let lane = (keys[i] & 63) as usize;
                let value = ctx.peek_stale(buf, last);
                assert!(value != DNA, "closed-form pickup of an empty slot {last}");
                // Private pickup: restore the sentinel, no atomics.
                ctx.poke(buf, last, DNA);
                picked(lanes.ticket(lane));
                lanes.deliver(lane, value);
            }
            i += 1;
        }
        if data {
            ctx.charge_coalesced_access(buf, first, last - first + 1);
        } else {
            cached_lines += 1;
        }
    }
    ctx.charge_cached_access(cached_lines.into());
    ctx.charge_alu(watching.count_ones().into());

    debug_assert!(
        !replay || (arrivals, cached_lines, dir_lines) == (0, memo.cached_lines, memo.dir_lines),
        "stale poll memo {memo:?}: recounted {cached_lines} + {dir_lines} lines"
    );
    *memo = PollMemo::NONE;
    if arrivals == 0 && probed.count_ones() as usize <= PROBES {
        if let Slots::Segmented(lt) = slots {
            for (entry, r) in memo.entries.iter_mut().zip(bits(probed)) {
                *entry = ctx.observe_stale(lt.dir, r);
            }
        }
        (memo.epoch, memo.min_ticket) = (lanes.epoch(), min_ticket);
        (memo.cached_lines, memo.dir_lines, memo.probed) = (cached_lines, dir_lines, probed);
    }
}

/// The sentinel designs' [`WaveQueue::register_idle_watches`]. A pure
/// poll requires *every* lane to be monitoring: a hungry or ready lane
/// would make the next cycle reserve slots or do work, and an idle lane is
/// about to turn hungry. By the arrival invariant ([`poll`]) that cycle
/// repeats until round-start `Rear` passes the smallest monitored ticket
/// or (SEG) a probed directory word changes, so the wave parks on exactly
/// those — waking in the round a watch on every monitored slot would have.
/// A wave whose tickets are all out of bounds waits on the kernel's
/// watches alone.
pub(crate) fn park_sentinel(ctx: &mut WaveCtx<'_>, lanes: &Lanes, slots: Slots<'_>) -> bool {
    if !lanes.all_monitoring() {
        return false;
    }
    let mut smallest = u32::MAX;
    // SEG: ring slots watched so far, and the first ticket of the segment
    // the previous ticket was in (tickets come in runs).
    let (mut parked, mut span) = (0u64, None);
    for t in bits(lanes.monitoring()).map(|lane| lanes.ticket(lane)) {
        smallest = smallest.min(t);
        if let Slots::Segmented(lt) = slots {
            if span.is_none_or(|first| t.wrapping_sub(first) >= lt.seg_cap) {
                let seg = t / lt.seg_cap;
                span = Some(seg * lt.seg_cap);
                let r = lt.ring_slot(seg);
                if parked & (1 << r) == 0 {
                    parked |= 1 << r;
                    ctx.park_until_changed(lt.dir, r);
                }
            }
        }
    }
    match slots {
        Slots::Flat(q) if smallest >= q.capacity => {}
        Slots::Flat(q) => ctx.park_while_at_most(q.state, REAR, smallest),
        Slots::Segmented(lt) => ctx.park_while_at_most(lt.state, REAR, smallest),
    }
    true
}

/// Builds the per-wavefront queue handle for `variant`.
pub fn make_wave_queue(variant: Variant, layout: QueueLayout) -> Box<dyn WaveQueue> {
    match variant {
        Variant::Base => Box::new(BaseWaveQueue::new(layout)),
        Variant::An => Box::new(AnWaveQueue::new(layout)),
        Variant::RfAn => Box::new(RfAnWaveQueue::new(layout)),
        Variant::RfOnly => Box::new(RfOnlyWaveQueue::new(layout)),
        Variant::SegRfAn => panic!(
            "segmented variants use SegmentedLayout::setup + SegmentedWaveQueue::new \
             (the bounded QueueLayout cannot host a segmented ticket space)"
        ),
    }
}

#[cfg(test)]
pub(crate) mod testutil;

#[cfg(test)]
mod tests {
    use super::*;
    use simt::DeviceMemory;

    #[test]
    fn setup_paints_sentinels() {
        let mut mem = DeviceMemory::new();
        let q = QueueLayout::setup(&mut mem, "q", 8);
        assert_eq!(q.capacity, 8);
        assert!(mem.read_slice(q.slots).iter().all(|&w| w == DNA));
        assert_eq!(mem.read_u32(q.state, FRONT), 0);
        assert_eq!(mem.read_u32(q.state, REAR), 0);
    }

    #[test]
    fn host_seed_advances_rear() {
        let mut mem = DeviceMemory::new();
        let q = QueueLayout::setup(&mut mem, "q", 8);
        q.host_seed(&mut mem, &[5, 6]);
        assert_eq!(mem.read_u32(q.state, REAR), 2);
        assert_eq!(mem.read_u32(q.slots, 0), 5);
        assert_eq!(mem.read_u32(q.slots, 1), 6);
        assert_eq!(q.host_len(&mem), 2);
    }

    #[test]
    #[should_panic(expected = "dna sentinel")]
    fn host_seed_rejects_sentinel_token() {
        let mut mem = DeviceMemory::new();
        let q = QueueLayout::setup(&mut mem, "q", 4);
        q.host_seed(&mut mem, &[DNA]);
    }

    /// Wave 0 drives the queue words by hand; wave 1 is a real consumer.
    enum HandBack {
        Driver { layout: QueueLayout, cycle: u32 },
        Consumer(Box<testutil::PumpKernel>),
    }

    impl simt::WaveKernel for HandBack {
        fn work_cycle(&mut self, ctx: &mut WaveCtx<'_>) -> simt::WaveStatus {
            let (layout, cycle) = match self {
                HandBack::Consumer(pump) => return pump.work_cycle(ctx),
                HandBack::Driver { layout, cycle } => (*layout, cycle),
            };
            ctx.charge_alu(1);
            match *cycle {
                // A token comes and goes within the round: `Front` mutates,
                // the queue never looks non-empty to a stale reader.
                2..=4 => {
                    let slot = ctx.atomic_add(layout.state, REAR, 1);
                    ctx.poke(layout.slots, slot as usize, 100 + slot);
                    ctx.atomic_add(layout.state, FRONT, 1);
                }
                // Four tokens arrive and stay.
                6 => {
                    let base = ctx.atomic_add(layout.state, REAR, 4);
                    for i in 0..4 {
                        ctx.poke(layout.slots, (base + i) as usize, 200 + i);
                    }
                }
                _ => {}
            }
            *cycle += 1;
            if *cycle == 7 {
                simt::WaveStatus::Done
            } else {
                simt::WaveStatus::Active
            }
        }
    }

    fn hand_back_run(variant: Variant, park: bool) -> simt::RunReport {
        use std::sync::{Arc, Mutex};
        let mut engine = simt::Engine::new(simt::GpuConfig::test_tiny());
        let layout = QueueLayout::setup(engine.memory_mut(), "q", 64);
        let pending = engine.memory_mut().alloc("pending", 1);
        engine.memory_mut().write_u32(pending, 0, 4);
        let consumed = Arc::new(Mutex::new(Vec::new()));
        let report = engine
            .run(simt::Launch::workgroups(2).with_audit(), |info| {
                if info.wave_id == 0 {
                    return HandBack::Driver { layout, cycle: 0 };
                }
                let queue = make_wave_queue(variant, layout);
                HandBack::Consumer(Box::new(testutil::PumpKernel {
                    queue: if park {
                        queue
                    } else {
                        Box::new(testutil::NeverPark(queue))
                    },
                    lanes: Lanes::new(info.wave_size),
                    pending,
                    consumed: Arc::clone(&consumed),
                    fanout_until: 0,
                    children: 0,
                    outbox: Vec::new(),
                    completed: 0,
                }))
            })
            .expect("hand-back scenario failed");
        assert_eq!(*consumed.lock().unwrap(), vec![200, 201, 202, 203]);
        report
    }

    #[test]
    fn parked_cas_queues_get_fronts_version_handed_back() {
        // `Front` mutates three times while the consumer is parked on the
        // empty queue, then tokens arrive. The retry-storm model (AN) and
        // the wasted-attempt model (BASE) count `Front` mutations since
        // the wave's previous *visit* — for a wave that polls every round
        // that is last round, and parking must not turn it into "since
        // the wave parked" (three failed CAS attempts that never were).
        for variant in [Variant::An, Variant::Base] {
            let parked = hand_back_run(variant, true);
            let polled = hand_back_run(variant, false);
            assert_eq!(parked.metrics, polled.metrics, "{variant:?}");
            assert_eq!(parked.per_cu_cycles, polled.per_cu_cycles, "{variant:?}");
            assert_eq!(parked.seconds, polled.seconds, "{variant:?}");
            assert_eq!(parked.metrics.cas_failures, 0, "{variant:?}");
            assert_eq!(polled.profile.park_events, 0, "{variant:?}");
            // Parked in round 0, replayed through round 6, woken in 7.
            assert_eq!(parked.profile.park_events, 1, "{variant:?}");
            assert_eq!(parked.profile.park_replay_cycles, 6, "{variant:?}");
        }
    }

    /// Pumps one scenario through the closed-form poll and through the
    /// reading oracle; every simulated quantity, the delivery order and
    /// the park trajectory must agree. Returns the closed-form report.
    fn assert_poll_matches_oracle(
        gpu: &simt::GpuConfig,
        shape: testutil::Shape,
        seeds: &[&[u32]],
        fanout: (u32, u32),
        wgs: usize,
    ) -> simt::RunReport {
        let run =
            |reading| testutil::pump_through(gpu, shape, reading, seeds, fanout.0, fanout.1, wgs);
        let ((closed, delivered), (oracle, expected)) = (run(false), run(true));
        let label = format!("{}/{shape:?}", gpu.name);
        assert_eq!(delivered, expected, "{label}: delivery order");
        assert_eq!(closed.metrics, oracle.metrics, "{label}");
        assert_eq!(closed.per_cu_cycles, oracle.per_cu_cycles, "{label}");
        assert_eq!(closed.seconds, oracle.seconds, "{label}");
        let parks = |r: &simt::RunReport| (r.profile.park_events, r.profile.park_replay_cycles);
        assert_eq!(parks(&closed), parks(&oracle), "{label}: park trajectory");
        let mut sorted = delivered;
        sorted.sort_unstable();
        let all: Vec<u32> = seeds.concat();
        assert_eq!(sorted, testutil::expected_tokens(&all, fanout.0, fanout.1));
        closed
    }

    /// A saturated scenario (40 seeds fanning out three ways) and a
    /// starved one (a chain of 61 tokens, one child each: the waves sit
    /// parked while one lane works), through both polls.
    fn assert_poll_matches_oracle_busy_and_starved(
        gpu: &simt::GpuConfig,
        shape: testutil::Shape,
        wgs: usize,
    ) {
        let seeds: Vec<u32> = (0..40).collect();
        assert_poll_matches_oracle(gpu, shape, &[&seeds], (40, 3), wgs);
        let starved = assert_poll_matches_oracle(gpu, shape, &[&[0]], (60_000, 1), wgs);
        let label = format!("{}/{shape:?}", gpu.name);
        assert!(starved.profile.park_events > 0, "{label}: nothing parked");
        assert!(
            starved.profile.park_replay_cycles > starved.profile.park_events,
            "{label}: no wave stayed parked"
        );
    }

    #[test]
    fn closed_form_poll_matches_the_reading_poll_on_bounded_queues() {
        for variant in [Variant::RfAn, Variant::RfOnly] {
            let shape = testutil::Shape::Bounded(variant, 512);
            assert_poll_matches_oracle_busy_and_starved(&simt::GpuConfig::test_tiny(), shape, 4);
            assert_poll_matches_oracle_busy_and_starved(&simt::GpuConfig::spectre(), shape, 6);
        }
    }

    #[test]
    fn closed_form_poll_matches_when_front_overruns_capacity() {
        // 4 waves x 4 hungry lanes reserve 16 tickets of a 6-slot queue:
        // the out-of-bounds lanes are charged their bounds check and never
        // polled, and the in-bounds ones share a line with them.
        for variant in [Variant::RfAn, Variant::RfOnly] {
            let shape = testutil::Shape::Bounded(variant, 6);
            let gpu = simt::GpuConfig::test_tiny();
            assert_poll_matches_oracle(&gpu, shape, &[&[3, 4, 5]], (4, 1), 4);
        }
    }

    #[test]
    fn closed_form_poll_matches_the_reading_poll_on_segmented_queues() {
        for (seg_cap, phys_segs, gpu, wgs) in [
            (8, 6, simt::GpuConfig::test_tiny(), 4),
            // Not a multiple of the 16-word line: one cache line holds the
            // tail of one physical segment and the head of the next, and a
            // 64-lane wave watches both.
            (24, 4, simt::GpuConfig::spectre(), 3),
            (40, 5, simt::GpuConfig::spectre(), 6),
            // A wave's 64 tickets span 16 segments: more directory words
            // than a poll memo holds.
            (4, 30, simt::GpuConfig::spectre(), 2),
        ] {
            let shape = testutil::Shape::Segmented { seg_cap, phys_segs };
            assert_poll_matches_oracle_busy_and_starved(&gpu, shape, wgs);
        }
    }

    #[test]
    fn closed_form_poll_matches_on_a_queue_seeded_like_a_resumed_launch() {
        // A checkpoint resume seeds a whole frontier into a fresh queue —
        // here in two host writes, crossing several segment boundaries —
        // so the first polls find `Rear` far from zero and data in every
        // line a wave watches.
        let (first, second): (Vec<u32>, Vec<u32>) = ((0..70).collect(), (70..100).collect());
        let frontier: [&[u32]; 2] = [&first, &second];
        for shape in [
            testutil::Shape::Bounded(Variant::RfAn, 256),
            testutil::Shape::Bounded(Variant::RfOnly, 256),
            testutil::Shape::Segmented {
                seg_cap: 24,
                phys_segs: 8,
            },
        ] {
            let gpu = simt::GpuConfig::spectre();
            assert_poll_matches_oracle(&gpu, shape, &frontier, (30, 2), 2);
        }
    }

    #[test]
    fn make_wave_queue_dispatches() {
        let mut mem = DeviceMemory::new();
        let layout = QueueLayout::setup(&mut mem, "q", 4);
        for v in Variant::MATRIX {
            assert_eq!(make_wave_queue(v, layout).variant(), v);
        }
    }
}
