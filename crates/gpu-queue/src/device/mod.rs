//! Device-side queue family for the SIMT simulator.
//!
//! A device queue lives in simulated global memory: a slot array whose
//! every slot starts out holding the [`crate::DNA`] sentinel, and a
//! two-word state buffer holding `Front` and `Rear` ([`QueueLayout`];
//! [`SegmentedLayout`] adds a directory, [`StealingLayout`] is one
//! `QueueLayout` per compute unit).
//! A kernel holds one [`DeviceQueue`] per wavefront by value (it holds the
//! wavefront's *private* scratch, e.g. the CAS designs' staged counter
//! versions — registers, in GPU terms), dispatched statically; tests
//! substitute through the [`WaveQueue`] trait it implements.
//!
//! **Slot words are stored as `token ^ DNA`** (`enc`/`dec`), so the
//! sentinel is the zero word: a slot array is a plain zeroed allocation,
//! never painted, and costs host memory only for the slots a run writes
//! (the per-CU queues alone are `num_cus` full-capacity rings). The
//! encoding is a bijection that every slot read and write goes through,
//! so the simulated machine still sees `dna` in an empty slot, and every
//! simulated number is what a painted array gives. `Front`/`Rear`, the
//! segmented directory and values are stored plain.
//!
//! The flat queue is **non-wrapping**: `Front` and `Rear` increase
//! monotonically and the capacity must bound the total number of tokens
//! ever enqueued (for a graph traversal, the vertex count — each vertex is
//! claimed exactly once before being enqueued). This matches the paper's
//! usage: buffers are sized by the host before launch, and over-running
//! the allocation raises the queue-full exception, which *aborts* rather
//! than retries. The paper's "circular" formulation (modulus on
//! `Front`/`Rear`) recycles slots only after consumers restore the
//! sentinel; the non-wrapping layout is the same algorithm with the
//! modulus elided, which is also exactly what the persistent-thread driver
//! needs.
//!
//! **One queue, from parts.** The paper dissects its design as two
//! properties toggled one at a time (§5.3); like the host family
//! ([`crate::host`]), the device family is the product of the decisions
//! behind them, each written once:
//!
//! * *how a ticket range is reserved* — the discipline, an arm of
//!   [`DeviceQueue`]: [`DeviceQueue::Cas`] (read, check, compare-and-swap;
//!   never passes `Rear` and raises queue-empty; hands tokens out
//!   directly, `Hungry → Ready`) or [`DeviceQueue::Ticket`] (one
//!   fetch-add that cannot fail; reserves ahead and polls the `dna`
//!   sentinel without atomics, `Hungry → Monitoring → Ready`);
//! * *where the slot behind a ticket lives* — a `Slots` value the ticket
//!   queue matches on: flat ([`QueueLayout`], overflow is queue-full) or
//!   segmented ([`SegmentedLayout`], overflow is a segment install);
//! * *width* — per lane or per wave (the arbitrary-n property: a proxy
//!   thread reserves for the whole wavefront with one atomic);
//! * *placement* — one queue for the device, or one per compute unit with
//!   stealing ([`DeviceQueue::PerCu`]).
//!
//! All four are fixed when [`DeviceQueue::setup`] builds a [`Design`]:
//!
//! | design | discipline | width | storage | placement |
//! |---|---|---|---|---|
//! | `BASE` | CAS | lane | flat | shared |
//! | `AN` | CAS | wave | flat | shared |
//! | `RF-only` | ticket | lane | flat | shared |
//! | `RF/AN` — the proposed design | ticket | wave | flat | shared |
//! | `SEG-RF/AN` | ticket | wave | segmented | shared |
//! | stealing | ticket, bounded by visible backlog | wave | flat | per CU |
//!
//! Separate on purpose, because their charges differ: the two CAS
//! contention models (`an.rs`, `base.rs`), the three publishes (`rfan.rs`,
//! `rfonly.rs`, `segmented.rs`), and the stealing scheduler's per-lane poll
//! (a steal scan is not an invariant cycle, so it does not take the ticket
//! queue's closed-form one).

mod an;
mod base;
mod cas;
mod lanes;
mod rfan;
mod rfonly;
mod segmented;
mod stealing;
mod ticket;

pub use lanes::{bits, Lanes};
pub use segmented::SegmentedLayout;
pub use stealing::StealingLayout;

use crate::{Variant, DNA};
use cas::CasWaveQueue;
use simt::{Buffer, DeviceMemory, WaveCtx};
use stealing::StealingWaveQueue;
use ticket::{Slots, TicketWaveQueue};

/// The slot word that holds `token` (or, for [`DNA`], the empty slot):
/// `token ^ DNA`, so the zero word of a fresh allocation is the sentinel.
#[inline]
pub(crate) const fn enc(token: u32) -> u32 {
    token ^ DNA
}

/// The token (or [`DNA`]) that slot word `word` holds: the inverse of
/// [`enc`].
#[inline]
pub(crate) const fn dec(word: u32) -> u32 {
    word ^ DNA
}

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
    /// Slot array buffer (`capacity` words, each read through `dec`;
    /// every slot starts as the sentinel).
    pub slots: Buffer,
    /// Two-word state buffer: `[Front, Rear]`.
    pub state: Buffer,
    /// Slot count; also the total-token bound (non-wrapping).
    pub capacity: u32,
}

impl QueueLayout {
    /// Allocates and initializes a queue in device memory under
    /// `name`-derived buffer names (`"<name>.slots"`, `"<name>.state"`).
    /// Every slot holds the `dna` sentinel — the zero word, so nothing is
    /// painted; `Front = Rear = 0`.
    pub fn setup(memory: &mut DeviceMemory, name: &str, capacity: u32) -> QueueLayout {
        let slots = memory.alloc(&format!("{name}.slots"), capacity as usize);
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
            memory.write_u32(self.slots, rear as usize + i, enc(t));
        }
        memory.write_u32(self.state, REAR, rear + tokens.len() as u32);
    }

    /// Host-side count of tokens currently stored (Rear − Front; zero
    /// while reservations run ahead of the data). Only meaningful between
    /// launches.
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

/// How many lanes one reservation serves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Width {
    /// Every lane issues its own global atomic.
    PerLane,
    /// A proxy thread issues one for the wavefront (arbitrary-n).
    PerWave,
}

/// Which of the six schedulers a run uses — the one key from a run's
/// configuration down to the [`DeviceQueue`] its kernel polls.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Design {
    /// The paper's topology: one device-wide queue of this variant.
    Shared(Variant),
    /// One RF/AN ring per compute unit with work stealing
    /// ([`DeviceQueue::PerCu`]): less hot-word pressure, more load
    /// imbalance.
    PerCu,
}

impl Design {
    /// Every design, in the order of the module's table.
    pub const ALL: [Design; 6] = [
        Design::Shared(Variant::Base),
        Design::Shared(Variant::An),
        Design::Shared(Variant::RfOnly),
        Design::Shared(Variant::RfAn),
        Design::Shared(Variant::SegRfAn),
        Design::PerCu,
    ];

    /// The name a run's audits and messages print: the variant's label,
    /// or `stealing`.
    pub fn label(self) -> &'static str {
        match self {
            Design::Shared(variant) => variant.label(),
            Design::PerCu => "stealing",
        }
    }

    /// The most tokens [`DeviceQueue::host_seed`] can write into a fresh
    /// queue of this design set up at nominal `capacity`: a flat queue's
    /// slots, a segmented queue's arena, CU 0's ring.
    pub fn seed_capacity(self, capacity: u32) -> u32 {
        match self {
            Design::Shared(Variant::SegRfAn) => {
                let (seg_cap, phys_segs) = segmented::sized(capacity);
                seg_cap.saturating_mul(phys_segs)
            }
            Design::Shared(_) => capacity,
            Design::PerCu => capacity.min(stealing::MAX_CAPACITY),
        }
    }
}

impl From<Variant> for Design {
    /// The paper's topology: one shared queue of `variant`.
    fn from(variant: Variant) -> Self {
        Design::Shared(variant)
    }
}

/// The scheduler queue of one launch, whichever [`Design`] it is: one arm
/// per discipline. [`DeviceQueue::setup`] returns the prototype, which
/// [`DeviceQueue::host_seed`] seeds and [`DeviceQueue::wave_queue`] copies,
/// with fresh per-wave state, for each wavefront.
#[derive(Clone, Debug)]
pub enum DeviceQueue {
    /// BASE (lane width) or AN (wave width) over a flat queue.
    Cas(CasWaveQueue),
    /// RF-only (flat, lane width), RF/AN (flat, wave width) or SEG-RF/AN
    /// (segmented, wave width).
    Ticket(TicketWaveQueue),
    /// One RF/AN ring per compute unit, with stealing.
    PerCu(StealingWaveQueue),
}

impl DeviceQueue {
    /// Allocates and initializes the queue of `design` in device memory
    /// (buffers `"workqueue.*"`, per CU `"dqueue.cu<i>.*"`), sized from a
    /// nominal `capacity` in slots: a flat queue has exactly that many, a
    /// segmented one an arena of about 1.25× ([`SegmentedLayout::for_capacity`]),
    /// and each of the `num_cus` per-CU queues the full capacity — a hub
    /// can land an outsized share on one CU — capped at what a stealing
    /// ticket can address, well below the shared queue's limit, since
    /// `num_cus` arrays of this size coexist.
    pub fn setup(
        memory: &mut DeviceMemory,
        design: Design,
        capacity: u32,
        num_cus: usize,
    ) -> DeviceQueue {
        let mut flat = || QueueLayout::setup(memory, "workqueue", capacity);
        let mut cas = |width| DeviceQueue::Cas(CasWaveQueue::new(flat(), width));
        let ticket = |slots, width| DeviceQueue::Ticket(TicketWaveQueue::new(slots, width));
        match design {
            Design::Shared(Variant::Base) => cas(Width::PerLane),
            Design::Shared(Variant::An) => cas(Width::PerWave),
            Design::Shared(Variant::RfOnly) => ticket(Slots::Flat(flat()), Width::PerLane),
            Design::Shared(Variant::RfAn) => ticket(Slots::Flat(flat()), Width::PerWave),
            Design::Shared(Variant::SegRfAn) => {
                let arena = SegmentedLayout::for_capacity(memory, "workqueue", capacity);
                ticket(Slots::Segmented(arena), Width::PerWave)
            }
            Design::PerCu => {
                let per_cu = design.seed_capacity(capacity);
                let layout = StealingLayout::setup(memory, "dqueue", num_cus, per_cu);
                DeviceQueue::PerCu(StealingWaveQueue::new(layout, 0))
            }
        }
    }

    /// Host-side enqueue of the initial tokens before launch (the
    /// workload's seeds, or a resumed frontier; per CU: into CU 0's
    /// queue). Not a simulated operation.
    pub fn host_seed(&self, memory: &mut DeviceMemory, tokens: &[u32]) {
        match self {
            DeviceQueue::Cas(q) => q.layout.host_seed(memory, tokens),
            DeviceQueue::Ticket(q) => match q.slots {
                Slots::Flat(flat) => flat.host_seed(memory, tokens),
                Slots::Segmented(lt) => lt.host_seed(memory, tokens),
            },
            DeviceQueue::PerCu(q) => q.layout.host_seed(memory, tokens),
        }
    }

    /// The queue handle of a wavefront resident on compute unit `cu`: this
    /// queue with fresh per-wave state, homed at `cu` when it steals.
    pub fn wave_queue(&self, cu: usize) -> DeviceQueue {
        match self {
            DeviceQueue::Cas(q) => DeviceQueue::Cas(CasWaveQueue::new(q.layout, q.width)),
            DeviceQueue::Ticket(q) => DeviceQueue::Ticket(TicketWaveQueue::new(q.slots, q.width)),
            DeviceQueue::PerCu(q) => {
                DeviceQueue::PerCu(StealingWaveQueue::new(q.layout.clone(), cu))
            }
        }
    }
}

impl WaveQueue for DeviceQueue {
    fn acquire(&mut self, ctx: &mut WaveCtx<'_>, lanes: &mut Lanes) {
        match self {
            DeviceQueue::Cas(q) => q.acquire(ctx, lanes),
            DeviceQueue::Ticket(q) => q.acquire(ctx, lanes),
            DeviceQueue::PerCu(q) => q.acquire(ctx, lanes),
        }
    }

    fn enqueue(&mut self, ctx: &mut WaveCtx<'_>, tokens: &[u32]) -> usize {
        match self {
            DeviceQueue::Cas(q) => q.enqueue(ctx, tokens),
            DeviceQueue::Ticket(q) => q.enqueue(ctx, tokens),
            DeviceQueue::PerCu(q) => q.enqueue(ctx, tokens),
        }
    }

    fn register_idle_watches(&self, ctx: &mut WaveCtx<'_>, lanes: &Lanes) -> bool {
        match self {
            DeviceQueue::Cas(q) => q.register_idle_watches(ctx, lanes),
            DeviceQueue::Ticket(q) => q.register_idle_watches(ctx, lanes),
            DeviceQueue::PerCu(q) => q.register_idle_watches(ctx, lanes),
        }
    }
}

#[cfg(test)]
pub(crate) mod testutil;

#[cfg(test)]
mod tests {
    use super::*;
    use simt::DeviceMemory;

    #[test]
    fn setup_leaves_every_slot_reading_empty() {
        let mut mem = DeviceMemory::new();
        let q = QueueLayout::setup(&mut mem, "q", 8);
        assert_eq!(q.capacity, 8);
        assert!(mem.read_slice(q.slots).iter().all(|&w| dec(w) == DNA));
        assert_eq!(mem.read_u32(q.state, FRONT), 0);
        assert_eq!(mem.read_u32(q.state, REAR), 0);
    }

    #[test]
    fn host_seed_advances_rear() {
        let mut mem = DeviceMemory::new();
        let q = QueueLayout::setup(&mut mem, "q", 8);
        q.host_seed(&mut mem, &[5, 6]);
        assert_eq!(mem.read_u32(q.state, REAR), 2);
        assert_eq!(dec(mem.read_u32(q.slots, 0)), 5);
        assert_eq!(dec(mem.read_u32(q.slots, 1)), 6);
        assert_eq!(dec(mem.read_u32(q.slots, 2)), DNA);
        assert_eq!(q.host_len(&mem), 2);
    }

    /// Tokens stored over every queue of `queue`'s design.
    fn stored(queue: &DeviceQueue, mem: &DeviceMemory) -> u32 {
        let len = |state| mem.read_u32(state, REAR) - mem.read_u32(state, FRONT);
        match queue {
            DeviceQueue::Cas(q) => len(q.layout.state),
            DeviceQueue::Ticket(q) => match q.slots {
                Slots::Flat(flat) => len(flat.state),
                Slots::Segmented(lt) => len(lt.state),
            },
            DeviceQueue::PerCu(q) => q.layout.queues().iter().map(|q| len(q.state)).sum(),
        }
    }

    #[test]
    #[should_panic(expected = "dna sentinel")]
    fn host_seed_rejects_sentinel_token() {
        let mut mem = DeviceMemory::new();
        let q = QueueLayout::setup(&mut mem, "q", 4);
        q.host_seed(&mut mem, &[DNA]);
    }

    /// Wave 0 drives the queue words by hand; wave 1 is a real consumer.
    enum HandBack<Q: WaveQueue> {
        Driver { layout: QueueLayout, cycle: u32 },
        Consumer(Box<testutil::PumpKernel<Q>>),
    }

    impl<Q: WaveQueue> simt::WaveKernel for HandBack<Q> {
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
                    ctx.poke(layout.slots, slot as usize, enc(100 + slot));
                    ctx.atomic_add(layout.state, FRONT, 1);
                }
                // Four tokens arrive and stay.
                6 => {
                    let base = ctx.atomic_add(layout.state, REAR, 4);
                    for i in 0..4 {
                        ctx.poke(layout.slots, (base + i) as usize, enc(200 + i));
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

    /// The hand-back scenario on `variant`, whose consumer holds its
    /// queue handle as `wrap` makes it.
    fn hand_back_run<Q: WaveQueue>(
        variant: Variant,
        wrap: impl Fn(DeviceQueue) -> Q,
    ) -> simt::RunReport {
        use std::sync::{Arc, Mutex};
        let mut engine = simt::Engine::new(simt::GpuConfig::test_tiny());
        let shared = DeviceQueue::setup(engine.memory_mut(), Design::Shared(variant), 64, 1);
        let DeviceQueue::Cas(CasWaveQueue { layout, .. }) = shared else {
            panic!("{variant:?} is not a CAS design");
        };
        let pending = engine.memory_mut().alloc("pending", 1);
        engine.memory_mut().write_u32(pending, 0, 4);
        let consumed = Arc::new(Mutex::new(Vec::new()));
        let report = engine
            .run(simt::Launch::workgroups(2), |info| {
                if info.wave_id == 0 {
                    return HandBack::Driver { layout, cycle: 0 };
                }
                let queue = wrap(shared.wave_queue(info.cu));
                let pump =
                    testutil::PumpKernel::new(queue, info.wave_size, pending, &consumed, 0, 0);
                HandBack::Consumer(Box::new(pump))
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
            let parked = hand_back_run(variant, |queue| queue);
            let polled = hand_back_run(variant, testutil::NeverPark);
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
    fn every_design_is_composed_as_its_variant_claims() {
        let gpu = simt::GpuConfig::test_tiny();
        for design in Design::ALL {
            let queue = DeviceQueue::setup(&mut DeviceMemory::new(), design, 64, gpu.num_cus);
            // Per CU: an RF/AN ring each.
            let variant = match design {
                Design::Shared(variant) => variant,
                Design::PerCu => Variant::RfAn,
            };
            let (retry_free, width, segmented) = match &queue {
                DeviceQueue::Cas(q) => (false, q.width, false),
                DeviceQueue::Ticket(q) => (true, q.width, matches!(q.slots, Slots::Segmented(_))),
                DeviceQueue::PerCu(q) => {
                    assert_eq!(q.layout.queues().len(), gpu.num_cus);
                    (true, Width::PerWave, false)
                }
            };
            assert_eq!(retry_free, variant.is_retry_free(), "{design:?}");
            assert_eq!(
                width == Width::PerWave,
                variant.is_arbitrary_n(),
                "{design:?}"
            );
            assert_eq!(segmented, variant == Variant::SegRfAn, "{design:?}");
        }
    }

    #[test]
    fn every_design_accepts_a_seed_of_exactly_its_seed_capacity() {
        let gpu = simt::GpuConfig::test_tiny();
        for capacity in [64, 1_000] {
            for design in Design::ALL {
                let mut mem = DeviceMemory::new();
                let queue = DeviceQueue::setup(&mut mem, design, capacity, gpu.num_cus);
                let fits = design.seed_capacity(capacity);
                let tokens: Vec<u32> = (0..fits).collect();
                queue.host_seed(&mut mem, &tokens);
                assert_eq!(stored(&queue, &mem), fits, "{design:?} at {capacity}");
            }
        }
    }

    /// One wavefront on `queue`: every lane asks for work on the first
    /// cycle, each cycle polls and drops what arrived, and the last of
    /// `cycles` enqueues eight tokens.
    struct Drive<'q> {
        queue: &'q std::cell::RefCell<DeviceQueue>,
        lanes: Lanes,
        cycle: u32,
        cycles: u32,
    }

    impl simt::WaveKernel for Drive<'_> {
        fn work_cycle(&mut self, ctx: &mut WaveCtx<'_>) -> simt::WaveStatus {
            let mut queue = self.queue.borrow_mut();
            if self.cycle == 0 {
                self.lanes.request(self.lanes.idle());
            }
            queue.acquire(ctx, &mut self.lanes);
            while self.lanes.take_ready().is_some() {}
            self.cycle += 1;
            if self.cycle < self.cycles {
                return simt::WaveStatus::Active;
            }
            queue.enqueue(ctx, &[100, 101, 102, 103, 104, 105, 106, 107]);
            simt::WaveStatus::Done
        }
    }

    /// Runs `handle` as the one wavefront of a launch of `cycles` cycles
    /// on `engine`; returns the handle after it and what the launch
    /// charged.
    fn drive(
        engine: &mut simt::Engine,
        handle: DeviceQueue,
        cycles: u32,
    ) -> (DeviceQueue, simt::RunReport) {
        let queue = std::cell::RefCell::new(handle);
        let report = engine
            .run(simt::Launch::workgroups(1), |info| Drive {
                queue: &queue,
                lanes: Lanes::new(info.wave_size),
                cycle: 0,
                cycles,
            })
            .expect("drive failed");
        (queue.into_inner(), report)
    }

    #[test]
    fn wave_handles_share_no_state() {
        // CU 1's handles: a per-CU design finds the seeds on CU 0's ring.
        const CU: usize = 1;
        let gpu = simt::GpuConfig::test_tiny();
        let seeded = |design| {
            let mut engine = simt::Engine::new(gpu.clone());
            let queue = DeviceQueue::setup(engine.memory_mut(), design, 64, gpu.num_cus);
            queue.host_seed(engine.memory_mut(), &[1, 2]);
            (engine, queue)
        };
        for design in Design::ALL {
            // Two seeds for four hungry lanes, three cycles: CAS designs
            // stage both counter versions, ticket designs memoise an
            // arrival-free poll of the two lanes still monitoring, and a
            // stealing handle scans three times, leaving its cursor off
            // where it started. Then another wave takes tokens, so a stale
            // `front_seen` would be charged a retry storm.
            let (mut engine, queue) = seeded(design);
            let before = queue.wave_queue(CU);
            let (first, _) = drive(&mut engine, queue.wave_queue(CU), 3);
            let advanced = match &first {
                DeviceQueue::Cas(q) => q.front_seen.is_some() && q.rear_seen.is_some(),
                DeviceQueue::Ticket(q) => {
                    format!("{:?}", q.memo) != format!("{:?}", ticket::PollMemo::NONE)
                }
                DeviceQueue::PerCu(q) => q.next_victim != (CU + 1) % gpu.num_cus,
            };
            assert!(advanced, "{design:?}: the drive left no per-wave state");
            drive(&mut engine, queue.wave_queue(0), 1);
            // The second handle is a copy of the driven one.
            let second = first.wave_queue(CU);
            assert_eq!(format!("{second:?}"), format!("{before:?}"), "{design:?}");
            let (_, charged) = drive(&mut engine, second, 1);

            let (mut twin, queue) = seeded(design);
            let before = queue.wave_queue(CU);
            drive(&mut twin, queue.wave_queue(CU), 3);
            drive(&mut twin, queue.wave_queue(0), 1);
            let (_, expected) = drive(&mut twin, before, 1);
            assert_eq!(charged.metrics, expected.metrics, "{design:?}");
            assert_eq!(charged.per_cu_cycles, expected.per_cu_cycles, "{design:?}");
            assert_eq!(charged.seconds, expected.seconds, "{design:?}");
        }
    }

    #[test]
    fn a_per_cu_handle_reserves_from_its_own_cus_ring_first() {
        let gpu = simt::GpuConfig::test_tiny();
        for cu in 0..gpu.num_cus {
            let mut engine = simt::Engine::new(gpu.clone());
            let mem = engine.memory_mut();
            let queue = DeviceQueue::setup(mem, Design::PerCu, 64, gpu.num_cus);
            let DeviceQueue::PerCu(stealing) = &queue else {
                unreachable!("a per-CU design");
            };
            let rings = stealing.layout.queues().to_vec();
            for (i, ring) in rings.iter().enumerate() {
                ring.host_seed(mem, &[10 * i as u32, 10 * i as u32 + 1]);
            }
            drive(&mut engine, queue.wave_queue(cu), 1);
            let mem = engine.memory();
            for (i, ring) in rings.iter().enumerate() {
                let front = mem.read_u32(ring.state, FRONT);
                assert_eq!(
                    front,
                    if i == cu { 2 } else { 0 },
                    "CU {cu}'s handle, ring {i}"
                );
            }
        }
    }
}
