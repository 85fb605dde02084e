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
mod rfan;
mod rfonly;
mod segmented;
mod stealing;

pub use an::AnWaveQueue;
pub use base::BaseWaveQueue;
pub use rfan::RfAnWaveQueue;
pub use rfonly::RfOnlyWaveQueue;
pub use segmented::{SegmentedLayout, SegmentedWaveQueue};
pub use stealing::{StealingLayout, StealingWaveQueue};

use crate::{Variant, DNA};
use simt::{Buffer, DeviceMemory, WaveCtx};

/// Index of `Front` in the queue state buffer.
pub const FRONT: usize = 0;
/// Index of `Rear` in the queue state buffer.
pub const REAR: usize = 1;

/// Dequeue-side state of one lane.
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
pub trait WaveQueue {
    /// Which design this is.
    fn variant(&self) -> Variant;

    /// Services the dequeue side for one work cycle: tries to move
    /// `Hungry` lanes toward `Ready` (directly for the CAS designs, via
    /// `Monitoring` + data-arrival polling for RF/AN). Lanes the queue
    /// cannot feed this cycle stay `Hungry`/`Monitoring` and are counted
    /// as retries where the design retries.
    fn acquire(&mut self, ctx: &mut WaveCtx<'_>, lanes: &mut [LanePhase]);

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
    /// watch the stale value of every monitored in-bounds slot
    /// (`WaveCtx::park_until_changed`), the CAS designs watch "still
    /// empty" over `Rear`/`Front` (`WaveCtx::park_while_empty`). Kernels
    /// combine this with their own watches (e.g. "pending still
    /// non-zero") to let the engine skip the idle long tail cycle-exactly.
    /// Designs whose idle cycle is not invariant (steal scans) keep the
    /// default `false` for it and simply never park there.
    fn register_idle_watches(&self, ctx: &mut WaveCtx<'_>, lanes: &[LanePhase]) -> bool {
        let _ = (ctx, lanes);
        false
    }
}

/// Charges one lock-step data-arrival poll (paper Listing 2) of the
/// `watched` slot addresses in `slots`, sorting them first.
///
/// A wavefront's monitored slots are consecutive (they came from batched
/// reservations), so the poll coalesces into one memory transaction per
/// cache line. Lines still holding only sentinels are cache-resident
/// (nobody wrote them): polling costs issue but no DRAM bandwidth. Lines
/// where data has arrived were invalidated by the producer's write and pay
/// the full transaction.
pub(crate) fn charge_sentinel_poll(ctx: &mut WaveCtx<'_>, slots: Buffer, watched: &mut [u32]) {
    watched.sort_unstable();
    let mut cached_lines = 0u64;
    let mut i = 0;
    while i < watched.len() {
        let line = watched[i] / 16;
        let mut any_data = false;
        let run_start = i;
        while i < watched.len() && watched[i] / 16 == line {
            if ctx.peek_stale(slots, watched[i] as usize) != DNA {
                any_data = true;
            }
            i += 1;
        }
        if any_data {
            let start = watched[run_start] as usize;
            let len = (watched[i - 1] - watched[run_start] + 1) as usize;
            ctx.charge_coalesced_access(slots, start, len);
        } else {
            cached_lines += 1;
        }
    }
    ctx.charge_cached_access(cached_lines);
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
pub(crate) mod testutil {
    //! Shared harness: a producer/consumer kernel that pushes a fixed
    //! token stream through a queue variant and records what comes out.

    use super::*;
    use simt::{Engine, GpuConfig, Launch, WaveKernel, WaveStatus};
    use std::sync::{Arc, Mutex};

    /// Kernel: each wavefront dequeues tokens; every token `t` with
    /// `t < fanout_until` enqueues `children` child tokens derived from
    /// it. Records every consumed token. Terminates via a pending-task
    /// counter exactly like the persistent-thread driver.
    pub struct PumpKernel {
        pub queue: Box<dyn WaveQueue>,
        pub lanes: Vec<LanePhase>,
        pub pending: Buffer,
        pub consumed: Arc<Mutex<Vec<u32>>>,
        pub fanout_until: u32,
        pub children: u32,
        pub outbox: Vec<u32>,
        pub completed: u32,
    }

    impl WaveKernel for PumpKernel {
        fn work_cycle(&mut self, ctx: &mut WaveCtx<'_>) -> WaveStatus {
            // Mark idle lanes hungry.
            for l in self.lanes.iter_mut() {
                if *l == LanePhase::Idle {
                    *l = LanePhase::Hungry;
                }
            }
            self.queue.acquire(ctx, &mut self.lanes);
            // Work phase: consume ready tokens, discover children.
            for l in self.lanes.iter_mut() {
                if let LanePhase::Ready(tok) = *l {
                    self.consumed.lock().unwrap().push(tok);
                    if tok < self.fanout_until {
                        for c in 0..self.children {
                            self.outbox.push(tok * self.children + c + 1_000);
                        }
                    }
                    self.completed += 1;
                    *l = LanePhase::Idle;
                }
            }
            // Enqueue discoveries (pending += accepted).
            if !self.outbox.is_empty() {
                let accepted = self.queue.enqueue(ctx, &self.outbox);
                if accepted > 0 {
                    ctx.atomic_add(self.pending, 0, accepted as u32);
                    self.outbox.drain(..accepted);
                }
            }
            // Retire completions (batched, one atomic).
            if self.completed > 0 {
                ctx.atomic_sub(self.pending, 0, self.completed);
                self.completed = 0;
            }
            // Termination: no tasks in flight anywhere.
            let pending = ctx.global_read(self.pending, 0);
            if pending == 0 && self.outbox.is_empty() {
                return WaveStatus::Done;
            }
            // Idle: park like the persistent-thread driver does.
            if self.outbox.is_empty() && self.queue.register_idle_watches(ctx, &self.lanes) {
                ctx.park_while_nonzero(self.pending, 0);
            }
            WaveStatus::Active
        }
    }

    /// Test-only adapter: the wrapped queue, except that it never offers
    /// park watches — the "polls every round" twin of a parking run.
    pub struct NeverPark(pub Box<dyn WaveQueue>);

    impl WaveQueue for NeverPark {
        fn variant(&self) -> Variant {
            self.0.variant()
        }
        fn acquire(&mut self, ctx: &mut WaveCtx<'_>, lanes: &mut [LanePhase]) {
            self.0.acquire(ctx, lanes)
        }
        fn enqueue(&mut self, ctx: &mut WaveCtx<'_>, tokens: &[u32]) -> usize {
            self.0.enqueue(ctx, tokens)
        }
        fn register_idle_watches(&self, _: &mut WaveCtx<'_>, _: &[LanePhase]) -> bool {
            false
        }
    }

    /// Pushes `seeds` through `variant` with `wgs` workgroups; returns the
    /// sorted consumed tokens and the run metrics.
    pub fn pump(
        variant: Variant,
        seeds: &[u32],
        fanout_until: u32,
        children: u32,
        wgs: usize,
        capacity: u32,
    ) -> (Vec<u32>, simt::Metrics) {
        let mut engine = Engine::new(GpuConfig::test_tiny());
        let layout = QueueLayout::setup(engine.memory_mut(), "q", capacity);
        let pending = engine.memory_mut().alloc("pending", 1);
        layout.host_seed(engine.memory_mut(), seeds);
        engine
            .memory_mut()
            .write_u32(pending, 0, seeds.len() as u32);
        let consumed = Arc::new(Mutex::new(Vec::new()));
        let wave_size = engine.config().wave_size;
        let report = engine
            .run(
                Launch::workgroups(wgs)
                    .with_max_rounds(2_000_000)
                    .with_audit(),
                |_info| PumpKernel {
                    queue: make_wave_queue(variant, layout),
                    lanes: vec![LanePhase::Idle; wave_size],
                    pending,
                    consumed: Arc::clone(&consumed),
                    fanout_until,
                    children,
                    outbox: Vec::new(),
                    completed: 0,
                },
            )
            .expect("pump kernel failed");
        let mut out = consumed.lock().unwrap().clone();
        out.sort_unstable();
        (out, report.metrics)
    }

    /// The token multiset a pump run must consume: seeds plus one child
    /// generation per seed below `fanout_until`.
    pub fn expected_tokens(seeds: &[u32], fanout_until: u32, children: u32) -> Vec<u32> {
        let mut expect: Vec<u32> = seeds.to_vec();
        for &s in seeds {
            if s < fanout_until {
                for c in 0..children {
                    expect.push(s * children + c + 1_000);
                }
            }
        }
        expect.sort_unstable();
        expect
    }
}

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
        Consumer(testutil::PumpKernel),
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
                HandBack::Consumer(testutil::PumpKernel {
                    queue: if park {
                        queue
                    } else {
                        Box::new(testutil::NeverPark(queue))
                    },
                    lanes: vec![LanePhase::Idle; info.wave_size],
                    pending,
                    consumed: Arc::clone(&consumed),
                    fanout_until: 0,
                    children: 0,
                    outbox: Vec::new(),
                    completed: 0,
                })
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

    #[test]
    fn make_wave_queue_dispatches() {
        let mut mem = DeviceMemory::new();
        let layout = QueueLayout::setup(&mut mem, "q", 4);
        for v in Variant::MATRIX {
            assert_eq!(make_wave_queue(v, layout).variant(), v);
        }
    }
}
