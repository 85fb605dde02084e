//! Shared harness: a producer/consumer kernel that pushes a fixed
//! token stream through a queue variant and records what comes out — and
//! the reading data-arrival poll the closed-form [`poll`] replaced, kept
//! as the oracle it is compared against.

use super::segmented::retire;
use super::ticket::Slots;
use super::*;
use simt::{Engine, GpuConfig, Launch, RunReport, WaveKernel, WaveStatus, MAX_WAVE_SIZE};
use std::sync::{Arc, Mutex};

/// Kernel: each wavefront dequeues tokens; every token `t` with
/// `t < fanout_until` enqueues `children` child tokens derived from
/// it. Records every consumed token. Terminates via a pending-task
/// counter exactly like the persistent-thread driver.
pub struct PumpKernel<Q: WaveQueue = DeviceQueue> {
    queue: Q,
    lanes: Lanes,
    pending: Buffer,
    consumed: Arc<Mutex<Vec<u32>>>,
    fanout_until: u32,
    children: u32,
    outbox: Vec<u32>,
    completed: u32,
}

impl<Q: WaveQueue> PumpKernel<Q> {
    /// A wavefront of `wave_size` lanes on `queue`, counting tasks in
    /// flight in `pending[0]` and recording what it consumes.
    pub fn new(
        queue: Q,
        wave_size: usize,
        pending: Buffer,
        consumed: &Arc<Mutex<Vec<u32>>>,
        fanout_until: u32,
        children: u32,
    ) -> Self {
        PumpKernel {
            queue,
            lanes: Lanes::new(wave_size),
            pending,
            consumed: Arc::clone(consumed),
            fanout_until,
            children,
            outbox: Vec::new(),
            completed: 0,
        }
    }
}

impl<Q: WaveQueue> WaveKernel for PumpKernel<Q> {
    fn work_cycle(&mut self, ctx: &mut WaveCtx<'_>) -> WaveStatus {
        // Mark idle lanes hungry.
        self.lanes.request(self.lanes.idle());
        self.queue.acquire(ctx, &mut self.lanes);
        // Work phase: consume ready tokens, discover children.
        while let Some((_, tok)) = self.lanes.take_ready() {
            self.consumed.lock().unwrap().push(tok);
            if tok < self.fanout_until {
                for c in 0..self.children {
                    self.outbox.push(tok * self.children + c + 1_000);
                }
            }
            self.completed += 1;
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
pub struct NeverPark<Q: WaveQueue>(pub Q);

impl<Q: WaveQueue> WaveQueue for NeverPark<Q> {
    fn acquire(&mut self, ctx: &mut WaveCtx<'_>, lanes: &mut Lanes) {
        self.0.acquire(ctx, lanes)
    }
    fn enqueue(&mut self, ctx: &mut WaveCtx<'_>, tokens: &[u32]) -> usize {
        self.0.enqueue(ctx, tokens)
    }
    fn register_idle_watches(&self, _: &mut WaveCtx<'_>, _: &Lanes) -> bool {
        false
    }
}

/// Charges one lock-step data-arrival poll (paper Listing 2) of the
/// `watched` slot addresses in `slots`, sorting them first: one memory
/// transaction per cache line — cache-resident while the line holds only
/// sentinels, the full transaction where data has arrived.
fn charge_sentinel_poll(ctx: &mut WaveCtx<'_>, slots: Buffer, watched: &mut [u32]) {
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

/// The data-arrival poll as the three sentinel designs executed it before
/// [`poll`]: read every monitored slot (SEG: through a per-lane read of
/// its directory word) through the stale view, twice. The oracle.
pub fn reading_poll(
    ctx: &mut WaveCtx<'_>,
    lanes: &mut Lanes,
    slots: &Slots,
    mut picked: impl FnMut(u32),
) {
    let mut watched: Vec<u32> = Vec::new();
    match slots {
        Slots::Flat(q) => {
            let tickets = bits(lanes.monitoring()).map(|lane| lanes.ticket(lane));
            watched.extend(tickets.filter(|&t| t < q.capacity));
            charge_sentinel_poll(ctx, q.slots, &mut watched);
            for lane in bits(lanes.monitoring()) {
                let slot = lanes.ticket(lane);
                ctx.charge_alu(1); // bounds check
                if slot < q.capacity {
                    let value = ctx.peek_stale(q.slots, slot as usize);
                    if value != DNA {
                        ctx.poke(q.slots, slot as usize, DNA);
                        picked(slot);
                        lanes.deliver(lane, value);
                    }
                }
            }
        }
        Slots::Segmented(lt) => {
            let mut probed = 0u64;
            let mut dir_lines = 0u64;
            for lane in bits(lanes.monitoring()) {
                let slot = lanes.ticket(lane);
                let seg = slot / lt.seg_cap;
                let r = lt.ring_slot(seg);
                let line_bit = 1u64 << (r / 16);
                if probed & line_bit == 0 {
                    dir_lines += 1;
                }
                probed |= line_bit;
                let entry = ctx.peek_stale(lt.dir, r);
                if let Some(phys) = lt.decode(entry, seg) {
                    watched.push(lt.arena_addr(phys, slot) as u32);
                }
            }
            ctx.charge_cached_access(dir_lines);
            charge_sentinel_poll(ctx, lt.slots, &mut watched);
            for lane in bits(lanes.monitoring()) {
                let slot = lanes.ticket(lane);
                ctx.charge_alu(1); // segment-mapping check
                let seg = slot / lt.seg_cap;
                let entry = ctx.peek_stale(lt.dir, lt.ring_slot(seg));
                if let Some(phys) = lt.decode(entry, seg) {
                    let addr = lt.arena_addr(phys, slot);
                    let value = ctx.peek_stale(lt.slots, addr);
                    if value != DNA {
                        ctx.poke(lt.slots, addr, DNA);
                        picked(slot);
                        lanes.deliver(lane, value);
                    }
                }
            }
        }
    }
}

/// The park registration that went with [`reading_poll`]: a *same stale
/// value* watch on every word it read.
fn reading_park(ctx: &mut WaveCtx<'_>, lanes: &Lanes, slots: &Slots) -> bool {
    if !lanes.all_monitoring() {
        return false;
    }
    let mut parked = 0u64;
    for slot in bits(lanes.monitoring()).map(|lane| lanes.ticket(lane)) {
        match slots {
            Slots::Flat(q) if slot < q.capacity => ctx.park_until_changed(q.slots, slot as usize),
            Slots::Flat(_) => {}
            Slots::Segmented(lt) => {
                let seg = slot / lt.seg_cap;
                let r = lt.ring_slot(seg);
                if parked & (1 << r) == 0 {
                    parked |= 1 << r;
                    ctx.park_until_changed(lt.dir, r);
                }
                let entry = ctx.peek_stale(lt.dir, r);
                if let Some(phys) = lt.decode(entry, seg) {
                    ctx.park_until_changed(lt.slots, lt.arena_addr(phys, slot));
                }
            }
        }
    }
    true
}

/// A ticket design with [`reading_poll`] and its per-word park watches
/// in place of [`poll`] and the `Rear` watch; reservation, retirement and
/// enqueue are the product's own.
pub struct Reading(TicketWaveQueue);

impl WaveQueue for Reading {
    fn acquire(&mut self, ctx: &mut WaveCtx<'_>, lanes: &mut Lanes) {
        let afa = self.0.reserve(ctx, lanes);
        match &self.0.slots {
            slots @ Slots::Flat(_) => {
                reading_poll(ctx, lanes, slots, |_| {});
                ctx.audit_end();
            }
            slots @ Slots::Segmented(lt) => {
                let mut pickups = [0; MAX_WAVE_SIZE];
                reading_poll(ctx, lanes, slots, |ticket| {
                    pickups[lt.ring_slot(ticket / lt.seg_cap)] += 1
                });
                retire(ctx, lt, &pickups, afa);
            }
        }
    }

    fn enqueue(&mut self, ctx: &mut WaveCtx<'_>, tokens: &[u32]) -> usize {
        self.0.enqueue(ctx, tokens)
    }

    fn register_idle_watches(&self, ctx: &mut WaveCtx<'_>, lanes: &Lanes) -> bool {
        reading_park(ctx, lanes, &self.0.slots)
    }
}

/// SEG-RF/AN over a segmented queue of explicit geometry (the face sizes
/// one from a nominal capacity).
pub fn over_segments(layout: SegmentedLayout) -> DeviceQueue {
    DeviceQueue::Ticket(TicketWaveQueue::new(
        Slots::Segmented(layout),
        Width::PerWave,
    ))
}

/// Which queue a [`pump_through`] run drives.
#[derive(Clone, Copy, Debug)]
pub enum Shape {
    /// A shared queue of this variant and nominal capacity.
    Bounded(Variant, u32),
    /// SEG-RF/AN over `phys_segs` segments of `seg_cap` slots.
    Segmented { seg_cap: u32, phys_segs: u32 },
}

/// Seeds a fresh queue of shape `shape` with each batch of `seeds` in
/// turn (a resumed launch seeds a whole frontier), pumps it with `wgs`
/// workgroups on `gpu` through the closed-form poll or — `reading` — the
/// oracle, and returns the report and the tokens in delivery order.
pub fn pump_through(
    gpu: &GpuConfig,
    shape: Shape,
    reading: bool,
    seeds: &[&[u32]],
    fanout_until: u32,
    children: u32,
    wgs: usize,
) -> (RunReport, Vec<u32>) {
    let mut engine = Engine::new(gpu.clone());
    let mem = engine.memory_mut();
    let queue = match shape {
        Shape::Bounded(variant, capacity) => {
            DeviceQueue::setup(mem, Design::Shared(variant), capacity, gpu.num_cus)
        }
        Shape::Segmented { seg_cap, phys_segs } => {
            over_segments(SegmentedLayout::setup(mem, "q", seg_cap, phys_segs))
        }
    };
    seeds.iter().for_each(|batch| queue.host_seed(mem, batch));
    let pending = mem.alloc("pending", 1);
    mem.write_u32(
        pending,
        0,
        seeds.iter().map(|batch| batch.len() as u32).sum(),
    );
    let consumed = Arc::new(Mutex::new(Vec::new()));
    let launch = Launch::workgroups(wgs).with_max_rounds(2_000_000);
    let report = match &queue {
        DeviceQueue::Ticket(q) if reading => engine.run(launch, |info| {
            let reading = Reading(TicketWaveQueue::new(q.slots, q.width));
            PumpKernel::new(
                reading,
                info.wave_size,
                pending,
                &consumed,
                fanout_until,
                children,
            )
        }),
        _ if reading => panic!("{shape:?} has no data-arrival poll"),
        _ => engine.run(launch, |info| {
            let queue = queue.wave_queue(info.cu);
            PumpKernel::new(
                queue,
                info.wave_size,
                pending,
                &consumed,
                fanout_until,
                children,
            )
        }),
    }
    .expect("pump kernel failed");
    let delivered = consumed.lock().unwrap().clone();
    (report, delivered)
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
    let shape = Shape::Bounded(variant, capacity);
    let gpu = GpuConfig::test_tiny();
    let (report, mut out) = pump_through(&gpu, shape, false, &[seeds], fanout_until, children, wgs);
    out.sort_unstable();
    (out, report.metrics)
}

/// The token multiset a pump run must consume: the seeds and, for every
/// token below `fanout_until`, its `children` child tokens in turn.
pub fn expected_tokens(seeds: &[u32], fanout_until: u32, children: u32) -> Vec<u32> {
    let mut expect: Vec<u32> = seeds.to_vec();
    let mut next = 0;
    while next < expect.len() {
        let t = expect[next];
        next += 1;
        if t < fanout_until {
            expect.extend((0..children).map(|c| t * children + c + 1_000));
        }
    }
    expect.sort_unstable();
    expect
}
