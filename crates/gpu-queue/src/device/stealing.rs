//! Distributed queues with work stealing — the Tzeng-style alternative
//! the paper's related work discusses (§2.1: "from a single monolithic
//! task queue to distributed queuing with task stealing and donation").
//!
//! Instead of one device-wide queue, every *compute unit* owns a private
//! RF/AN-style queue (AFA + sentinel, so the local fast path is
//! retry-free). A wavefront dequeues from its home queue; when the home
//! queue looks empty it *steals* a batch from a victim CU's queue chosen
//! round-robin. Enqueues go to the home queue.
//!
//! Trade-offs versus the paper's single queue, observable in the
//! ablation (`repro ablate-stealing` measures both):
//!
//! * hot-word pressure drops by the CU count — each home counter is only
//!   shared by that CU's wavefronts plus occasional thieves;
//! * but load imbalance appears (a hub's children land on one CU) and
//!   stealing adds latency, cross-CU traffic, and *failed steal attempts*
//!   that behave like queue-empty retries.
//!
//! Stealing uses the same non-failing AFA reservation as the local path,
//! but bounded by the *visible backlog* of the chosen queue, so a ticket
//! almost always corresponds to a real token. Every reserved ticket stays
//! monitored until it fills or the kernel terminates — the sentinel
//! protocol's conservation invariant (no ticket, and hence no token, is
//! ever abandoned) holds across queues. A scan that finds no backlog
//! anywhere is the distributed design's queue-empty exception.

use super::{bits, rfan, Lanes, QueueLayout, WaveQueue, FRONT, REAR};
use crate::DNA;
use simt::{DeviceMemory, OpSpec, WaveCtx};

/// Host-side handle to one queue per compute unit.
#[derive(Clone, Debug)]
pub struct StealingLayout {
    queues: Vec<QueueLayout>,
}

/// A monitoring lane's ticket packs `(queue, slot)` into one `u32`: the
/// slot in this many low bits, the queue id in the bits above.
const SLOT_BITS: u32 = 24;
/// Most slots one per-CU queue can have.
pub(super) const MAX_CAPACITY: u32 = 1 << SLOT_BITS;

impl StealingLayout {
    /// Allocates `num_cus` per-CU queues, each with `capacity` slots.
    ///
    /// # Panics
    /// Panics if `capacity` exceeds 2^24 slots or `num_cus` 256 queues:
    /// `(queue, slot)` pairs would alias in a lane's ticket.
    pub fn setup(memory: &mut DeviceMemory, name: &str, num_cus: usize, capacity: u32) -> Self {
        assert!(
            capacity <= MAX_CAPACITY,
            "per-CU capacity {capacity} exceeds the ticket's {SLOT_BITS} slot bits"
        );
        assert!(
            num_cus <= 1 << (32 - SLOT_BITS),
            "{num_cus} per-CU queues exceed the ticket's queue-id bits"
        );
        let queues = (0..num_cus)
            .map(|cu| QueueLayout::setup(memory, &format!("{name}.cu{cu}"), capacity))
            .collect();
        StealingLayout { queues }
    }

    /// Seeds initial tokens into CU 0's queue (the workload's seeds).
    pub fn host_seed(&self, memory: &mut DeviceMemory, tokens: &[u32]) {
        self.queues[0].host_seed(memory, tokens);
    }

    /// The per-CU layouts.
    pub fn queues(&self) -> &[QueueLayout] {
        &self.queues
    }
}

/// Tokens a thief reserves from a victim per attempt.
const STEAL_BATCH: u32 = 16;

/// One wavefront's view of the distributed queues.
#[derive(Clone, Debug)]
pub struct StealingWaveQueue {
    pub(super) layout: StealingLayout,
    home: usize,
    /// Next victim (rotates per steal attempt).
    pub(super) next_victim: usize,
}

impl StealingWaveQueue {
    /// Creates the handle for a wavefront resident on CU `home`.
    pub(super) fn new(layout: StealingLayout, home: usize) -> Self {
        assert!(home < layout.queues.len(), "home CU out of range");
        StealingWaveQueue {
            next_victim: (home + 1) % layout.queues.len().max(1),
            layout,
            home,
        }
    }

    /// Packs (queue, slot) into the ticket a lane monitors
    /// ([`StealingLayout::setup`] refuses layouts that would not fit).
    fn pack(queue: usize, slot: u32) -> u32 {
        debug_assert!(slot < MAX_CAPACITY, "slot exceeds pack width");
        ((queue as u32) << SLOT_BITS) | slot
    }

    fn unpack(packed: u32) -> (usize, u32) {
        ((packed >> SLOT_BITS) as usize, packed & (MAX_CAPACITY - 1))
    }
}

impl WaveQueue for StealingWaveQueue {
    fn acquire(&mut self, ctx: &mut WaveCtx<'_>, lanes: &mut Lanes) {
        // Hungry lanes reserve from the first queue with *visible*
        // backlog: home first, then victims in rotation. Reservations are
        // bounded by the visible backlog, so lanes rarely camp on slots
        // that will never fill (it can still happen when two thieves race
        // for the same backlog — those lanes wait out the run, which the
        // termination counter makes safe).
        let hungry = lanes.hungry().count_ones();
        // Locally retry-free: never a CAS; one AFA iff the scan found
        // backlog (declared below); a failed scan counts empty retries.
        ctx.audit_begin(OpSpec::new("stealing", "acquire").allow_empty_retries());
        if hungry > 0 {
            ctx.charge_alu(1);
            ctx.lds_atomics(u64::from(hungry));
            let backlog = |ctx: &mut WaveCtx<'_>, layout: QueueLayout| -> u32 {
                let front = ctx.global_read(layout.state, FRONT);
                let rear = ctx.global_read_stale(layout.state, REAR);
                rear.saturating_sub(front)
            };
            let mut target = None;
            let home_backlog = backlog(ctx, self.layout.queues[self.home]);
            if home_backlog > 0 {
                target = Some((self.home, home_backlog));
            } else {
                for _ in 0..self.layout.queues.len().saturating_sub(1) {
                    let victim = self.next_victim;
                    self.next_victim = (self.next_victim + 1) % self.layout.queues.len();
                    if victim == self.home {
                        continue;
                    }
                    let b = backlog(ctx, self.layout.queues[victim]);
                    if b > 0 {
                        target = Some((victim, b));
                        break;
                    }
                }
            }
            match target {
                Some((q, b)) => {
                    let cap = if q == self.home {
                        u32::MAX
                    } else {
                        STEAL_BATCH
                    };
                    let n = hungry.min(b).min(cap);
                    // A single proxy AFA, as on a shared ring.
                    ctx.audit_expect_afa(1);
                    let base = ctx.atomic_add(self.layout.queues[q].state, FRONT, n);
                    ctx.count_scheduler_atomics(1);
                    for (lane, slot) in bits(lanes.hungry()).zip(base..base + n) {
                        lanes.monitor(lane, Self::pack(q, slot));
                    }
                    if hungry > n {
                        ctx.count_queue_empty_retries(u64::from(hungry - n));
                    }
                }
                None => {
                    // Nothing visible anywhere: a failed steal scan is the
                    // distributed design's version of the queue-empty
                    // exception — the lanes retry next work cycle.
                    ctx.count_queue_empty_retries(u64::from(hungry));
                }
            }
        }

        // Poll monitored slots.
        for lane in bits(lanes.monitoring()) {
            let (q, slot) = Self::unpack(lanes.ticket(lane));
            let layout = &self.layout.queues[q];
            ctx.charge_alu(1);
            if slot < layout.capacity {
                let value = ctx.global_read_lane_stale(layout.slots, slot as usize);
                if value != DNA {
                    ctx.poke(layout.slots, slot as usize, DNA);
                    lanes.deliver(lane, value);
                }
            }
        }
        ctx.audit_end();
    }

    fn register_idle_watches(&self, ctx: &mut WaveCtx<'_>, lanes: &Lanes) -> bool {
        // Parkable only when *every* lane camps on a monitored ticket: a
        // Hungry lane would run the steal scan next cycle, which advances
        // the victim rotation and reads a different set of counters —
        // not an invariant cycle. All-monitoring cycles skip the scan
        // entirely and are a pure stale poll of the monitored slots.
        if !lanes.all_monitoring() {
            return false;
        }
        for lane in bits(lanes.monitoring()) {
            let (q, slot) = Self::unpack(lanes.ticket(lane));
            let layout = &self.layout.queues[q];
            if slot < layout.capacity {
                ctx.park_until_changed(layout.slots, slot as usize);
            }
        }
        true
    }

    fn enqueue(&mut self, ctx: &mut WaveCtx<'_>, tokens: &[u32]) -> usize {
        if tokens.is_empty() {
            return 0;
        }
        rfan::publish(ctx, "stealing", &self.layout.queues[self.home], tokens)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pack_roundtrip() {
        for (q, s) in [(0usize, 0u32), (3, 12345), (255, (1 << 24) - 1)] {
            assert_eq!(
                StealingWaveQueue::unpack(StealingWaveQueue::pack(q, s)),
                (q, s)
            );
        }
    }

    #[test]
    fn setup_allocates_one_queue_per_cu() {
        let mut mem = DeviceMemory::new();
        let layout = StealingLayout::setup(&mut mem, "dq", 4, 32);
        assert_eq!(layout.queues().len(), 4);
        layout.host_seed(&mut mem, &[1, 2, 3]);
        assert_eq!(layout.queues()[0].host_len(&mem), 3);
        assert_eq!(layout.queues()[1].host_len(&mem), 0);
    }

    #[test]
    #[should_panic(expected = "exceeds the ticket's 24 slot bits")]
    fn setup_refuses_a_capacity_past_the_slot_bits() {
        StealingLayout::setup(&mut DeviceMemory::new(), "dq", 0, (1 << 24) + 1);
    }

    #[test]
    #[should_panic(expected = "257 per-CU queues exceed the ticket's queue-id bits")]
    fn setup_refuses_more_queues_than_queue_id_bits() {
        StealingLayout::setup(&mut DeviceMemory::new(), "dq", 257, 0);
    }

    #[test]
    #[should_panic(expected = "home CU out of range")]
    fn home_cu_checked() {
        let mut mem = DeviceMemory::new();
        let layout = StealingLayout::setup(&mut mem, "dq", 2, 8);
        let _ = StealingWaveQueue::new(layout, 5);
    }
}
