//! The generic persistent-thread kernel.
//!
//! Structure follows the paper's Algorithm 1 exactly — every work cycle:
//!
//! 1. hungry lanes request task tokens from the scheduler queue
//!    (`GetWorkToken`, variant-specific),
//! 2. lanes holding a token process up to [`CHUNK`] of its out-edges
//!    (`DoWorkUnit` — "work cycles of 4 sub-tasks works well", §3.3),
//!    offering each child the candidate the [`PtWorkload`] derived for
//!    the token (plus the edge's weight, for a weighted workload),
//! 3. newly discovered tokens are enqueued
//!    (`ScheduleNewlyDiscoveredWorkTokens`),
//! 4. the wavefront checks the global outstanding-task counter
//!    (`WorkRemains`).
//!
//! Child discovery claims the vertex's value word with a directed atomic
//! (min or max per the workload's [`Claim`] — an AFA-class operation
//! that never retries and is identical across queue variants, so the
//! queue comparison stays clean). A child is enqueued iff the claim
//! strictly improved its value *and* the vertex is not already queued (a
//! per-vertex on-queue bit claimed with an atomic exchange — the classic
//! label-correcting worklist discipline). If an out-of-order race
//! publishes a worse value first, a later improvement re-enqueues the
//! vertex, so the final values always equal the workload's sequential
//! fixed point; the on-queue bit bounds total enqueues near `|V|` per
//! improvement wave.
//!
//! Lanes whose discoveries have not yet been accepted by the queue stall
//! (real kernels hold discoveries in scarce registers/local memory):
//! while the outbox is backlogged the wavefront neither requests new
//! work nor expands edges, it just keeps offering the backlog.

use crate::workload::{Claim, PtWorkload, WorkBuffers};
use gpu_queue::device::{bits, DeviceQueue, Lanes, WaveQueue};
use simt::{Buffer, WaveCtx, WaveKernel, WaveStatus, MAX_WAVE_SIZE};

/// Uniform sub-tasks (edges) per lane per work cycle — paper §3.3.
pub const CHUNK: u32 = 4;

/// Optional frontier fence for checkpoint/resume epochs (see
/// `crate::recovery`). Discoveries claimed *past* `depth` — deeper than
/// the fence value, for min-directed workloads — still claim normally
/// (value atomic + on-queue bit), but instead of entering the scheduler
/// queue they are appended to the `spill` buffer (`spill[0]` = atomic
/// cursor, `spill[1..]` = spilled tokens). The launch then terminates at
/// a frontier boundary — `pending == 0` with every vertex at value ≤
/// `depth` fully expanded — which is exactly the point where a host
/// checkpoint contains no partially-expanded state.
#[derive(Clone, Copy, Debug)]
pub struct SpillFence {
    /// Largest claim value scheduled through the queue this epoch (BFS
    /// levels, SSSP distances, …).
    pub depth: u32,
    /// Spill buffer: one cursor word followed by up to `n` tokens.
    pub spill: Buffer,
}

/// The emission half of a work cycle: claims a child's value word in
/// the workload's [`Claim`] direction and routes each *winning* claim to
/// the wavefront outbox (or, past an epoch fence, to the spill buffer).
///
/// Offers are linearized by the claim atomic itself: exactly one of the
/// concurrent offers for a child observes the improving transition, and
/// only the offer that then flips the on-queue bit 0→1 emits a token —
/// so a child is scheduled at most once per improvement, under any
/// interleaving.
struct TokenSink<'a> {
    claim: Claim,
    values: Buffer,
    inqueue: Buffer,
    fence: Option<SpillFence>,
    outbox: &'a mut Vec<u32>,
    /// Query-id tag of the token being expanded: `token - token_row(token)`
    /// (see [`PtWorkload::token_row`]). Offered children are raw CSR rows;
    /// the sink re-tags them with the same query id before touching
    /// per-query state, so the walk stays batch-oblivious. Zero for every
    /// solo (non-batched) workload.
    base: u32,
}

impl TokenSink<'_> {
    /// Offers `candidate` as `child`'s new value. Claims the value word
    /// with the workload's directed atomic; on a strict improvement,
    /// claims the on-queue bit and emits the token (outbox or spill).
    /// `child` is a CSR row; in a batched launch the parent token's
    /// query-id tag carries over to the emitted token.
    // `always`: the per-edge call (one site, in `work_cycle`) survived
    // the plain hint; the cold spill path stays out of line.
    #[inline(always)]
    fn offer(&mut self, ctx: &mut WaveCtx<'_>, child: u32, candidate: u32) {
        let token = self.base + child;
        let old = match self.claim {
            Claim::Min => ctx.atomic_min(self.values, token as usize, candidate),
            Claim::Max => ctx.atomic_max(self.values, token as usize, candidate),
        };
        let improved = match self.claim {
            Claim::Min => old > candidate,
            Claim::Max => old < candidate,
        };
        if !improved {
            return;
        }
        // Improving discovery: schedule it unless it is already sitting
        // in the queue.
        let was = ctx.atomic_exchange(self.inqueue, token as usize, 1);
        if was != 0 {
            return;
        }
        match self.fence {
            // Beyond the epoch fence (min-directed workloads only: the
            // fence is a ceiling on the monotonically growing claim
            // value): park the claimed token in the spill buffer for the
            // next launch to seed from.
            Some(f) if self.claim == Claim::Min && candidate > f.depth => spill(ctx, f, token),
            _ => self.outbox.push(token),
        }
    }
}

/// Appends `token` to the fence's spill buffer: off the per-edge path,
/// which it would otherwise bloat past inlining.
#[cold]
#[inline(never)]
fn spill(ctx: &mut WaveCtx<'_>, fence: SpillFence, token: u32) {
    let at = ctx.atomic_add(fence.spill, 0, 1);
    ctx.global_write_lane(fence.spill, 1 + at as usize, token);
}

/// Per-lane execution state, one column per field: the node each lane in
/// `active` is expanding and its edge cursor. Columnar for the same reason
/// as [`Lanes`]: a wave with no node in flight is `active == 0`, not a
/// scan of 64 tags.
#[derive(Clone, Debug)]
struct LaneWork {
    /// Lanes holding a node.
    active: u64,
    /// Lanes whose node offers its children `candidate`; the others walk
    /// their edge span without touching memory.
    offering: u64,
    candidate: [u32; MAX_WAVE_SIZE],
    next_edge: [u32; MAX_WAVE_SIZE],
    end_edge: [u32; MAX_WAVE_SIZE],
    /// Query-id tag of the token (`token - token_row(token)`); zero for
    /// solo workloads. Children discovered while expanding this node
    /// inherit it (see [`TokenSink`]).
    base: [u32; MAX_WAVE_SIZE],
}

/// One wavefront's persistent state, generic over the workload. The
/// queue handle is held by value: a run's [`DeviceQueue`], or a test's
/// adapter around one.
pub struct PtKernel<W: PtWorkload, Q: WaveQueue = DeviceQueue> {
    queue: Q,
    workload: W,
    buffers: WorkBuffers,
    lanes: Lanes,
    work: LaneWork,
    /// Newly discovered tokens awaiting queue acceptance.
    outbox: Vec<u32>,
    /// Finished tasks not yet retired against the pending counter
    /// (held until the outbox drains so `pending == 0` really means the
    /// traversal is complete).
    completed: u32,
    chunk: u32,
    /// Frontier fence for epoch-bounded (checkpointable) launches.
    /// `None` for plain runs — the fence branch is then never taken and
    /// the kernel's behaviour is bit-identical to the unfenced original.
    fence: Option<SpillFence>,
}

impl<W: PtWorkload, Q: WaveQueue> PtKernel<W, Q> {
    /// Creates the wavefront state. `lanes` is the wavefront width and
    /// `chunk` the edges each lane expands per work cycle ([`CHUNK`] in
    /// the paper).
    pub fn new(queue: Q, workload: W, buffers: WorkBuffers, lanes: usize, chunk: u32) -> Self {
        assert!(chunk > 0, "chunk must be positive");
        PtKernel {
            queue,
            workload,
            buffers,
            lanes: Lanes::new(lanes),
            work: LaneWork {
                active: 0,
                offering: 0,
                candidate: [0; MAX_WAVE_SIZE],
                next_edge: [0; MAX_WAVE_SIZE],
                end_edge: [0; MAX_WAVE_SIZE],
                base: [0; MAX_WAVE_SIZE],
            },
            outbox: Vec::new(),
            completed: 0,
            chunk,
            fence: None,
        }
    }

    /// Bounds this launch to claim values `<= depth`: deeper discoveries
    /// go to the `spill` buffer instead of the queue (see
    /// [`SpillFence`]). Only meaningful for min-directed workloads; a
    /// max-directed workload never triggers the fence branch.
    pub fn with_fence(mut self, depth: u32, spill: Buffer) -> Self {
        self.fence = Some(SpillFence { depth, spill });
        self
    }
}

impl<W: PtWorkload, Q: WaveQueue> WaveKernel for PtKernel<W, Q> {
    fn work_cycle(&mut self, ctx: &mut WaveCtx<'_>) -> WaveStatus {
        // Backpressure: a backlogged outbox means discoveries are waiting
        // on queue acceptance; the wavefront stalls its own pipeline.
        let stalled = self.outbox.len() >= self.lanes.width() * self.chunk as usize;

        // --- 1. hungry lanes request work ------------------------------
        if !stalled {
            self.lanes.request(!self.work.active);
        }
        self.queue.acquire(ctx, &mut self.lanes);

        // Ready lanes load their node's metadata (enumeration prolog of
        // Listing 2: starting edge, degree, current value).
        while let Some((lane, token)) = self.lanes.take_ready() {
            // The token addresses per-query state directly; its CSR
            // row is the vertex it expands (identical for solo
            // workloads, query-tagged for a batch).
            let row = self.workload.token_row(token);
            // Release the on-queue bit *before* reading the value so
            // a concurrent improver either sees the bit set (and
            // knows this processing will read its improved value) or
            // re-enqueues the vertex itself.
            ctx.global_write_lane(self.buffers.inqueue, token as usize, 0);
            // The two row offsets share a cache line almost always.
            ctx.charge_coalesced_access(self.buffers.nodes, row as usize, 2);
            let start = ctx.peek(self.buffers.nodes, row as usize);
            // A faulting read yields 0 and fails the launch; until then
            // the lane must not walk a negative span.
            let end = ctx.peek(self.buffers.nodes, row as usize + 1).max(start);
            let raw = ctx.global_read_lane(self.buffers.values, token as usize);
            self.work.active |= 1 << lane;
            // Host-side derivation, no device ops.
            match self.workload.candidate(raw, end - start) {
                Some(candidate) => {
                    self.work.offering |= 1 << lane;
                    self.work.candidate[lane] = candidate;
                }
                None => self.work.offering &= !(1 << lane),
            }
            self.work.next_edge[lane] = start;
            self.work.end_edge[lane] = end;
            self.work.base[lane] = token - row;
        }

        // --- 2. DoWorkUnit: up to `chunk` edges per lane ---------------
        if !stalled && self.work.active != 0 {
            let (edges, weights) = (self.buffers.edges, self.buffers.weights);
            let mut sink = TokenSink {
                claim: self.workload.claim(),
                values: self.buffers.values,
                inqueue: self.buffers.inqueue,
                fence: self.fence,
                outbox: &mut self.outbox,
                base: 0,
            };
            let work = &mut self.work;
            for lane in bits(work.active) {
                let start = work.next_edge[lane];
                let stop = (start + self.chunk).min(work.end_edge[lane]);
                if work.offering & (1 << lane) != 0 {
                    let (at, len) = (start as usize, (stop - start) as usize);
                    // A lane's edge chunk is contiguous in CSR: one
                    // coalesced transaction (usually a single line) per
                    // array, read through the prevalidated run path — one
                    // bounds check per chunk instead of one per edge, and
                    // no copy. A faulting run records its fault and
                    // offers nothing.
                    ctx.charge_coalesced_access(edges, at, len);
                    if let Some(weights) = weights {
                        ctx.charge_coalesced_access(weights, at, len);
                    }
                    sink.base = work.base[lane];
                    let candidate = work.candidate[lane];
                    let runs = match (ctx.open_run(edges, at, len), weights) {
                        (Some(run), None) => Some((run, None)),
                        (Some(run), Some(weights)) => {
                            ctx.open_run(weights, at, len).map(|w| (run, Some(w)))
                        }
                        (None, _) => None,
                    };
                    if let Some((run, weight_run)) = runs {
                        for i in 0..run.len() {
                            let child = ctx.run_word(run, i);
                            let weight = weight_run.map_or(0, |w| ctx.run_word(w, i));
                            sink.offer(ctx, child, candidate.saturating_add(weight));
                        }
                    }
                }
                work.next_edge[lane] = stop;
                if stop == work.end_edge[lane] {
                    work.active &= !(1 << lane);
                    self.completed += 1;
                }
            }
        }

        // --- 3. ScheduleNewlyDiscoveredWorkTokens ----------------------
        if !self.outbox.is_empty() {
            let accepted = self.queue.enqueue(ctx, &self.outbox);
            if accepted > 0 {
                ctx.atomic_add(self.buffers.pending, 0, accepted as u32);
                ctx.count_scheduler_atomics(1);
                self.outbox.drain(..accepted);
            }
        }
        // Retire completions only once their children are safely queued,
        // so the pending counter can never under-report in-flight work.
        if self.completed > 0 && self.outbox.is_empty() {
            ctx.atomic_sub(self.buffers.pending, 0, self.completed);
            ctx.count_scheduler_atomics(1);
            self.completed = 0;
        }

        // --- 4. WorkRemains ---------------------------------------------
        let pending = ctx.global_read(self.buffers.pending, 0);
        if pending == 0 && self.outbox.is_empty() && self.completed == 0 {
            return WaveStatus::Done;
        }
        // Idle long tail: every lane is just monitoring its slot and the
        // wavefront holds no work, discoveries, or unretired completions —
        // the next cycle is an identical poll of the queue's idle words plus
        // the pending counter, which was only tested against zero above.
        // Park on the queue's watches and on "pending still non-zero"; the
        // engine replays this cycle's charges until one of them fails.
        if self.outbox.is_empty()
            && self.completed == 0
            && self.work.active == 0
            && self.queue.register_idle_watches(ctx, &self.lanes)
        {
            ctx.park_while_nonzero(self.buffers.pending, 0);
        }
        WaveStatus::Active
    }
}

#[cfg(test)]
mod tests {
    // The kernel is exercised end-to-end through `runner`; see
    // `runner::tests` and the crate's integration tests. Unit tests here
    // cover construction contracts only.
    use super::*;
    use crate::workload::Bfs;
    use gpu_queue::device::Design;
    use gpu_queue::Variant;
    use simt::DeviceMemory;

    fn queue(mem: &mut DeviceMemory) -> DeviceQueue {
        DeviceQueue::setup(mem, Design::Shared(Variant::RfAn), 4, 1)
    }

    fn buffers(mem: &mut DeviceMemory) -> WorkBuffers {
        WorkBuffers {
            nodes: mem.alloc("nodes", 2),
            edges: mem.alloc("edges", 1),
            weights: None,
            values: mem.alloc("costs", 1),
            inqueue: mem.alloc("inqueue", 1),
            pending: mem.alloc("pending", 1),
        }
    }

    #[test]
    fn chunk_default_matches_paper() {
        assert_eq!(CHUNK, 4);
    }

    #[test]
    #[should_panic(expected = "chunk must be positive")]
    fn zero_chunk_rejected() {
        let mut mem = DeviceMemory::new();
        let b = buffers(&mut mem);
        let _ = PtKernel::new(queue(&mut mem), Bfs::new(0), b, 4, 0);
    }

    #[test]
    fn starts_with_idle_lanes_and_empty_outbox() {
        let mut mem = DeviceMemory::new();
        let b = buffers(&mut mem);
        let k = PtKernel::new(queue(&mut mem), Bfs::new(0), b, 8, CHUNK);
        assert_eq!(k.lanes.idle().count_ones(), 8);
        assert_eq!(k.work.active, 0);
        assert!(k.outbox.is_empty());
        assert_eq!(k.completed, 0);
        assert!(k.fence.is_none(), "plain construction is unfenced");
    }

    #[test]
    fn fence_builder_attaches_depth_and_spill() {
        let mut mem = DeviceMemory::new();
        let b = buffers(&mut mem);
        let spill = mem.alloc("spill", 8);
        let k = PtKernel::new(queue(&mut mem), Bfs::new(0), b, 4, CHUNK).with_fence(3, spill);
        let f = k.fence.expect("fence installed");
        assert_eq!(f.depth, 3);
        assert_eq!(f.spill, spill);
    }
}
