//! The wavefront execution context — what a kernel sees during one work
//! cycle.
//!
//! A [`WaveKernel`] is a per-wavefront state machine. Each scheduling round
//! the engine calls [`WaveKernel::work_cycle`] once per active wavefront
//! with a fresh [`WaveCtx`]; the kernel performs its memory traffic and
//! atomics through the context, which:
//!
//! * executes them against device memory (sequentially, hence atomically),
//! * charges *issue* cycles (never hideable) and *latency* cycles (hidden
//!   by other resident wavefronts — see `engine`), and
//! * maintains the run [`Metrics`].
//!
//! Lane-private state lives inside the kernel struct itself; the simulator
//! only needs to see traffic that leaves the wavefront.
//!
//! # Wave parking
//!
//! Persistent-thread kernels spend their long tail re-executing an
//! *identical* polling cycle every round. A kernel that recognizes such a
//! cycle registers park watches; the engine then stops invoking it and, at
//! the wave's exact rotation position each round, re-charges the captured
//! issue/latency/bandwidth/metrics verbatim until a watch fails.
//!
//! **The contract.** A watch does not name a value the cycle *read*; it
//! names the *class of observations under which the cycle is identical* —
//! same charges, same metric deltas, same (absent) memory effects, same
//! wave-private state afterwards. Registering watches declares: *this
//! cycle read nothing but the watched words and wave-private state, and
//! as long as every watched word stays inside its class, re-executing the
//! cycle would do exactly what it just did*. Four classes exist:
//!
//! * **same stale value** — [`WaveCtx::park_until_changed`]: the word's
//!   round-start value equals the one observed now. For words whose value
//!   the cycle's outcome depends on (a monitored queue slot, a segment
//!   directory entry).
//! * **still non-zero** — [`WaveCtx::park_while_nonzero`]: the word's
//!   current value, sampled at the wave's rotation position, is not zero.
//!   For a counter the cycle only tests against zero with a read whose
//!   charges do not depend on the value (the pending-work counter: 5 → 3
//!   is the same cycle, → 0 is not).
//! * **still empty** — [`WaveCtx::park_while_empty`]: the stale value of a
//!   `Rear` word does not exceed the current value of a `Front` word. For
//!   the CAS queues' empty-queue poll, whose outcome (nothing served, no
//!   CAS attempted) depends only on that relation. The poll has one
//!   wave-private side effect — it remembers `Front`'s mutation version
//!   for the retry-storm model — so the engine records that version at
//!   the wave's rotation position on every replay and hands the last one
//!   to the first re-executed cycle through
//!   [`WaveCtx::parked_front_version`]. That is exactly the value the
//!   per-round poll would have left behind, because the poll overwrites it
//!   unconditionally each cycle.
//! * **ticket not yet issued** — [`WaveCtx::park_while_at_most`]: the
//!   stale value of a `Rear` word does not exceed a bound, the wave's
//!   smallest monitored ticket. For the sentinel queues' data-arrival
//!   poll, which (see *Host-side observation* below) finds data in a
//!   monitored slot exactly when stale `Rear` has passed its ticket: one
//!   watch per wave instead of one *same stale value* watch per lane,
//!   failing in the very round the first of those would have.
//!
//! A class watch registered on a word that is already outside its class
//! degrades to an exact-value watch on what the cycle observed (never
//! parks forever; at worst wakes early). A wake that was not needed only
//! re-executes one polling cycle, which re-parks with the same charges
//! (counted in `Profile::spurious_wakes`). The engine refuses to park a
//! cycle that wrote memory, issued atomics, faulted, aborted or finished,
//! so a buggy caller degrades to exact slow-path execution rather than
//! wrong accounting. Arming a memory poison wakes every parked wave for
//! that round, so a poisoned watched word faults exactly where per-round
//! polling would have hit it. Stale values are constant within a round and
//! a parked wave keeps its rotation slot, so the wake check observes
//! exactly what re-execution would.
//!
//! **Why *still empty* and its version hand-back exist.** It is the most
//! intricate class, and the exact-value watches it degrades to would be
//! simpler. A prototype in which [`WaveCtx::park_while_empty`] always
//! registered those exact-value watches kept every benchmark fingerprint
//! `correct`, but on the `bfs_starved` workload (`benchmark/run.sh`, seed
//! 2222, `--seconds 10`) its `wall_s` median rose from 0.098 s to 0.123 s
//! (+25 %), slower in 7 of 7 alternating pairs, and `setup_s` rose 19 %:
//! exact watches wake an idle CAS wave whenever `Front` or `Rear` moves,
//! which in a flowing traversal is every round. Deleting `EmptyWatch` or
//! [`WaveCtx::parked_front_version`] needs evidence that beats this.
//!
//! **Before a new queue variant uses a class watch** it must show, for its
//! pure-poll cycle: (1) every device word the cycle reads is watched, or
//! decided by a watched word under *Host-side observation* below;
//! (2) for any two observations in the class the cycle issues the same
//! operations in the same order (so issue, latency, cache lines and every
//! `Metrics` counter agree) and writes nothing; (3) every piece of
//! wave-private state the cycle updates is either a function of the class
//! alone or handed back by the engine on wake. The "parked == never
//! parked" differential suite (`tests/park_differential.rs`) is the check.
//!
//! # Host-side observation
//!
//! [`WaveCtx::observe_stale`] reads a word's round-start value for the
//! *simulator's* benefit: it charges nothing, touches no cache line and
//! never faults (a poisoned word reads as its value). It exists so a
//! queue can decide, host-side and in closed form, an outcome the
//! simulated hardware decides by reading many words — and still charge
//! exactly what those reads cost. **Before a queue decides an outcome from
//! a word it did not charge a read for** it must show that the observed
//! word and the uncharged-for words are tied by an invariant of its own
//! protocol, so the decision equals the one the reads would have made; it
//! must issue the charges of the reads it skipped (same calls, same
//! arguments); and while a poison is armed ([`WaveCtx::poison_armed`]) it
//! must still touch every word the modelled hardware reads with a
//! faulting accessor ([`WaveCtx::peek_stale`]), so an injected fault
//! surfaces at the same wave and round.
//!
//! The worked example is the sentinel queues' data-arrival poll, `poll`
//! in `gpu-queue`'s `device/ticket.rs`, whose docs carry its arrival
//! invariant and the argument for it.

use crate::audit::{AuditScope, OpSpec};
use crate::config::CostModel;
use crate::error::{AbortReason, SimError};
use crate::memory::{Buffer, DeviceMemory};
use crate::metrics::Metrics;
use crate::round::{RoundState, LINE_WORDS};

/// What a wavefront reports at the end of a work cycle.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WaveStatus {
    /// The wavefront still has work (or is polling for it).
    Active,
    /// The wavefront exited its kernel.
    Done,
}

/// Which cluster a wavefront runs on. CHAI's heterogeneous BFS shares its
/// queue between GPU wavefronts and CPU threads; cross-cluster traffic
/// pays the SVM penalty.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WaveClass {
    /// An ordinary GPU wavefront.
    Gpu,
    /// A collaborating CPU thread-group (CHAI baseline): memory and atomic
    /// costs are multiplied by [`CostModel::svm_penalty`].
    CpuCollab,
}

/// Identity of one wavefront within a launch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WaveInfo {
    /// Global wavefront index within the launch.
    pub wave_id: usize,
    /// Workgroup this wavefront belongs to.
    pub workgroup: usize,
    /// Compute unit the workgroup is resident on.
    pub cu: usize,
    /// Lanes per wavefront (64 on GCN; smaller in test configs).
    pub wave_size: usize,
    /// Total wavefronts in the launch (used to normalize contention).
    pub total_waves: usize,
    /// GPU or collaborating-CPU.
    pub class: WaveClass,
}

/// A kernel instantiated once per wavefront.
pub trait WaveKernel {
    /// Executes one work cycle (one pass through the persistent-thread
    /// loop of the paper's Algorithm 1). Returns whether the wavefront
    /// remains active.
    fn work_cycle(&mut self, ctx: &mut WaveCtx<'_>) -> WaveStatus;
}

/// The class of observations a [`Watch`] holds under (see the module docs
/// on wave parking).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum WatchClass {
    /// Round-stale value equals `expected`.
    StaleEq,
    /// Current value equals `expected` — only ever the degraded form of a
    /// class watch registered outside its class.
    NowEq,
    /// Current value is non-zero (`expected` unused).
    NowNonZero,
    /// Round-stale value is at most `expected` (a ticket bound).
    StaleAtMost,
}

/// One word a parked wave watches. The wave wakes the round any watch
/// stops holding.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Watch {
    /// Flat device address (validated at registration).
    pub(crate) addr: usize,
    /// Value observed at park time (exact-value classes only).
    pub(crate) expected: u32,
    /// The class of observations that keep the wave parked.
    pub(crate) class: WatchClass,
}

impl Watch {
    /// Whether the watched word is still inside its class.
    #[inline]
    fn holds(&self, memory: &DeviceMemory) -> bool {
        match self.class {
            WatchClass::StaleEq => memory.stale_value(self.addr) == self.expected,
            WatchClass::NowEq => memory.word(self.addr) == self.expected,
            WatchClass::NowNonZero => memory.word(self.addr) != 0,
            WatchClass::StaleAtMost => memory.stale_value(self.addr) <= self.expected,
        }
    }
}

/// The "still empty" relation watch of a CAS queue's empty poll:
/// `stale(rear) <= now(front)`, plus the `Front` mutation version the
/// skipped polls would have remembered.
#[derive(Clone, Copy, Debug)]
pub(crate) struct EmptyWatch {
    /// Flat address of `Rear` (read round-stale).
    rear: usize,
    /// Flat address of `Front` (read current).
    front: usize,
    /// `Front`'s mutation version at the wave's rotation position in the
    /// last round the parked poll ran or was replayed.
    front_version: u64,
}

/// Everything one work cycle asked to park on (engine-owned scratch,
/// swapped into the wave's park slot when the cycle parks).
#[derive(Debug, Default)]
pub(crate) struct ParkRequest {
    /// Per-word class watches.
    watches: Vec<Watch>,
    /// At most one empty-queue relation watch.
    empty: Option<EmptyWatch>,
}

impl ParkRequest {
    /// Drops every registration, keeping the buffer.
    pub(crate) fn clear(&mut self) {
        self.watches.clear();
        self.empty = None;
    }

    /// True if the cycle registered nothing (it does not ask to park).
    pub(crate) fn is_empty(&self) -> bool {
        self.watches.is_empty() && self.empty.is_none()
    }

    /// The wake check, run at the wave's rotation position: true while
    /// every watched word is still inside its class.
    #[inline]
    pub(crate) fn holds(&self, memory: &DeviceMemory) -> bool {
        self.watches.iter().all(|w| w.holds(memory))
            && self
                .empty
                .is_none_or(|e| memory.stale_value(e.rear) <= memory.word(e.front))
    }

    /// Performs the one wave-private side effect of a replayed empty
    /// poll: remember `Front`'s version as of this rotation position.
    #[inline]
    pub(crate) fn note_replay(&mut self, memory: &mut DeviceMemory) {
        if let Some(e) = self.empty.as_mut() {
            e.front_version = memory.version_at(e.front);
        }
    }

    /// The version [`ParkRequest::note_replay`] remembered last (or the
    /// parking cycle itself saw), if an empty watch is held.
    pub(crate) fn front_version(&self) -> Option<u64> {
        self.empty.map(|e| e.front_version)
    }
}

/// Execution context for one work cycle of one wavefront.
pub struct WaveCtx<'a> {
    pub(crate) memory: &'a mut DeviceMemory,
    pub(crate) metrics: &'a mut Metrics,
    pub(crate) round: &'a mut RoundState,
    pub(crate) cost: &'a CostModel,
    pub(crate) info: WaveInfo,
    /// Issue cycles accumulated this work cycle (summed).
    pub(crate) issue: u64,
    /// Latency watermark this work cycle (independent ops pipeline, so we
    /// keep the max, including serialization delay).
    pub(crate) latency: u64,
    /// First device fault, if any (kernel keeps running with zeros, the
    /// engine fails the run afterwards — mirrors GPU fault semantics but
    /// deterministically).
    pub(crate) fault: Option<SimError>,
    /// Kernel-requested abort (queue-full exception), already classified.
    pub(crate) abort: Option<AbortReason>,
    /// Global atomics issued this work cycle (feeds the per-CU atomic-unit
    /// throughput pool).
    pub(crate) atomic_ops: u64,
    /// What this cycle asked to park on (engine-owned scratch; a
    /// non-empty request at cycle end asks for parking).
    pub(crate) park: &'a mut ParkRequest,
    /// Set by the engine on the first cycle re-executed after a park that
    /// held a [`WaveCtx::park_while_empty`] watch.
    pub(crate) parked_front_version: Option<u64>,
    /// True once the cycle stored to device memory; such a cycle is never
    /// parkable (its re-execution would not be idempotent).
    pub(crate) wrote: bool,
    /// The open audit scope, if a queue operation is being audited.
    pub(crate) audit_scope: Option<AuditScope>,
}

impl<'a> WaveCtx<'a> {
    pub(crate) fn new(
        memory: &'a mut DeviceMemory,
        metrics: &'a mut Metrics,
        round: &'a mut RoundState,
        cost: &'a CostModel,
        info: WaveInfo,
        park: &'a mut ParkRequest,
    ) -> Self {
        WaveCtx {
            memory,
            metrics,
            round,
            cost,
            info,
            issue: 0,
            latency: 0,
            fault: None,
            abort: None,
            atomic_ops: 0,
            park,
            parked_front_version: None,
            wrote: false,
            audit_scope: None,
        }
    }

    #[inline]
    fn touch_line(&mut self, buf: Buffer, index: usize) {
        if let Ok(addr) = self.memory.flat_addr(buf, index) {
            self.round.touch_line(addr / LINE_WORDS);
        }
    }

    /// Identity of the executing wavefront.
    pub fn info(&self) -> WaveInfo {
        self.info
    }

    /// Lanes per wavefront.
    pub fn wave_size(&self) -> usize {
        self.info.wave_size
    }

    /// Looks up a named device buffer (kernel-argument binding).
    pub fn buffer(&self, name: &str) -> Buffer {
        self.memory.buffer(name)
    }

    /// Multiplier for memory/atomic costs on this wavefront's cluster.
    #[inline]
    fn penalty(&self) -> u64 {
        match self.info.class {
            WaveClass::Gpu => 1,
            WaveClass::CpuCollab => self.cost.svm_penalty,
        }
    }

    #[inline]
    fn record_fault(&mut self, e: SimError) {
        if self.fault.is_none() {
            self.fault = Some(e);
        }
    }

    /// A device access's result, or (after recording its fault) the zero
    /// value the kernel keeps running with.
    #[inline]
    fn or_fault<T: Default>(&mut self, result: Result<T, SimError>) -> T {
        result.unwrap_or_else(|e| {
            self.record_fault(e);
            T::default()
        })
    }

    /// Charges one global access of `issue` cycles per instruction — a
    /// wave-coalesced `mem_issue` or a lock-step lane's `alu_issue`
    /// address slot — plus its latency, transaction and cache line.
    #[inline]
    fn charge_global(&mut self, issue: u64, buf: Buffer, index: usize) {
        let p = self.penalty();
        self.issue += issue * p;
        self.latency = self.latency.max(self.cost.mem_latency * p);
        self.metrics.global_mem_ops += 1;
        self.touch_line(buf, index);
    }

    /// Charges `n` ALU instructions (wave-uniform bookkeeping work).
    pub fn charge_alu(&mut self, n: u64) {
        self.issue += n * self.cost.alu_issue;
    }

    /// Wave-coalesced global load: one memory transaction for the whole
    /// wavefront (e.g. a broadcast read of the queue `Front`).
    pub fn global_read(&mut self, buf: Buffer, index: usize) -> u32 {
        self.charge_global(self.cost.mem_issue, buf, index);
        let value = self.memory.load(buf, index);
        self.or_fault(value)
    }

    /// Per-lane scattered global load (e.g. each lane fetching a different
    /// slot or edge). Lock-step lanes share one *instruction* — the issue
    /// cost is an address-math slot — while the per-lane transaction lands
    /// on the memory system as a distinct cache line plus latency.
    pub fn global_read_lane(&mut self, buf: Buffer, index: usize) -> u32 {
        self.charge_global(self.cost.alu_issue, buf, index);
        let value = self.memory.load(buf, index);
        self.or_fault(value)
    }

    /// Wave-coalesced global load observing the *round-start* value: data
    /// another wavefront published this round is not yet visible (the
    /// one-work-cycle communication latency between wavefronts). Use for
    /// dequeue-side polls of producer-published state.
    pub fn global_read_stale(&mut self, buf: Buffer, index: usize) -> u32 {
        self.charge_global(self.cost.mem_issue, buf, index);
        let value = self.memory.stale_load(buf, index);
        self.or_fault(value)
    }

    /// Per-lane variant of [`WaveCtx::global_read_stale`] (same lock-step
    /// cost structure as [`WaveCtx::global_read_lane`]).
    pub fn global_read_lane_stale(&mut self, buf: Buffer, index: usize) -> u32 {
        self.charge_global(self.cost.alu_issue, buf, index);
        let value = self.memory.stale_load(buf, index);
        self.or_fault(value)
    }

    /// Wave-coalesced global store.
    pub fn global_write(&mut self, buf: Buffer, index: usize, value: u32) {
        self.charge_global(self.cost.mem_issue, buf, index);
        self.poke(buf, index, value);
    }

    /// Per-lane scattered global store (lock-step cost structure; see
    /// [`WaveCtx::global_read_lane`]).
    pub fn global_write_lane(&mut self, buf: Buffer, index: usize, value: u32) {
        self.charge_global(self.cost.alu_issue, buf, index);
        self.poke(buf, index, value);
    }

    /// Counts one fetch-add-family atomic against the open audit scope.
    /// Placed in the public non-CAS entry points (not `global_atomic`) so
    /// a CAS — which routes through `global_atomic` too — is not
    /// double-counted as an AFA.
    #[inline]
    fn audit_count_afa(&mut self) {
        if let Some(scope) = self.audit_scope.as_mut() {
            scope.afa += 1;
        }
    }

    /// Global atomic fetch-add. Never fails; the k-th same-address atomic
    /// in a round pays `k * atomic_serialize` extra (hideable) latency.
    pub fn atomic_add(&mut self, buf: Buffer, index: usize, delta: u32) -> u32 {
        self.audit_count_afa();
        self.global_atomic(buf, index, |v| v.wrapping_add(delta))
    }

    /// Global atomic fetch-sub (wrapping).
    pub fn atomic_sub(&mut self, buf: Buffer, index: usize, delta: u32) -> u32 {
        self.audit_count_afa();
        self.global_atomic(buf, index, |v| v.wrapping_sub(delta))
    }

    /// Global atomic exchange.
    pub fn atomic_exchange(&mut self, buf: Buffer, index: usize, value: u32) -> u32 {
        self.audit_count_afa();
        self.global_atomic(buf, index, |_| value)
    }

    /// Global atomic min (claim operation of min-directed workloads:
    /// BFS levels, SSSP distances, component labels).
    pub fn atomic_min(&mut self, buf: Buffer, index: usize, value: u32) -> u32 {
        self.audit_count_afa();
        self.global_atomic(buf, index, |v| v.min(value))
    }

    /// Global atomic max (claim operation of max-directed workloads,
    /// e.g. best-contribution PageRank-delta). Same AFA class and cost
    /// model as [`WaveCtx::atomic_min`].
    pub fn atomic_max(&mut self, buf: Buffer, index: usize, value: u32) -> u32 {
        self.audit_count_afa();
        self.global_atomic(buf, index, |v| v.max(value))
    }

    fn global_atomic(&mut self, buf: Buffer, index: usize, f: impl FnOnce(u32) -> u32) -> u32 {
        let p = self.penalty();
        self.metrics.global_atomics += 1;
        // Instruction replay + atomic-ALU time are charged through the
        // per-CU atomic-unit pool (sub-cycle per op; see CostModel).
        self.atomic_ops += p; // SVM atomics occupy the unit longer
                              // Fused rank + version + snapshot + store: one bounds check and
                              // one metadata fetch for the whole atomic.
        let (addr, rank, old) = match self.memory.atomic_rmw(buf, index, self.round, f) {
            Ok(t) => t,
            Err(e) => {
                self.record_fault(e);
                return 0;
            }
        };
        self.round.touch_line(addr / LINE_WORDS);
        // The memory partition pipelines same-address atomics up to its
        // queue depth; beyond that the requester perceives no additional
        // wait (throughput costs surface as the issuing waves' own issue
        // slots instead).
        let pipelined_rank = u64::from(rank).min(self.cost.atomic_pipe_depth);
        let wait = (self.cost.atomic_latency + pipelined_rank * self.cost.atomic_serialize) * p;
        self.latency = self.latency.max(wait);
        old
    }

    /// Global compare-and-swap. Succeeds iff the word still holds
    /// `expected`; returns the value observed (callers compare against
    /// `expected` to detect failure, as in OpenCL's `atomic_cmpxchg`).
    ///
    /// Failures are counted — they are the retry overhead the paper's
    /// design eliminates — and like every atomic, a CAS occupies an issue
    /// slot whether it succeeds or not: *that* cost is never hidden.
    pub fn atomic_cas(&mut self, buf: Buffer, index: usize, expected: u32, new: u32) -> u32 {
        if let Some(scope) = self.audit_scope.as_mut() {
            scope.cas += 1;
        }
        self.metrics.cas_attempts += 1;
        let observed = self.global_atomic(buf, index, |v| if v == expected { new } else { v });
        if observed != expected {
            self.metrics.cas_failures += 1;
        }
        observed
    }

    /// Charges one coalesced memory transaction per touched cache line for
    /// a contiguous run of `len` words starting at `start`, without
    /// reading values — pair with [`WaveCtx::peek`]/[`WaveCtx::peek_stale`]
    /// to observe the data. This is how lock-step lanes accessing
    /// consecutive addresses (monitored queue slots, CSR edge chunks)
    /// hit memory: one transaction per line, not one per lane.
    pub fn charge_coalesced_access(&mut self, buf: Buffer, start: usize, len: usize) {
        if len == 0 {
            return;
        }
        let first_line = start / LINE_WORDS;
        let last_line = (start + len - 1) / LINE_WORDS;
        let txns = (last_line - first_line + 1) as u64;
        let p = self.penalty();
        // One lock-step instruction plus an address replay per extra line;
        // the data movement itself is bandwidth + latency.
        self.issue += (self.cost.alu_issue * txns) * p;
        self.latency = self.latency.max(self.cost.mem_latency * p);
        self.metrics.global_mem_ops += txns;
        for line in first_line..=last_line {
            let idx = line * LINE_WORDS;
            // Touch via a representative word (clamped into the run so the
            // address is in bounds).
            let idx = idx.max(start).min(start + len - 1);
            self.touch_line(buf, idx);
        }
    }

    /// Charges `txns` cache-resident read transactions: issue slots and a
    /// short L2 latency, but no DRAM bandwidth. This is the cost of
    /// polling lines that nobody has written since the last poll — the
    /// RF/AN sentinel check, which the paper stresses is "a non-atomic
    /// global memory read" and cheap precisely because the line stays
    /// valid in cache until a producer writes it.
    pub fn charge_cached_access(&mut self, txns: u64) {
        if txns == 0 {
            return;
        }
        let p = self.penalty();
        self.issue += self.cost.mem_issue * txns * p;
        self.latency = self.latency.max(self.cost.mem_latency / 4 * p);
        self.metrics.global_mem_ops += txns;
    }

    /// Zero-cost data observation; only valid alongside a
    /// [`WaveCtx::charge_coalesced_access`] covering the same words.
    pub fn peek(&mut self, buf: Buffer, index: usize) -> u32 {
        let value = self.memory.load(buf, index);
        self.or_fault(value)
    }

    /// Zero-cost observation of `len` consecutive words starting at
    /// `start`, appended into `out` (cleared first): the prevalidated
    /// companion of [`WaveCtx::charge_coalesced_access`] for contiguous
    /// blocks like CSR edge chunks — one bounds check per block instead of
    /// one per word. Faults (leaving `out` empty) if the run leaves the
    /// buffer.
    pub fn peek_run(&mut self, buf: Buffer, start: usize, len: usize, out: &mut Vec<u32>) {
        out.clear();
        match self.memory.load_run(buf, start, len) {
            Ok(words) => out.extend_from_slice(words),
            Err(e) => self.record_fault(e),
        }
    }

    /// Round-stale zero-cost observation (see [`WaveCtx::peek`] and
    /// [`WaveCtx::global_read_stale`]).
    pub fn peek_stale(&mut self, buf: Buffer, index: usize) -> u32 {
        let value = self.memory.stale_load(buf, index);
        self.or_fault(value)
    }

    /// Zero-cost store companion of [`WaveCtx::charge_coalesced_access`].
    pub fn poke(&mut self, buf: Buffer, index: usize, value: u32) {
        self.wrote = true;
        let stored = self.memory.store(buf, index, value);
        self.or_fault(stored)
    }

    /// Registers a *same stale value* park watch on one word (see the
    /// module docs on wave parking). Calling this declares the whole work
    /// cycle a pure poll whose observable inputs are exactly the
    /// registered watches, so the engine may replay its charges without
    /// re-executing it until the word's stale-visible value differs from
    /// the value observed now. Out-of-bounds watches fault.
    pub fn park_until_changed(&mut self, buf: Buffer, index: usize) {
        match self.memory.flat_addr(buf, index) {
            Ok(addr) => {
                let expected = self.memory.stale_value(addr);
                self.park.watches.push(Watch {
                    addr,
                    expected,
                    class: WatchClass::StaleEq,
                });
            }
            Err(e) => self.record_fault(e),
        }
    }

    /// Registers a *still non-zero* park watch: for a word the cycle read
    /// with a plain [`WaveCtx::global_read`] and only tested against zero
    /// (a pending-work counter). The wave wakes the round the word's
    /// current value, sampled at this wave's rotation position, is zero.
    /// On a word that already is zero this degrades to an exact-value
    /// watch (wake on any change).
    pub fn park_while_nonzero(&mut self, buf: Buffer, index: usize) {
        match self.memory.flat_addr(buf, index) {
            Ok(addr) => {
                let expected = self.memory.word(addr);
                let class = if expected != 0 {
                    WatchClass::NowNonZero
                } else {
                    WatchClass::NowEq
                };
                self.park.watches.push(Watch {
                    addr,
                    expected,
                    class,
                });
            }
            Err(e) => self.record_fault(e),
        }
    }

    /// Registers a *ticket not yet issued* park watch on a `Rear` word:
    /// the wave stays parked while the word's stale value is at most
    /// `bound`, the smallest ticket the wave monitors (see the module
    /// docs). On a word already past `bound` this degrades to an
    /// exact-value watch.
    pub fn park_while_at_most(&mut self, buf: Buffer, index: usize, bound: u32) {
        match self.memory.flat_addr(buf, index) {
            Ok(addr) => {
                let seen = self.memory.stale_value(addr);
                let (expected, class) = if seen <= bound {
                    (bound, WatchClass::StaleAtMost)
                } else {
                    (seen, WatchClass::StaleEq)
                };
                self.park.watches.push(Watch {
                    addr,
                    expected,
                    class,
                });
            }
            Err(e) => self.record_fault(e),
        }
    }

    /// Host-side observation of a word's round-start value: uncharged, no
    /// cache-line touch, never faults (see *Host-side observation* in the
    /// module docs for what a caller owes before deciding anything from
    /// it).
    ///
    /// # Panics
    /// Panics if `index` is outside `buf` — a bug in the observing queue,
    /// not a device fault.
    // `always`: the ticket poll calls this once per slot it scans, and
    // the mapped-buffer branch tipped the plain hint into a call.
    #[inline(always)]
    pub fn observe_stale(&self, buf: Buffer, index: usize) -> u32 {
        let addr = buf.addr(index).expect("host-side observation in bounds");
        self.memory.observe_stale(buf, addr)
    }

    /// True once fault injection has armed a memory poison in this
    /// launch: from then on a closed-form decision must also touch the
    /// words it stands for with a faulting accessor.
    #[inline]
    pub fn poison_armed(&self) -> bool {
        self.memory.poison_armed()
    }

    /// Registers the *still empty* park watch of a CAS queue's
    /// empty-queue poll over `state[rear]` (read round-stale) and
    /// `state[front]` (read current): the wave stays parked while
    /// `stale(rear) <= now(front)`. While it is parked the engine keeps
    /// `Front`'s mutation version as of the wave's rotation position and
    /// hands it to the first re-executed cycle
    /// ([`WaveCtx::parked_front_version`]). If the queue is not empty
    /// now, or the cycle already holds such a watch, this degrades to
    /// exact-value watches on both words (under which the version cannot
    /// move either).
    pub fn park_while_empty(&mut self, state: Buffer, rear: usize, front: usize) {
        let (rear, front) = match (
            self.memory.flat_addr(state, rear),
            self.memory.flat_addr(state, front),
        ) {
            (Ok(r), Ok(f)) => (r, f),
            (Err(e), _) | (_, Err(e)) => return self.record_fault(e),
        };
        let rear_seen = self.memory.stale_value(rear);
        let front_seen = self.memory.word(front);
        if self.park.empty.is_none() && rear_seen <= front_seen {
            self.park.empty = Some(EmptyWatch {
                rear,
                front,
                front_version: self.memory.version_at(front),
            });
        } else {
            self.park.watches.push(Watch {
                addr: rear,
                expected: rear_seen,
                class: WatchClass::StaleEq,
            });
            self.park.watches.push(Watch {
                addr: front,
                expected: front_seen,
                class: WatchClass::NowEq,
            });
        }
    }

    /// On the first work cycle after a park that held a
    /// [`WaveCtx::park_while_empty`] watch: `Front`'s mutation version at
    /// this wave's rotation position in the last round it spent parked —
    /// what its per-round empty poll would have remembered. `None` on
    /// every other cycle.
    pub fn parked_front_version(&self) -> Option<u64> {
        self.parked_front_version
    }

    /// Mutation version of a word — how many value-changing atomics have
    /// landed on it. Free of charge: it piggybacks on a read the caller
    /// performs anyway and exists to support the CAS staleness model
    /// (stage a version with your read; compare at CAS time).
    pub fn atomic_version(&mut self, buf: Buffer, index: usize) -> u64 {
        let version = self.memory.version(buf, index);
        self.or_fault(version)
    }

    /// Charges a CAS retry storm: a reservation whose read-to-CAS window
    /// was invalidated `delta` times burns `min(delta, cas_storm_cap)`
    /// failed attempts before winning. Each failure is a dependent
    /// re-read + re-CAS chain — unhideable issue, the cost the paper
    /// eliminates. The per-failure charge scales with the contention
    /// *density* (`delta / total wavefronts`): a retry only stretches when
    /// competitors keep landing inside the retry window, which requires a
    /// large fraction of the device to be hammering the same word.
    /// Returns the number of failures charged.
    pub fn charge_cas_retry_storm(&mut self, delta: u64) -> u64 {
        let storms = delta.min(self.cost.cas_storm_cap);
        if let Some(scope) = self.audit_scope.as_mut() {
            scope.storms += storms;
        }
        if storms > 0 {
            self.metrics.cas_attempts += storms;
            self.metrics.cas_failures += storms;
            self.metrics.global_atomics += storms;
            let waves = self.info.total_waves.max(1) as u64;
            let density_num = delta.min(waves);
            self.issue += storms * self.cost.cas_retry_issue * self.penalty() * density_num / waves;
        }
        storms
    }

    /// Charges `n` workgroup-local (LDS) atomics. The *values* of local
    /// aggregation live in the kernel's own wave-private state (a
    /// workgroup is one wavefront here); only the cost and count are
    /// simulated. LDS atomics serialize within the LDS banks — cheap, and
    /// free of global-memory contention.
    pub fn lds_atomics(&mut self, n: u64) {
        self.metrics.lds_atomics += n;
        self.issue += n * self.cost.lds_atomic;
    }

    /// Attributes the last `n` global atomics to the task scheduler
    /// (queue reservations and retries). Feeds the Figure 5 ratio.
    pub fn count_scheduler_atomics(&mut self, n: u64) {
        self.metrics.scheduler_atomics += n;
    }

    /// Records `n` queue-operation retries caused by exceptions (the
    /// traditional queue's dequeue-on-empty). Feeds Figure 1 / Figure 5.
    pub fn count_queue_empty_retries(&mut self, n: u64) {
        if let Some(scope) = self.audit_scope.as_mut() {
            scope.empty_retries += n;
        }
        self.metrics.queue_empty_retries += n;
    }

    /// Opens an audit scope for one wavefront queue operation declaring its
    /// atomic budget (see [`crate::audit`]); every launch audits. Scopes do
    /// not nest: a new `audit_begin` replaces any scope still open (an
    /// aborting operation may leave its scope unvalidated — harmless,
    /// since the abort fails the run anyway).
    pub fn audit_begin(&mut self, spec: OpSpec) {
        self.audit_scope = Some(AuditScope::new(spec));
    }

    /// Amends the open scope's expected AFA count — for operations whose
    /// budget is decided mid-flight (e.g. a steal scan that only reserves
    /// when it finds backlog).
    pub fn audit_expect_afa(&mut self, n: u64) {
        if let Some(scope) = self.audit_scope.as_mut() {
            scope.spec.afa = Some(n);
        }
    }

    /// Amends the open scope's expected CAS count (AN's single proxy CAS,
    /// declared only on the path that reaches the reservation).
    pub fn audit_expect_cas(&mut self, n: u64) {
        if let Some(scope) = self.audit_scope.as_mut() {
            scope.spec.cas = Some(n);
        }
    }

    /// Closes the open audit scope and validates the observed counts
    /// against its spec; a violation is recorded as a device fault and
    /// fails the run with [`SimError::AuditViolation`].
    pub fn audit_end(&mut self) {
        if let Some(scope) = self.audit_scope.take() {
            if let Err(e) = scope.validate() {
                self.record_fault(e);
            }
        }
    }

    /// Raises the paper's queue-full exception: "When a queue full
    /// exception occurs the problem is too large for the allocated queue
    /// size" — the kernel aborts, it does not retry. The reason is a
    /// structured [`AbortReason`] so host-side recovery can match on it;
    /// the engine attaches the observing round. The first reason wins.
    pub fn abort(&mut self, reason: AbortReason) {
        if self.abort.is_none() {
            self.abort = Some(reason);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CostModel;

    fn harness() -> (DeviceMemory, Metrics, RoundState, CostModel, ParkRequest) {
        let mut mem = DeviceMemory::new();
        mem.alloc("buf", 8);
        (
            mem,
            Metrics::default(),
            RoundState::new(),
            CostModel::unit(),
            ParkRequest::default(),
        )
    }

    fn info() -> WaveInfo {
        WaveInfo {
            wave_id: 0,
            workgroup: 0,
            cu: 0,
            wave_size: 4,
            total_waves: 2,
            class: WaveClass::Gpu,
        }
    }

    #[test]
    fn afa_returns_old_and_never_fails() {
        let (mut mem, mut m, mut r, cost, mut w) = harness();
        let buf = mem.buffer("buf");
        let mut ctx = WaveCtx::new(&mut mem, &mut m, &mut r, &cost, info(), &mut w);
        assert_eq!(ctx.atomic_add(buf, 0, 5), 0);
        assert_eq!(ctx.atomic_add(buf, 0, 5), 5);
        assert_eq!(m.global_atomics, 2);
        assert_eq!(m.cas_attempts, 0);
    }

    #[test]
    fn cas_success_and_failure_accounting() {
        let (mut mem, mut m, mut r, cost, mut w) = harness();
        let buf = mem.buffer("buf");
        let mut ctx = WaveCtx::new(&mut mem, &mut m, &mut r, &cost, info(), &mut w);
        // success: word holds 0
        assert_eq!(ctx.atomic_cas(buf, 0, 0, 7), 0);
        // failure: word now holds 7, expected 0
        assert_eq!(ctx.atomic_cas(buf, 0, 0, 9), 7);
        assert_eq!(m.cas_attempts, 2);
        assert_eq!(m.cas_failures, 1);
        assert_eq!(m.global_atomics, 2);
        assert_eq!(mem.read_u32(buf, 0), 7);
    }

    #[test]
    fn serialization_latency_grows_with_rank() {
        let (mut mem, mut m, mut r, cost, mut w) = harness();
        let buf = mem.buffer("buf");
        let mut ctx = WaveCtx::new(&mut mem, &mut m, &mut r, &cost, info(), &mut w);
        ctx.atomic_add(buf, 0, 1); // rank 0: latency 10
        assert_eq!(ctx.latency, 10);
        ctx.atomic_add(buf, 0, 1); // rank 1: latency 10 + 1
        assert_eq!(ctx.latency, 11);
        ctx.atomic_add(buf, 1, 1); // different word: rank 0 again
        assert_eq!(ctx.latency, 11);
    }

    #[test]
    fn issue_accumulates_latency_watermarks() {
        let (mut mem, mut m, mut r, cost, mut w) = harness();
        let buf = mem.buffer("buf");
        let mut ctx = WaveCtx::new(&mut mem, &mut m, &mut r, &cost, info(), &mut w);
        ctx.global_read(buf, 0);
        ctx.global_read(buf, 1);
        ctx.charge_alu(3);
        assert_eq!(ctx.issue, 1 + 1 + 3);
        assert_eq!(ctx.latency, 10); // max, not sum
    }

    #[test]
    fn cpu_collab_pays_svm_penalty() {
        let (mut mem, mut m, mut r, cost, mut w) = harness();
        let buf = mem.buffer("buf");
        let cpu = WaveInfo {
            class: WaveClass::CpuCollab,
            ..info()
        };
        let mut ctx = WaveCtx::new(&mut mem, &mut m, &mut r, &cost, cpu, &mut w);
        ctx.atomic_add(buf, 0, 1);
        // SVM atomics occupy the atomic unit longer and expose longer
        // latency (the issue slot cost lives in the unit pool).
        assert_eq!(ctx.atomic_ops, cost.svm_penalty);
        assert_eq!(ctx.latency, cost.atomic_latency * cost.svm_penalty);
    }

    #[test]
    fn out_of_bounds_records_fault_and_returns_zero() {
        let (mut mem, mut m, mut r, cost, mut w) = harness();
        let buf = mem.buffer("buf");
        let mut ctx = WaveCtx::new(&mut mem, &mut m, &mut r, &cost, info(), &mut w);
        assert_eq!(ctx.global_read(buf, 99), 0);
        assert!(matches!(ctx.fault, Some(SimError::OutOfBounds { .. })));
    }

    #[test]
    fn abort_keeps_first_reason() {
        let (mut mem, mut m, mut r, cost, mut w) = harness();
        let mut ctx = WaveCtx::new(&mut mem, &mut m, &mut r, &cost, info(), &mut w);
        ctx.abort(AbortReason::QueueFull {
            requested: 10,
            capacity: 8,
        });
        ctx.abort(AbortReason::Watchdog {
            budget: 4,
            round: 4,
        });
        assert_eq!(
            ctx.abort,
            Some(AbortReason::QueueFull {
                requested: 10,
                capacity: 8
            })
        );
    }

    #[test]
    fn lds_atomics_counted_and_cheap() {
        let (mut mem, mut m, mut r, cost, mut w) = harness();
        let mut ctx = WaveCtx::new(&mut mem, &mut m, &mut r, &cost, info(), &mut w);
        ctx.lds_atomics(4);
        assert_eq!(ctx.issue, 4 * cost.lds_atomic);
        assert_eq!(ctx.latency, 0);
        assert_eq!(m.lds_atomics, 4);
    }

    #[test]
    fn atomic_min_and_exchange() {
        let (mut mem, mut m, mut r, cost, mut w) = harness();
        let buf = mem.buffer("buf");
        let mut ctx = WaveCtx::new(&mut mem, &mut m, &mut r, &cost, info(), &mut w);
        ctx.atomic_exchange(buf, 0, 42);
        assert_eq!(ctx.atomic_min(buf, 0, 17), 42);
        assert_eq!(mem.read_u32(buf, 0), 17);
    }

    #[test]
    fn peek_run_matches_per_word_peeks() {
        let (mut mem, mut m, mut r, cost, mut w) = harness();
        let buf = mem.buffer("buf");
        mem.write_u32(buf, 2, 5);
        mem.write_u32(buf, 3, 6);
        let mut ctx = WaveCtx::new(&mut mem, &mut m, &mut r, &cost, info(), &mut w);
        let mut out = Vec::new();
        ctx.peek_run(buf, 2, 2, &mut out);
        assert_eq!(out, vec![5, 6]);
        assert_eq!(ctx.issue, 0, "peek_run is a zero-cost observer");
        // Overrunning the buffer faults and yields nothing.
        ctx.peek_run(buf, 6, 3, &mut out);
        assert!(out.is_empty());
        assert!(matches!(ctx.fault, Some(SimError::OutOfBounds { .. })));
    }

    #[test]
    fn park_watches_capture_their_class() {
        let (mut mem, mut m, mut r, cost, mut w) = harness();
        let buf = mem.buffer("buf");
        mem.write_u32(buf, 1, 9);
        mem.begin_round();
        mem.store(buf, 1, 11).unwrap(); // written this round
        let mut ctx = WaveCtx::new(&mut mem, &mut m, &mut r, &cost, info(), &mut w);
        ctx.park_until_changed(buf, 1); // stale view: still 9
        ctx.park_while_nonzero(buf, 1); // current view: 11, non-zero
        ctx.park_while_nonzero(buf, 0); // already zero: degrades
        let classes: Vec<_> = w.watches.iter().map(|x| (x.class, x.expected)).collect();
        assert_eq!(
            classes,
            vec![
                (WatchClass::StaleEq, 9),
                (WatchClass::NowNonZero, 11),
                (WatchClass::NowEq, 0),
            ]
        );
        assert!(w.holds(&mem));
        // The non-zero class survives any non-zero value...
        mem.store(buf, 1, 3).unwrap();
        assert!(w.holds(&mem));
        // ...and the degraded watch wakes on the first change.
        mem.store(buf, 0, 1).unwrap();
        assert!(!w.holds(&mem));
    }

    #[test]
    fn at_most_watch_tracks_the_stale_bound_and_degrades_past_it() {
        let (mut mem, mut m, mut r, cost, mut w) = harness();
        let buf = mem.buffer("buf");
        mem.write_u32(buf, 1, 4);
        mem.begin_round();
        {
            let mut ctx = WaveCtx::new(&mut mem, &mut m, &mut r, &cost, info(), &mut w);
            ctx.park_while_at_most(buf, 1, 6); // Rear 4, smallest ticket 6
            ctx.park_while_at_most(buf, 1, 3); // already passed: exact value
            assert_eq!(ctx.issue, 0, "registration is free");
        }
        let classes: Vec<_> = w.watches.iter().map(|x| (x.class, x.expected)).collect();
        assert_eq!(
            classes,
            vec![(WatchClass::StaleAtMost, 6), (WatchClass::StaleEq, 4)]
        );
        w.watches.truncate(1);
        // Rear reaches the ticket: ticket 6 itself is still unissued.
        mem.store(buf, 1, 6).unwrap();
        assert!(w.holds(&mem), "this round's writes are not stale-visible");
        mem.begin_round();
        assert!(w.holds(&mem), "Rear 6 has not passed ticket 6");
        mem.store(buf, 1, 7).unwrap();
        mem.begin_round();
        assert!(!w.holds(&mem), "stale Rear 7 passed ticket 6");
    }

    #[test]
    fn observation_is_free_and_blind_to_poison() {
        let (mut mem, mut m, mut r, cost, mut w) = harness();
        let buf = mem.buffer("buf");
        mem.write_u32(buf, 2, 9);
        mem.begin_round();
        mem.store(buf, 2, 11).unwrap();
        let addr = mem.flat_addr(buf, 2).unwrap();
        let mut ctx = WaveCtx::new(&mut mem, &mut m, &mut r, &cost, info(), &mut w);
        assert!(!ctx.poison_armed());
        ctx.memory.arm_poison(addr, 0);
        assert!(ctx.poison_armed());
        assert_eq!(ctx.observe_stale(buf, 2), 9, "round-start value");
        assert!(ctx.fault.is_none(), "the observer never faults");
        assert_eq!((ctx.issue, ctx.latency), (0, 0));
        assert_eq!(ctx.round.cycle_lines(), 0);
        assert_eq!(ctx.metrics.global_mem_ops, 0);
        // The faulting accessor over the same word does fault.
        ctx.peek_stale(buf, 2);
        assert!(ctx.fault.is_some());
    }

    #[test]
    fn empty_watch_tracks_the_relation_and_degrades_when_not_empty() {
        let (mut mem, mut m, mut r, cost, mut w) = harness();
        let buf = mem.buffer("buf");
        // Front = word 0, Rear = word 1; both 4: empty.
        mem.write_u32(buf, 0, 4);
        mem.write_u32(buf, 1, 4);
        mem.begin_round();
        {
            let mut ctx = WaveCtx::new(&mut mem, &mut m, &mut r, &cost, info(), &mut w);
            ctx.park_while_empty(buf, 1, 0);
            // A second relation watch in the same cycle falls back to
            // exact-value watches.
            ctx.park_while_empty(buf, 1, 0);
        }
        assert!(w.empty.is_some());
        assert_eq!(w.watches.len(), 2);
        w.watches.clear();
        assert!(w.holds(&mem));
        // Rear advances this round: invisible to the stale read.
        mem.store(buf, 1, 6).unwrap();
        assert!(w.holds(&mem));
        mem.begin_round();
        assert!(!w.holds(&mem), "stale(Rear) 6 passed now(Front) 4");
        // Front catches up at an earlier rotation position: empty again.
        mem.store(buf, 0, 6).unwrap();
        assert!(w.holds(&mem));

        // Registered while NOT empty: no relation watch, exact values.
        w.clear();
        mem.store(buf, 1, 9).unwrap();
        mem.begin_round();
        let mut ctx = WaveCtx::new(&mut mem, &mut m, &mut r, &cost, info(), &mut w);
        ctx.park_while_empty(buf, 1, 0);
        assert!(w.empty.is_none());
        assert_eq!(w.watches.len(), 2);
    }

    #[test]
    fn audit_scope_counts_and_validates() {
        let (mut mem, mut m, mut r, cost, mut w) = harness();
        let buf = mem.buffer("buf");
        let mut ctx = WaveCtx::new(&mut mem, &mut m, &mut r, &cost, info(), &mut w);
        ctx.audit_begin(OpSpec::new("RF/AN", "enqueue").afa_exact(1));
        ctx.atomic_add(buf, 0, 3);
        ctx.audit_end();
        assert!(ctx.fault.is_none(), "one AFA matches the spec");
        // A CAS inside a retry-free scope is a violation.
        ctx.audit_begin(OpSpec::new("RF/AN", "acquire").afa_exact(0));
        ctx.atomic_cas(buf, 0, 3, 4);
        ctx.audit_end();
        assert!(
            matches!(ctx.fault, Some(SimError::AuditViolation(_))),
            "{:?}",
            ctx.fault
        );
    }

    #[test]
    fn audit_expectations_amend_open_scope() {
        let (mut mem, mut m, mut r, cost, mut w) = harness();
        let buf = mem.buffer("buf");
        let mut ctx = WaveCtx::new(&mut mem, &mut m, &mut r, &cost, info(), &mut w);
        ctx.audit_begin(OpSpec::new("AN", "acquire").allow_empty_retries());
        ctx.audit_expect_cas(1);
        ctx.atomic_cas(buf, 0, 0, 1);
        ctx.count_queue_empty_retries(3);
        ctx.audit_end();
        assert!(ctx.fault.is_none(), "{:?}", ctx.fault);
    }

    #[test]
    fn data_atomics_outside_scopes_are_unaudited() {
        let (mut mem, mut m, mut r, cost, mut w) = harness();
        let buf = mem.buffer("buf");
        let mut ctx = WaveCtx::new(&mut mem, &mut m, &mut r, &cost, info(), &mut w);
        // SSSP's relaxation atomics run between queue ops — no open scope.
        ctx.atomic_min(buf, 0, 5);
        ctx.atomic_cas(buf, 1, 0, 2);
        assert!(ctx.fault.is_none());
        assert!(ctx.audit_scope.is_none());
    }

    #[test]
    fn writes_mark_cycle_unparkable() {
        let (mut mem, mut m, mut r, cost, mut w) = harness();
        let buf = mem.buffer("buf");
        let mut ctx = WaveCtx::new(&mut mem, &mut m, &mut r, &cost, info(), &mut w);
        assert!(!ctx.wrote);
        ctx.poke(buf, 0, 1);
        assert!(ctx.wrote);
    }
}
