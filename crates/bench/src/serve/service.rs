//! The overload-safe serving core.
//!
//! [`Service::run`] drives a seeded [`ArrivalTrace`] through the
//! persistent-thread stack and returns a deterministic [`OutcomeLog`].
//! Determinism at any `--jobs` count comes from a strict two-phase
//! split:
//!
//! 1. **Phase A — profile precompute (parallel).** Each query's full
//!    retry chain is simulated up front with [`execute`]: attempt 0
//!    from a fresh start, each later
//!    attempt resumed from the previous failure's checkpoint with
//!    its pruned fault plan (so a retry replays fewer rounds than a
//!    restart). An attempt depends only on the query, its seeded fault
//!    plan, and the checkpoint chain — never on service state — so the
//!    chains are embarrassingly parallel under [`Sched::par_map`], which
//!    returns them in trace order regardless of worker count.
//! 2. **Phase B — discrete-event replay (serial).** All *scheduling*
//!    decisions — admission, backpressure, shedding, dispatch order,
//!    backoff, quarantine — happen in one serial event loop over
//!    simulated cycles, totally ordered by `(cycle, event class,
//!    sequence number)` with retries beating arrivals on ties. No wall
//!    clock, no thread identity, no map iteration order feeds a
//!    decision.
//!
//! With [`ServiceConfig::max_coresident`] above 1, Phase B drains a whole
//! weighted-DRR window per device occupancy, fuses compatible clean
//! queries into [`QueryBatch`] launches, and overlaps same-kind
//! launches co-resident on the device. Fused units *do* run the engine
//! inside Phase B — safe because a co-resident run is itself
//! deterministic and the unit's composition is a pure function of the
//! trace and the Phase A profiles, so the replay stays byte-identical.
//!
//! The service's retry ladder sits *above* the in-run recovery of
//! [`execute`]: the service's [`RecoveryPolicy`] uses
//! `max_attempts: 0`, so every abort escalates to the service as a typed
//! [`RunFailure`], and the service decides — exponential backoff and
//! re-admission while the retry budget lasts, quarantine with the full
//! [`RecoveryLog`] once it is spent.
//!
//! [`RunFailure`]: pt_bfs::RunFailure

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;

use gpu_queue::device::Design;
use gpu_queue::Variant;
use pt_bfs::workload::{PtWorkload, QueryBatch};
use pt_bfs::{execute, Checkpoint, PtConfig, RecoveryLog, RecoveryPolicy, RunSpec};
use ptq_graph::{Csr, Dataset};
use simt::{AbortReason, FaultPlan, GpuConfig};

use super::admission::{check_query, AdmissionError, AdmissionQueue};
use super::backoff::BackoffSchedule;
use super::outcome::{Disposition, OutcomeLog, QueryOutcome};
use super::trace::{ArrivalTrace, KindVisitor, QuerySpec, WorkloadKind};
use crate::experiments::common::{checked_run, fault_plan, DatasetCache, FAULT_ROUNDS};
use crate::{Scale, Sched};

/// Salt mixed into a query id for its backoff jitter stream.
const BACKOFF_SALT: u64 = 0xBACC_0FF5;

/// Salt mixed into a query id for its fault-plan stream.
const FAULT_SALT: u64 = 0xFA_017;

/// Queue design every query executes on: the segmented variant, which
/// makes execution-side `QueueFull` unreachable.
const DESIGN: Design = Design::Shared(Variant::SegRfAn);

/// Service-level retries after a terminal `RunFailure` before the query
/// is quarantined. Total attempts = `RETRY_BUDGET + 1`.
const RETRY_BUDGET: u32 = 6;

/// First-retry backoff delay in simulated cycles.
const BACKOFF_BASE_CYCLES: u64 = 10_000;

/// Backoff delay ceiling in simulated cycles.
const BACKOFF_CAP_CYCLES: u64 = 2_000_000;

/// Service configuration: the device and the admission and co-scheduling
/// knobs. Every query runs on [`Variant::SegRfAn`], every CU at full
/// occupancy.
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// Simulated device shared by every query.
    pub gpu: GpuConfig,
    /// Base dataset scale; each query's `rel_scale` multiplies into it.
    pub scale: Scale,
    /// Admission backlog bound (queries waiting, across all classes).
    pub backlog_limit: u64,
    /// Most queries one dispatch window drains, and so the most that can
    /// ever share the device at once. `1` dispatches one query per device
    /// occupancy (the classic serial core); above it the replay drains a
    /// whole DRR window per occupancy, fuses compatible clean queries into
    /// [`QueryBatch`] launches, and overlaps same-kind launches co-resident
    /// on the device.
    pub max_coresident: usize,
}

impl ServiceConfig {
    /// The standard serving configuration: the integrated Spectre part
    /// with a 64-query backlog.
    pub fn standard(scale: Scale) -> Self {
        ServiceConfig {
            gpu: GpuConfig::spectre(),
            scale,
            backlog_limit: 64,
            max_coresident: 1,
        }
    }

    /// [`ServiceConfig::standard`] with up to four co-resident queries:
    /// the batched, weighted-fair, overlapping-occupancy core.
    pub fn batched(scale: Scale) -> Self {
        ServiceConfig {
            max_coresident: 4,
            ..Self::standard(scale)
        }
    }

    /// Workgroups per launch: every CU at full occupancy.
    fn workgroups(&self) -> usize {
        self.gpu.num_cus * self.gpu.wgs_per_cu
    }

    /// Most faults of each kind a query may ask for: the seeded plan's
    /// draw space, its rounds times the launch's waves.
    fn fault_draws(&self) -> u64 {
        FAULT_ROUNDS * (self.workgroups() * self.gpu.waves_per_wg) as u64
    }
}

/// One simulated attempt of a query's retry chain.
#[derive(Clone, Debug, PartialEq)]
pub struct AttemptSim {
    /// Whether the attempt completed (true only for the last attempt of
    /// a completed chain).
    pub success: bool,
    /// Simulated device cycles the attempt occupied.
    pub cycles: u64,
    /// Rounds the attempt accounted (committed + lost).
    pub rounds: u64,
    /// The attempt's recovery log.
    pub log: RecoveryLog,
}

/// A query's precomputed retry chain (Phase A output). A query that
/// admission refuses as invalid gets the empty default: no attempts.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ExecutionProfile {
    /// Attempts in order; the last one succeeds iff `completed`.
    pub attempts: Vec<AttemptSim>,
    /// Whether the chain ends in a validated completion.
    pub completed: bool,
    /// Vertices the completed run reached (0 otherwise).
    pub reached: usize,
    /// Admission-time cost estimate: attempt 0's cycles. Used for the
    /// projected-backlog-completion shedding decision.
    pub estimate_cycles: u64,
}

/// One same-signature group of fusable queries drained from a dispatch
/// window; its members fuse into a single [`QueryBatch`] launch, and
/// same-kind groups co-reside on the device as one unit.
#[derive(Clone)]
struct DispatchGroup {
    kind: WorkloadKind,
    dataset: Dataset,
    rel_scale: f64,
    /// Trace indices of the group's members, in drain order.
    members: Vec<usize>,
}

/// The resident multi-query service.
pub struct Service {
    config: ServiceConfig,
}

impl Service {
    /// A service with the given configuration.
    pub fn new(config: ServiceConfig) -> Self {
        Service { config }
    }

    /// The configuration the service runs with.
    pub fn config(&self) -> &ServiceConfig {
        &self.config
    }

    /// Serve a trace end to end: Phase A profile precompute on `sched`,
    /// Phase B serial replay. The returned log is byte-identical at any
    /// `sched` width.
    pub fn run(&self, trace: &ArrivalTrace, sched: &Sched) -> OutcomeLog {
        let profiles = self.profiles(trace, sched);
        self.replay(trace, &profiles)
    }

    /// Phase A: every query's retry chain, in trace order.
    pub fn profiles(&self, trace: &ArrivalTrace, sched: &Sched) -> Vec<ExecutionProfile> {
        sched.par_map(&trace.queries, |_, query| {
            self.profile_query(trace.seed, query)
        })
    }

    /// Simulate one query's full retry chain against its shared CSR.
    fn profile_query(&self, trace_seed: u64, query: &QuerySpec) -> ExecutionProfile {
        if check_query(query, self.config.fault_draws()).is_err() {
            // Admission refuses it: no graph, no plan, no attempts.
            return ExecutionProfile::default();
        }
        let scale = self.config.scale.relative(query.rel_scale);
        let graph = DatasetCache::global().get(query.dataset, scale);
        query.kind.visit(Chain(self, trace_seed, query, &graph))
    }

    /// Phase B: the serial discrete-event replay. Public so callers
    /// that need the Phase A profiles for their own accounting (rounds
    /// simulated, table annotations) can run the phases separately;
    /// `run` is exactly `profiles` + `replay`.
    pub fn replay(&self, trace: &ArrivalTrace, profiles: &[ExecutionProfile]) -> OutcomeLog {
        // Event classes, ordered within a cycle: a retry that became
        // ready beats a fresh arrival.
        const RETRY: u8 = 0;
        const ARRIVAL: u8 = 1;

        struct St {
            attempts: u32,
            in_run_aborts: u64,
            peers: u32,
            done: Option<(Disposition, u64, usize, Option<RecoveryLog>)>,
        }
        let mut st: Vec<St> = trace
            .queries
            .iter()
            .map(|_| St {
                attempts: 0,
                in_run_aborts: 0,
                peers: 0,
                done: None,
            })
            .collect();
        // Events and the admission backlog carry trace indices, not query
        // ids: ids are caller data (a trace may repeat one), indices are
        // unique and resolve in O(1).
        // Min-heap of (cycle, class, seq, qidx); `seq` makes the order a
        // total one.
        let mut heap: BinaryHeap<Reverse<(u64, u8, u64, usize)>> = BinaryHeap::new();
        let mut seq = 0u64;
        for (qidx, q) in trace.queries.iter().enumerate() {
            heap.push(Reverse((q.arrival_cycle, ARRIVAL, seq, qidx)));
            seq += 1;
        }
        let token = |qidx: usize| u32::try_from(qidx).expect("trace fits the admission tokens");

        let mut admission = AdmissionQueue::new(self.config.backlog_limit);
        // Cycle from which the device is next free.
        let mut device_free = 0u64;
        // Sum of the next-attempt cycle estimates of everything queued.
        let mut pending_est = 0u64;
        let mut makespan = 0u64;
        let mut execution_queue_full = 0u64;

        loop {
            // Every event due by the time the device can next dispatch
            // competes for that dispatch slot.
            while heap
                .peek()
                .is_some_and(|Reverse((cycle, ..))| *cycle <= device_free)
            {
                let Reverse((_, class, _, qidx)) = heap.pop().expect("peeked");
                let q = &trace.queries[qidx];
                if class == ARRIVAL {
                    let est = profiles[qidx].estimate_cycles;
                    let projected = device_free.saturating_add(pending_est).saturating_add(est);
                    let verdict = check_query(q, self.config.fault_draws())
                        .and_then(|()| admission.check(q, projected));
                    match verdict {
                        Ok(()) => {
                            admission.push(q.priority, q.tenant, token(qidx));
                            pending_est = pending_est.saturating_add(est);
                        }
                        Err(err) => {
                            let disposition = match err {
                                AdmissionError::InvalidQuery { .. } => Disposition::RejectedInvalid,
                                AdmissionError::QueueFull { .. } => Disposition::RejectedQueueFull,
                                AdmissionError::Shedding { .. } => Disposition::Shed,
                                AdmissionError::Quarantined { .. } => {
                                    Disposition::RejectedQuarantined
                                }
                            };
                            st[qidx].done = Some((disposition, 0, 0, None));
                            makespan = makespan.max(q.arrival_cycle);
                        }
                    }
                } else {
                    // Retry re-admission: the query already holds its
                    // slot, only the backlog estimate changes.
                    let next = st[qidx].attempts as usize;
                    admission.push(q.priority, q.tenant, token(qidx));
                    pending_est = pending_est.saturating_add(profiles[qidx].attempts[next].cycles);
                }
            }

            let backlog = admission.backlog();
            if backlog > 0 {
                // Drain one dispatch window: the fan-out tracks the
                // backlog up to `max_coresident`, so a deep backlog fills
                // the device and a trickle degenerates to serial dispatch
                // without holding queries back to wait for batch-mates.
                // A window of one query dispatches solo (a fused group of
                // one demotes below), which makes `max_coresident == 1`
                // the classic serial core.
                let fanout = usize::try_from(backlog)
                    .unwrap_or(usize::MAX)
                    .clamp(1, self.config.max_coresident.max(1));
                let mut window: Vec<usize> = Vec::with_capacity(fanout);
                while window.len() < fanout {
                    match admission.take_next() {
                        Some((_, qidx)) => window.push(qidx as usize),
                        None => break,
                    }
                }
                let window_start = device_free;

                // Classify the window: deadline sheds drop out, clean
                // first-attempt queries are fusable and group by
                // (workload, dataset, scale) signature, everything else
                // (retries, fault-carrying or watchdog-limited queries)
                // dispatches solo through its Phase A profile.
                let mut solos: Vec<usize> = Vec::new();
                let mut groups: Vec<DispatchGroup> = Vec::new();
                for &qidx in &window {
                    let q = &trace.queries[qidx];
                    let prof = &profiles[qidx];
                    let k = st[qidx].attempts as usize;
                    let est = if k == 0 {
                        prof.estimate_cycles
                    } else {
                        prof.attempts[k].cycles
                    };
                    pending_est = pending_est.saturating_sub(est);
                    if k == 0 && window_start > q.arrival_cycle.saturating_add(q.deadline_cycles) {
                        // The wait alone blew the deadline: shed before
                        // spending device time. Never applied to retries —
                        // committed checkpoints are sunk cost the service
                        // finishes.
                        st[qidx].done =
                            Some((Disposition::Shed, window_start - q.arrival_cycle, 0, None));
                        makespan = makespan.max(window_start);
                        continue;
                    }
                    let fusable = k == 0
                        && q.faults == 0
                        && q.watchdog_rounds == 0
                        && prof.completed
                        && prof.attempts.len() == 1;
                    if !fusable {
                        solos.push(qidx);
                        continue;
                    }
                    match groups.iter_mut().find(|g| {
                        g.kind == q.kind
                            && g.dataset == q.dataset
                            && g.rel_scale.to_bits() == q.rel_scale.to_bits()
                    }) {
                        Some(g) => g.members.push(qidx),
                        None => groups.push(DispatchGroup {
                            kind: q.kind,
                            dataset: q.dataset,
                            rel_scale: q.rel_scale,
                            members: vec![qidx],
                        }),
                    }
                }

                // Same-kind groups co-reside on the device as one unit
                // (each group one fused QueryBatch launch). A kind whose
                // groups hold a single query in total gains nothing from
                // a one-member launch, so it demotes to a solo dispatch
                // through its (identical) profile.
                let mut kinds: Vec<WorkloadKind> = Vec::new();
                for g in &groups {
                    if !kinds.contains(&g.kind) {
                        kinds.push(g.kind);
                    }
                }
                for kind in kinds {
                    let kgroups: Vec<DispatchGroup> =
                        groups.iter().filter(|g| g.kind == kind).cloned().collect();
                    let total: usize = kgroups.iter().map(|g| g.members.len()).sum();
                    if total < 2 {
                        solos.extend(kgroups.iter().flat_map(|g| g.members.iter().copied()));
                        continue;
                    }
                    let start = device_free;
                    let mut unit_end = start;
                    for (g, (cycles, reached)) in
                        kgroups.iter().zip(self.run_fused(trace, kind, &kgroups))
                    {
                        let done_at = start.saturating_add(cycles);
                        unit_end = unit_end.max(done_at);
                        for (&qidx, member_reached) in g.members.iter().zip(reached) {
                            let q = &trace.queries[qidx];
                            assert_eq!(
                                member_reached, profiles[qidx].reached,
                                "fused member diverged from its solo profile"
                            );
                            st[qidx].attempts += 1;
                            st[qidx].peers = total as u32;
                            st[qidx].done = Some((
                                Disposition::Completed,
                                done_at - q.arrival_cycle,
                                member_reached,
                                None,
                            ));
                            makespan = makespan.max(done_at);
                        }
                    }
                    device_free = unit_end;
                }

                // Solo dispatches in drain order on the serial timeline.
                for qidx in solos {
                    let q = &trace.queries[qidx];
                    let prof = &profiles[qidx];
                    let k = st[qidx].attempts as usize;
                    let sim = &prof.attempts[k];
                    let start = device_free;
                    device_free = start.saturating_add(sim.cycles);
                    st[qidx].attempts += 1;
                    st[qidx].peers = 1;
                    st[qidx].in_run_aborts += sim.log.aborts() as u64;
                    execution_queue_full += sim
                        .log
                        .attempts
                        .iter()
                        .filter(|a| matches!(a.reason, AbortReason::QueueFull { .. }))
                        .count() as u64;
                    if sim.success {
                        st[qidx].done = Some((
                            Disposition::Completed,
                            device_free - q.arrival_cycle,
                            prof.reached,
                            None,
                        ));
                        makespan = makespan.max(device_free);
                    } else if k + 1 < prof.attempts.len() {
                        let backoff = BackoffSchedule::new(
                            BACKOFF_BASE_CYCLES,
                            BACKOFF_CAP_CYCLES,
                            trace.seed
                                ^ u64::from(q.id).wrapping_mul(0x9E37_79B9_7F4A_7C15)
                                ^ BACKOFF_SALT,
                        );
                        let ready = device_free.saturating_add(backoff.delay(k as u32));
                        heap.push(Reverse((ready, RETRY, seq, qidx)));
                        seq += 1;
                    } else {
                        // Retry budget spent: isolate the query with its
                        // evidence and keep serving everything else.
                        admission.quarantine(q.signature(), q.id);
                        st[qidx].done = Some((
                            Disposition::Quarantined,
                            device_free - q.arrival_cycle,
                            0,
                            Some(sim.log.clone()),
                        ));
                        makespan = makespan.max(device_free);
                    }
                }
                continue;
            }

            // Device idle and nothing ready: jump to the next event.
            match heap.pop() {
                Some(Reverse((cycle, class, sq, qidx))) => {
                    device_free = device_free.max(cycle);
                    // Re-queue and let the drain loop above handle it at
                    // the advanced clock (it is now due by definition).
                    heap.push(Reverse((cycle, class, sq, qidx)));
                }
                None => break,
            }
        }

        let mut outcomes: Vec<QueryOutcome> = trace
            .queries
            .iter()
            .zip(st)
            .map(|(q, s)| {
                let (disposition, latency_cycles, reached, recovery) =
                    s.done.expect("every query must reach a terminal state");
                QueryOutcome {
                    id: q.id,
                    workload: q.kind.label(),
                    dataset: q.dataset.spec().name,
                    priority: q.priority,
                    tenant: q.tenant,
                    disposition,
                    attempts: s.attempts,
                    batch_peers: s.peers,
                    in_run_aborts: s.in_run_aborts,
                    latency_cycles,
                    reached,
                    recovery,
                }
            })
            .collect();
        outcomes.sort_by_key(|o| o.id);

        OutcomeLog {
            outcomes,
            makespan_cycles: makespan,
            admission_errors: admission.enqueue_errors(),
            execution_queue_full,
            admission_segments: admission.fresh_segments(),
        }
    }

    /// Execute one co-resident unit: `groups` (all of `kind`) each fuse
    /// into a [`QueryBatch`] and launch together on the simulated
    /// device as one [`execute`] launch group. Returns, per group,
    /// its launch's occupied cycles and the per-member reached counts.
    /// Deterministic at any engine-worker count, so Phase B can run the
    /// engine here without breaking the byte-identical replay.
    fn run_fused(
        &self,
        trace: &ArrivalTrace,
        kind: WorkloadKind,
        groups: &[DispatchGroup],
    ) -> Vec<(u64, Vec<usize>)> {
        kind.visit(Fused(self, trace, groups))
    }
}

/// Phase A for one query (service, trace seed, query, its graph): the
/// attempt ladder on the workload its kind builds — a fresh start, then
/// checkpoint-resumed retries until success or budget exhaustion.
struct Chain<'a>(&'a Service, u64, &'a QuerySpec, &'a Csr);

impl KindVisitor for Chain<'_> {
    type Output = ExecutionProfile;
    fn visit<W: PtWorkload>(self, make: impl Fn(&Csr, u32) -> W) -> ExecutionProfile {
        let Chain(service, trace_seed, query, graph) = self;
        let (gpu, workgroups) = (&service.config.gpu, service.config.workgroups());
        let n = graph.num_vertices();
        let workload = &make(graph, (query.source_salt as usize % n.max(1)) as u32);
        let config = PtConfig::for_workload(workload, DESIGN, workgroups);
        // `max_attempts: 0` hands every abort to the service; a query's
        // own watchdog budget (0 = none) bounds each epoch.
        let policy = RecoveryPolicy {
            max_attempts: 0,
            checkpoint_levels: 4,
            watchdog_rounds: query.watchdog_rounds,
            ..RecoveryPolicy::default()
        };
        let mut plan = if query.faults == 0 {
            FaultPlan::EMPTY
        } else {
            let seed = trace_seed ^ (u64::from(query.id) << 17) ^ FAULT_SALT;
            fault_plan(seed, gpu, workgroups, query.faults, workload, n)
        };
        let mut attempts: Vec<AttemptSim> = Vec::new();
        let solo = [(graph, workload)];
        let mut checkpoint: Option<Checkpoint> = None;
        for _ in 0..=RETRY_BUDGET {
            let spec = RunSpec {
                plan: &plan,
                start: checkpoint.as_ref(),
                ..RunSpec::new(&solo, &config, &policy)
            };
            match execute(gpu, spec) {
                Ok(mut runs) => {
                    let run = checked_run(
                        format_args!("serve on {}", query.dataset.spec().name),
                        Ok(runs.swap_remove(0)),
                        graph,
                        workload,
                    );
                    attempts.push(AttemptSim {
                        success: true,
                        cycles: gpu.seconds_to_cycles(run.seconds),
                        rounds: run.metrics.rounds,
                        log: run.recovery,
                    });
                    let estimate_cycles = attempts[0].cycles;
                    return ExecutionProfile {
                        attempts,
                        completed: true,
                        reached: run.reached,
                        estimate_cycles,
                    };
                }
                Err(failure) => {
                    let failure = *failure;
                    attempts.push(AttemptSim {
                        success: false,
                        cycles: gpu.seconds_to_cycles(failure.seconds),
                        rounds: failure.log.rounds_committed + failure.log.rounds_lost,
                        log: failure.log,
                    });
                    // The next attempt replays only from the last good
                    // checkpoint (the one it started from if it committed
                    // none), against the already-fired faults' pruned plan.
                    checkpoint = failure.checkpoint.or(checkpoint);
                    plan = failure.remaining_plan;
                }
            }
        }
        let estimate_cycles = attempts[0].cycles;
        ExecutionProfile {
            attempts,
            completed: false,
            reached: 0,
            estimate_cycles,
        }
    }
}

/// A co-resident unit's fused launches (service, trace, the unit's
/// groups), for the workload its kind builds.
struct Fused<'a>(&'a Service, &'a ArrivalTrace, &'a [DispatchGroup]);

impl KindVisitor for Fused<'_> {
    type Output = Vec<(u64, Vec<usize>)>;
    fn visit<W: PtWorkload>(self, make: impl Fn(&Csr, u32) -> W) -> Self::Output {
        let Fused(service, trace, groups) = self;
        let graphs: Vec<Arc<Csr>> = groups
            .iter()
            .map(|g| {
                let scale = service.config.scale.relative(g.rel_scale);
                DatasetCache::global().get(g.dataset, scale)
            })
            .collect();
        let batches: Vec<QueryBatch<W>> = groups
            .iter()
            .zip(&graphs)
            .map(|(g, graph)| {
                let n = graph.num_vertices();
                let members: Vec<W> = g
                    .members
                    .iter()
                    .map(|&qidx| {
                        let source = (trace.queries[qidx].source_salt as usize % n.max(1)) as u32;
                        make(graph, source)
                    })
                    .collect();
                QueryBatch::new(members, n)
            })
            .collect();
        let entries: Vec<(&Csr, &QueryBatch<W>)> =
            graphs.iter().map(Arc::as_ref).zip(&batches).collect();
        // One config for the unit, started at its smallest batch's own
        // capacity factor (the launch floors each larger batch at its own).
        let mut config = PtConfig::new(DESIGN, service.config.workgroups());
        let own = batches.iter().map(|b| b.default_capacity_factor());
        let smallest = own.fold(f64::INFINITY, f64::min);
        config.capacity_factor = config.capacity_factor.max(smallest);
        let policy = RecoveryPolicy::regrow_only(config.capacity_factor);
        let name = batches[0].name();
        let runs = execute(
            &service.config.gpu,
            RunSpec::new(&entries, &config, &policy),
        )
        .unwrap_or_else(|f| panic!("serve: co-resident {name} unit failed: {}", f.error));
        runs.into_iter()
            .zip(&entries)
            .zip(groups)
            .map(|((run, &(graph, batch)), g)| {
                let dataset = g.dataset.spec().name;
                let run = checked_run(
                    format_args!("serve: fused on {dataset}"),
                    Ok(run),
                    graph,
                    batch,
                );
                let reached = (0..batch.len())
                    .map(|i| batch.members()[i].reached(batch.member_values(&run.values, i)))
                    .collect();
                (service.config.gpu.seconds_to_cycles(run.seconds), reached)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serve::TraceParams;
    use pt_bfs::workload::Bfs;

    const POOL: &[(Dataset, f64)] = &[(Dataset::RoadNY, 0.05), (Dataset::Synthetic, 0.002)];

    fn tiny_trace(seed: u64) -> ArrivalTrace {
        ArrivalTrace::seeded(
            seed,
            &TraceParams {
                queries: 4,
                mean_gap_cycles: 500_000,
                deadline_range: (u64::MAX / 8, u64::MAX / 4),
                datasets: POOL,
                fault_every: 0,
                faults_per_query: 0,
            },
        )
    }

    #[test]
    fn steady_trace_completes_every_query_identically_at_any_width() {
        let service = Service::new(ServiceConfig::standard(Scale::new(0.02)));
        let trace = tiny_trace(0x5EED);
        let serial = service.run(&trace, &Sched::serial());
        for o in &serial.outcomes {
            assert_eq!(o.disposition, Disposition::Completed, "query {}", o.id);
            assert_eq!(o.attempts, 1);
            assert!(o.reached > 0);
            assert!(o.latency_cycles > 0);
        }
        assert_eq!(serial.admission_errors, 0);
        assert_eq!(serial.execution_queue_full, 0);
        let parallel = service.run(&trace, &Sched::new(4));
        assert_eq!(serial, parallel);
    }

    #[test]
    fn a_lone_fused_batch_is_sized_like_its_solo_run() {
        // One group in the unit: the fused launch must be the batch's own
        // `run_workload` — queue sized from the *batch's* capacity factor
        // (members x the solo one), not the unit config's — cycle for cycle.
        let service = Service::new(ServiceConfig::batched(Scale::new(0.02)));
        let mut trace = tiny_trace(0x5EED);
        for query in &mut trace.queries {
            (query.kind, query.dataset, query.rel_scale) =
                (WorkloadKind::Bfs, Dataset::RoadNY, 0.5);
        }
        let group = DispatchGroup {
            kind: WorkloadKind::Bfs,
            dataset: Dataset::RoadNY,
            rel_scale: 0.5,
            members: vec![0, 1, 2],
        };
        let fused = service.run_fused(&trace, WorkloadKind::Bfs, &[group]);

        let config = service.config();
        let graph = DatasetCache::global().get(Dataset::RoadNY, Scale::new(0.02 * 0.5));
        let n = graph.num_vertices();
        let source = |q: usize| (trace.queries[q].source_salt as usize % n) as u32;
        let batch = QueryBatch::new((0..3).map(|q| Bfs::new(source(q))).collect(), n);
        let solo_config = PtConfig::for_workload(&batch, DESIGN, config.workgroups());
        let solo = pt_bfs::run_workload(&config.gpu, &graph, &batch, &solo_config).unwrap();
        assert_eq!(fused[0].0, config.gpu.seconds_to_cycles(solo.seconds));
    }

    fn burst_trace(seed: u64, queries: usize) -> ArrivalTrace {
        ArrivalTrace::seeded(
            seed,
            &TraceParams {
                queries,
                mean_gap_cycles: 1_000,
                deadline_range: (u64::MAX / 8, u64::MAX / 4),
                datasets: POOL,
                fault_every: 0,
                faults_per_query: 0,
            },
        )
    }

    #[test]
    fn batched_core_matches_serial_outcomes_and_is_worker_invariant() {
        // A burst with generous deadlines: the batched core drains
        // multi-query windows and fuses same-kind arrivals, yet every
        // query must land the same terminal state and reached count as
        // under the serial core — batching changes *when* work runs,
        // never *what* it computes.
        let trace = burst_trace(0xBA7C, 8);
        let serial_log =
            Service::new(ServiceConfig::standard(Scale::new(0.02))).run(&trace, &Sched::serial());
        let batched = Service::new(ServiceConfig::batched(Scale::new(0.02)));
        let log = batched.run(&trace, &Sched::serial());
        assert!(
            log.outcomes.iter().any(|o| o.batch_peers > 1),
            "the burst must actually fuse something"
        );
        for (b, s) in log.outcomes.iter().zip(&serial_log.outcomes) {
            assert_eq!(b.disposition, Disposition::Completed, "query {}", b.id);
            assert_eq!(b.reached, s.reached, "query {}", b.id);
            assert_eq!(b.tenant, s.tenant);
        }
        // Fused units run the engine inside Phase B; the log must still
        // be byte-identical at any jobs count.
        let parallel = batched.run(&trace, &Sched::new(4));
        assert_eq!(log, parallel);
    }

    #[test]
    fn resubmission_arriving_before_quarantine_runs_on_its_own_budget() {
        // The resubmission lands while the original poison query is
        // still climbing its backoff ladder — no quarantine exists yet,
        // so it is admitted and burns its own retry budget instead of
        // being rejected at the door.
        let service = Service::new(ServiceConfig::standard(Scale::new(0.02)));
        let mut trace = tiny_trace(0x0DD);
        let poison = trace.push_poison(WorkloadKind::Bfs, Dataset::RoadNY, 0.05, 2, 100_000);
        let resub = trace.push_resubmission(poison, 1_000);
        let log = service.run(&trace, &Sched::serial());
        let r = &log.outcomes[resub as usize];
        assert_eq!(r.disposition, Disposition::Quarantined);
        assert_eq!(r.attempts, RETRY_BUDGET + 1);
        assert!(r.recovery.is_some());
    }

    #[test]
    fn poison_query_is_quarantined_and_its_resubmission_rejected() {
        let service = Service::new(ServiceConfig::standard(Scale::new(0.02)));
        let mut trace = tiny_trace(0x0DD);
        let poison = trace.push_poison(WorkloadKind::Bfs, Dataset::RoadNY, 0.05, 2, 100_000);
        // The resubmission arrives well after the poison query's backoff
        // ladder (~630k cycles) has run dry, so it meets the quarantine.
        let resub = trace.push_resubmission(poison, 50_000_000);
        let log = service.run(&trace, &Sched::serial());
        let p = &log.outcomes[poison as usize];
        assert_eq!(p.disposition, Disposition::Quarantined);
        assert_eq!(p.attempts, RETRY_BUDGET + 1);
        let evidence = p.recovery.as_ref().expect("quarantine keeps the log");
        assert!(evidence
            .attempts
            .iter()
            .all(|a| matches!(a.reason, AbortReason::Watchdog { .. })));
        let r = &log.outcomes[resub as usize];
        assert_eq!(r.disposition, Disposition::RejectedQuarantined);
        assert_eq!(r.attempts, 0);
        // Quarantine isolates the signature, not the service: every
        // other query still completes.
        for o in &log.outcomes {
            if o.id != poison && o.id != resub {
                assert_eq!(o.disposition, Disposition::Completed, "query {}", o.id);
            }
        }
    }
}
