//! The one run path: a policy-driven retry/epoch loop over the launch
//! primitive, generic over the workload.
//!
//! The paper's only recovery story is capacity regrow: "If more space can
//! be allocated, the user can retry the kernel with a larger queue." This
//! module generalizes that into a [`RecoveryPolicy`] — bounded attempts,
//! geometric capacity regrow, per-attempt backoff in simulated cycles,
//! and a per-epoch watchdog — and adds *checkpointing* so a failed launch
//! does not restart the traversal from scratch. [`execute`] is the single
//! loop behind every entry point; the paper's plain run is the policy
//! value [`RecoveryPolicy::regrow_only`], not a sibling code path.
//!
//! # Value-fenced epochs
//!
//! A persistent kernel normally runs the whole traversal in one launch,
//! so there is no iteration-safe point to snapshot: an abort mid-launch
//! leaves tokens half-expanded (a lane clears the on-queue bit before
//! walking the adjacency list, so its unexpanded edges are unrecoverable
//! from device state). Instead, a policy with a finite checkpoint stride
//! *fences* each launch at a claim value (see
//! [`crate::kernel::SpillFence`]): discoveries claimed past the fence
//! are claimed as usual (value atomic-min + on-queue bit) but parked in a
//! spill buffer rather than the scheduler queue. Each launch therefore
//! terminates at a frontier boundary — `pending == 0` with nothing
//! half-expanded — and the host snapshots a [`Checkpoint`]: the value
//! array, the on-queue bits, and the spilled frontier. The next epoch
//! relaunches from that snapshot.
//!
//! The fence unit is whatever the workload's claim word measures: BFS
//! levels, SSSP distances (weights ≥ 1 keep each epoch's round count
//! bounded), component labels for min-label CC. Max-directed workloads
//! ([`crate::workload::Claim::Max`]) never spill — their claim values
//! only grow away from the fence — so they degenerate to one launch per
//! run and recover by scratch restart.
//!
//! A stride of `u32::MAX` means *no fence at all*: no spill buffer, no
//! snapshot read back or materialised host-side — the launch is
//! byte-for-byte the paper's plain host program, and an abort restarts
//! it from its borrowed start state.
//!
//! On an abort (queue-full, injected fault, watchdog) the epoch is
//! retried from the last checkpoint, so only the current epoch's rounds
//! are lost, not the whole run. Because every workload on the core is
//! label-correcting (a directed atomic claim converges to its unique
//! fixed point in any execution order), a recovered run produces values
//! **byte-identical** to an uninterrupted one — the integration tests pin
//! this for BFS and SSSP.
//!
//! Faults are transient: after an injected-fault abort the plan is pruned
//! with [`FaultPlan::expire_through`], so the retry makes progress. A
//! caller-supplied snapshot is validated before the first launch (shape,
//! sentinel collisions), so a corrupt one surfaces as a typed error
//! instead of poisoning a device launch.

use crate::runner::{launch, queue_capacity, PhaseWalls, PtConfig, Run};
use crate::workload::PtWorkload;
use gpu_queue::DNA;
use ptq_graph::Csr;
use simt::{AbortReason, FaultPlan, GpuConfig, SimError, ROUND_LIMIT};

/// Multiplier applied to the capacity factor on a queue-full abort: the
/// paper's "retry the kernel with a larger queue" as doubling.
const CAPACITY_REGROW: f64 = 2.0;

/// How a run reacts to aborts, and how often it checkpoints.
#[derive(Clone, Debug, PartialEq)]
pub struct RecoveryPolicy {
    /// Total relaunch attempts allowed across the run; the abort that
    /// exhausts the budget propagates as the run's error.
    pub max_attempts: u32,
    /// Ceiling on the capacity factor (multiple of the vertex count). A
    /// queue-full abort at the ceiling is terminal at once: relaunching
    /// at the same capacity would abort identically.
    pub max_capacity_factor: f64,
    /// Simulated backoff cycles added per retry: attempt `k` waits
    /// `k * backoff_cycles` before relaunching (charged to the run's
    /// simulated seconds, recorded in the log).
    pub backoff_cycles: u64,
    /// Claim-value units per epoch — the checkpoint stride (BFS levels,
    /// SSSP distance, CC label range). Small strides bound lost work
    /// tightly; `u32::MAX` is one unfenced launch (recovery then
    /// restarts from scratch, like [`crate::run_workload`]).
    pub checkpoint_levels: u32,
    /// Per-epoch round budget. An epoch exceeding it aborts with
    /// [`AbortReason::Watchdog`] and retries with a doubled budget.
    /// `0` disables the watchdog (the launch-wide [`ROUND_LIMIT`] still
    /// applies, but exceeding *that* is a hard non-termination error, not
    /// a recoverable abort).
    pub watchdog_rounds: u64,
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        RecoveryPolicy {
            max_attempts: 8,
            max_capacity_factor: 32.0,
            backoff_cycles: 1_000,
            checkpoint_levels: 4,
            watchdog_rounds: 0,
        }
    }
}

impl RecoveryPolicy {
    /// The paper's host program as a policy value: one unfenced launch,
    /// the capacity doubled on each queue-full abort up to 16× the
    /// starting `factor`, no backoff, no watchdog.
    pub fn regrow_only(factor: f64) -> Self {
        RecoveryPolicy {
            max_capacity_factor: 16.0 * factor,
            backoff_cycles: 0,
            checkpoint_levels: u32::MAX,
            ..RecoveryPolicy::default()
        }
    }

    /// The queue-full regrow rule — "retry the kernel with a larger
    /// queue": the next capacity factor after `factor`, or `None` once it
    /// cannot grow (the ceiling is reached, or `factor` is not positive).
    fn regrown(&self, factor: f64) -> Option<f64> {
        let next = (factor * CAPACITY_REGROW).min(self.max_capacity_factor);
        (next > factor).then_some(next)
    }
}

/// One logged relaunch: why the previous attempt died and what the
/// policy changed before retrying.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RecoveryAttempt {
    /// Epoch (checkpoint interval) in which the abort happened.
    pub epoch: u32,
    /// 1-based attempt number across the whole run.
    pub attempt: u32,
    /// Structured abort classification.
    pub reason: AbortReason,
    /// Rounds executed by the aborted launch — work thrown away.
    pub rounds_lost: u64,
    /// Simulated backoff charged before the relaunch.
    pub backoff_cycles: u64,
    /// Capacity factor the aborted launch ran with.
    pub capacity_factor: f64,
}

/// The recovery log a run's report carries: every abort/relaunch, plus
/// aggregate lost/replayed round accounting.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RecoveryLog {
    /// Every abort the run recovered from, in order.
    pub attempts: Vec<RecoveryAttempt>,
    /// Checkpoints taken (resume points with a non-empty frontier).
    pub checkpoints: u32,
    /// Epochs (launches) that completed successfully.
    pub epochs: u32,
    /// Rounds executed by aborted launches (discarded work).
    pub rounds_lost: u64,
    /// Rounds re-executed by the successful retries of epochs that had
    /// previously aborted — the cost of recovery. Checkpointing exists to
    /// make this small: a from-scratch restart replays the whole run.
    pub rounds_replayed: u64,
    /// Rounds of successful epochs (committed forward progress).
    pub rounds_committed: u64,
    /// Capacity factor the run finished with (grown on queue-full).
    pub final_capacity_factor: f64,
}

impl RecoveryLog {
    /// Number of aborts the run survived.
    pub fn aborts(&self) -> usize {
        self.attempts.len()
    }
}

/// A resumable snapshot taken at a frontier boundary (end of a fenced
/// epoch): nothing in it is half-expanded, so a relaunch seeded from it
/// is indistinguishable from a run that never stopped.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Checkpoint {
    /// Per-vertex value array (exact up to `depth` for min-claims,
    /// claimed upper bounds beyond it).
    pub values: Vec<u32>,
    /// Per-vertex on-queue bits (1 exactly for `frontier` members).
    pub inqueue: Vec<u32>,
    /// Spilled frontier: vertices claimed past the fence, to seed the
    /// next epoch's queue.
    pub frontier: Vec<u32>,
    /// Deepest claim value the completed epochs scheduled through the
    /// queue (BFS level, SSSP distance, …).
    pub depth: u32,
    /// Rounds committed by the epochs behind this snapshot.
    pub rounds_committed: u64,
}

/// Everything [`execute`] needs to know about a run.
pub struct RunSpec<'a, W> {
    /// The launch group, one `(graph, workload)` per member. One member
    /// is a solo run; several run *co-resident* on the one simulated
    /// device, each reported in its own [`Run`] (own metrics, values and
    /// makespan — the cycle its last wave retired — so per-query latency
    /// under contention falls straight out). A group shares `config`, so
    /// each member's queue is sized from the larger of
    /// `config.capacity_factor` and its own workload's default factor.
    pub launches: &'a [(&'a Csr, &'a W)],
    /// Launch geometry, queue design and starting capacity factor.
    pub config: &'a PtConfig,
    /// What to do on an abort, and whether to checkpoint.
    pub policy: &'a RecoveryPolicy,
    /// Deterministic fault injection ([`FaultPlan::EMPTY`] for none).
    pub plan: &'a FaultPlan,
    /// Snapshot to resume from rather than restart; `None` starts from
    /// the workload's seeds. The state is borrowed either way.
    pub start: Option<&'a Checkpoint>,
}

/// [`FaultPlan::EMPTY`] with an address (`RunSpec::plan` borrows).
static NO_FAULTS: FaultPlan = FaultPlan::EMPTY;

impl<'a, W> RunSpec<'a, W> {
    /// A fault-free run of `launches` from their seeds; override the
    /// remaining fields with struct-update syntax.
    pub fn new(
        launches: &'a [(&'a Csr, &'a W)],
        config: &'a PtConfig,
        policy: &'a RecoveryPolicy,
    ) -> Self {
        RunSpec {
            launches,
            config,
            policy,
            plan: &NO_FAULTS,
            start: None,
        }
    }
}

impl<W: PtWorkload> RunSpec<'_, W> {
    /// Nominal queue capacity of member `l` at capacity factor `factor`.
    /// A group shares one config, so its factor is a floor under each
    /// member's own default, not an override of it.
    pub(crate) fn capacity(&self, l: usize, factor: f64) -> u32 {
        let (graph, workload) = self.launches[l];
        let factor = match self.launches.len() > 1 {
            true => factor.max(workload.default_capacity_factor()),
            false => factor,
        };
        queue_capacity(graph.num_vertices(), factor)
    }
}

/// Everything a supervisor needs to *continue* after a run exhausted its
/// in-run budget. A serving layer retries by feeding `checkpoint` and
/// `remaining_plan` back into [`execute`] — replaying only the aborted
/// epoch, not the whole run — or quarantines the query with `log` as the
/// evidence.
#[derive(Clone, Debug)]
pub struct RunFailure {
    /// The terminal error (the abort that exhausted `max_attempts`, or
    /// a non-recoverable simulator error).
    pub error: SimError,
    /// The recovery log up to and including the fatal attempt.
    pub log: RecoveryLog,
    /// The last snapshot this run committed — resume here, not from
    /// scratch. `None` if none: resume from `RunSpec::start` again.
    pub checkpoint: Option<Checkpoint>,
    /// The fault plan with everything that fired already pruned
    /// ([`FaultPlan::expire_through`]), so a resume makes progress.
    pub remaining_plan: FaultPlan,
    /// Simulated seconds consumed by the failed run (committed epochs
    /// plus backoff).
    pub seconds: f64,
}

/// What the retry/epoch loop carries from launch to launch, and what the
/// launch primitive reads the next launch from.
pub(crate) struct Progress {
    /// Last snapshot this run committed (fenced runs only); the next
    /// launch resumes from it, else from `RunSpec::start`, else afresh.
    pub checkpoint: Option<Checkpoint>,
    /// Epoch fence of the next launch; `None` runs to completion.
    pub fence: Option<u32>,
    /// Capacity factor, as regrown so far.
    pub factor: f64,
    /// Round budget of the next launch: the watchdog's, doubled so far.
    pub max_rounds: u64,
    /// Faults still to fire.
    pub plan: FaultPlan,
    /// Per-member accumulation over the committed epochs. Every member
    /// carries the whole log: a group aborts and retries as one.
    pub runs: Vec<Run>,
    pub phases: PhaseWalls,
}

/// The one run path: runs `spec.launches` to completion under
/// `spec.policy` — epochs of `policy.checkpoint_levels` claim-value
/// units, each checkpointed, each retried from its checkpoint on abort,
/// with the deterministic `spec.plan` injecting faults — and returns one
/// [`Run`] per member, whose [`Run::recovery`] log records every abort
/// survived.
///
/// # Errors
/// A [`RunFailure`] — the last committed checkpoint, the pruned fault
/// plan and the complete recovery log beside the [`SimError`], so a
/// supervisor can keep its own retry budget above the policy's — when
/// `policy.max_attempts` is exhausted or the queue cannot regrow any
/// further, and at once for non-recoverable errors (out-of-bounds, audit
/// violations, hard round-limit overruns). Never a panic: a spec that
/// cannot be launched — an empty group; a zero checkpoint stride or edge
/// chunk; a fault plan, CPU collaboration or checkpointing with more than one
/// member; seeds outside the graph; a `spec.start` that does not fit the
/// graph or carries the queue's sentinel as a token — is a
/// [`SimError::InvalidLaunch`] naming the cause, so callers can degrade
/// it into a logged restart.
pub fn execute<W: PtWorkload>(
    gpu: &GpuConfig,
    spec: RunSpec<'_, W>,
) -> Result<Vec<Run>, Box<RunFailure>> {
    let mut progress = Progress {
        checkpoint: None,
        fence: None,
        factor: spec.config.capacity_factor,
        // `0` disables the watchdog: only the launch-wide limit applies.
        max_rounds: match spec.policy.watchdog_rounds {
            0 => ROUND_LIMIT,
            budget => budget,
        },
        plan: spec.plan.clone(),
        runs: vec![Run::default(); spec.launches.len()],
        phases: PhaseWalls::default(),
    };
    let outcome = drive(gpu, &spec, &mut progress);
    let mut runs = progress.runs;
    if let (Ok(()), Some(last)) = (&outcome, &mut progress.checkpoint) {
        runs[0].values = std::mem::take(&mut last.values);
    }
    for (run, (_, workload)) in runs.iter_mut().zip(spec.launches) {
        run.reached = workload.reached(&run.values);
        run.recovery.final_capacity_factor = progress.factor;
        run.phases = progress.phases;
    }
    let Err(error) = outcome else {
        return Ok(runs);
    };
    // Co-resident members share the log and, as a group commits nothing
    // before it commits all, the clock: the first speaks.
    let first = runs.into_iter().next().unwrap_or_default();
    Err(Box::new(RunFailure {
        error,
        log: first.recovery,
        checkpoint: progress.checkpoint,
        remaining_plan: progress.plan,
        seconds: first.seconds,
    }))
}

/// Names what makes `spec` unlaunchable, if anything does.
fn unlaunchable<W: PtWorkload>(spec: &RunSpec<'_, W>, seeds: &[Vec<u32>]) -> Option<String> {
    let (k, stride) = (spec.launches.len(), spec.policy.checkpoint_levels);
    // Faults address waves and buffer names of *one* launch, CPU
    // collaboration is a solo-baseline feature, and a fence or a
    // snapshot belongs to one traversal.
    let solo_only = if !spec.plan.is_empty() {
        Some("a non-empty fault plan")
    } else if spec.config.cpu_collab_groups != 0 {
        Some("CPU collaboration")
    } else if stride != u32::MAX || spec.start.is_some() {
        Some("checkpoint/resume")
    } else {
        None
    };
    if k == 0 {
        return Some("empty launch group".into());
    } else if stride == 0 {
        return Some("checkpoint stride must be positive".into());
    } else if spec.config.chunk == 0 {
        return Some("edge chunk per lane must be positive".into());
    } else if let Some(what) = solo_only.filter(|_| k > 1) {
        return Some(format!(
            "{what} is single-launch only, got {k} co-resident launches"
        ));
    }
    let slots = |l: usize| {
        let (graph, workload) = spec.launches[l];
        workload.state_len(graph.num_vertices())
    };
    if let Some(snapshot) = spec.start {
        // A snapshot from the wrong graph or workload shape, a truncated
        // or a tampered one: the caller can log it and restart afresh. A
        // frontier token indexes the state slots, so it must be one (and
        // never the dna sentinel).
        let (values, bits, slots) = (snapshot.values.len(), snapshot.inqueue.len(), slots(0));
        let stray = snapshot
            .frontier
            .iter()
            .find(|&&t| t == DNA || t as usize >= slots);
        if values != slots || bits != slots {
            return Some(format!(
                "corrupt checkpoint: {values} values / {bits} inqueue bits against {slots} state slots"
            ));
        } else if let Some(t) = stray {
            return Some(format!(
                "corrupt checkpoint: frontier token {t} is outside the {slots} state slots"
            ));
        }
    }
    seeds.iter().enumerate().find_map(|(l, seeds)| {
        let slots = slots(l);
        let stray = seeds.iter().find(|&&seed| seed as usize >= slots)?;
        Some(format!(
            "launch {l}: seed {stray} is outside the {slots} state slots of its graph"
        ))
    })
}

/// The retry/epoch loop behind [`execute`]: launches until the frontier
/// is empty; what a caller gets back, either way, is left in `progress`.
fn drive<W: PtWorkload>(
    gpu: &GpuConfig,
    spec: &RunSpec<'_, W>,
    progress: &mut Progress,
) -> Result<(), SimError> {
    let (config, policy) = (spec.config, spec.policy);
    // Seeds are constant across retries: computed once, borrowed by
    // every fresh-start launch.
    let seeds = |(graph, workload): &(&Csr, &W)| workload.seeds(graph.num_vertices());
    let seeds: Vec<Vec<u32>> = spec.launches.iter().map(seeds).collect();
    if let Some(cause) = unlaunchable(spec, &seeds) {
        return Err(SimError::InvalidLaunch(cause));
    }
    let fenced = policy.checkpoint_levels != u32::MAX;
    loop {
        let resume = progress.checkpoint.as_ref().or(spec.start);
        let (depth, rounds_behind) = resume.map_or((0, 0), |c| (c.depth, c.rounds_committed));
        let fence = fenced.then(|| depth.saturating_add(policy.checkpoint_levels));
        // Every member's start frontier (its seeds, `spec.start` or the
        // last checkpoint) must fit what its design can be seeded with
        // before any device state is built: one that does not regrows
        // capacity host-side (no device attempt consumed).
        let overflow = (0..spec.launches.len()).find_map(|l| {
            let frontier = resume.map_or(seeds[l].len(), |c| c.frontier.len());
            let capacity = config
                .design
                .seed_capacity(spec.capacity(l, progress.factor));
            (frontier > capacity as usize).then_some((frontier, capacity))
        });
        if let Some((frontier, capacity)) = overflow {
            if let Some(grown) = policy.regrown(progress.factor) {
                progress.factor = grown;
                continue;
            }
            let reason = AbortReason::QueueFull {
                requested: frontier as u64,
                capacity,
            };
            return Err(SimError::KernelAbort { reason, round: 0 });
        }
        progress.fence = fence;

        match launch(gpu, spec, &seeds, progress) {
            Ok(launched) => {
                for (run, out) in progress.runs.iter_mut().zip(launched) {
                    run.metrics.merge(&out.report.metrics);
                    run.profile.merge(&out.report.profile);
                    run.seconds += out.report.seconds;
                    run.round_bounds.merge(&out.report.round_bounds);
                    let cycles = &out.report.per_cu_cycles;
                    let units = cycles.len().max(run.per_cu_cycles.len());
                    run.per_cu_cycles.resize(units, 0);
                    for (total, add) in run.per_cu_cycles.iter_mut().zip(cycles) {
                        *total += add;
                    }
                    let (log, rounds) = (&mut run.recovery, out.report.metrics.rounds);
                    log.epochs += 1;
                    log.rounds_committed += rounds;
                    // An epoch that had aborted commits its rounds as a replay.
                    if log.attempts.last().map(|a| a.epoch) == Some(log.checkpoints) {
                        log.rounds_replayed += rounds;
                    }
                    match (fence, out.snapshot) {
                        (Some(depth), Some((inqueue, frontier))) => {
                            progress.checkpoint = Some(Checkpoint {
                                values: out.values,
                                inqueue,
                                frontier,
                                depth,
                                rounds_committed: rounds_behind + rounds,
                            });
                        }
                        // Unfenced: the traversal ran to completion.
                        _ => run.values = out.values,
                    }
                }
                // Nothing spilled (or no fence to spill past): done.
                let spilled = progress.checkpoint.as_ref().map_or(0, |c| c.frontier.len());
                if spilled == 0 {
                    return Ok(());
                }
                progress.runs[0].recovery.checkpoints += 1;
            }
            Err(error) => {
                let (reason, rounds_lost) = match &error {
                    SimError::KernelAbort { reason, round } => (*reason, *round),
                    // A watchdog-capped launch hitting its round budget is
                    // a recoverable supervisory abort; hitting the
                    // launch-wide limit is hard non-termination.
                    SimError::MaxRoundsExceeded { limit } if *limit < ROUND_LIMIT => (
                        AbortReason::Watchdog {
                            budget: progress.max_rounds,
                            round: *limit,
                        },
                        *limit,
                    ),
                    _ => return Err(error),
                };
                let attempts = progress.runs[0].recovery.attempts.len() as u32 + 1;
                let next_factor = match reason {
                    AbortReason::QueueFull { .. } => policy.regrown(progress.factor),
                    _ => Some(progress.factor),
                };
                // Terminal when the attempt budget is spent, and at once
                // when a full queue cannot grow: an identical relaunch
                // would abort identically.
                let retry = next_factor.filter(|_| attempts <= policy.max_attempts);
                let backoff =
                    retry.map_or(0, |_| policy.backoff_cycles.saturating_mul(attempts.into()));
                // The fatal abort is logged too (its backoff is zero), so a
                // quarantining caller holds the complete story.
                let backoff_seconds = gpu.cycles_to_seconds(backoff);
                for run in &mut progress.runs {
                    run.recovery.attempts.push(RecoveryAttempt {
                        epoch: run.recovery.checkpoints,
                        attempt: attempts,
                        reason,
                        rounds_lost,
                        backoff_cycles: backoff,
                        capacity_factor: progress.factor,
                    });
                    run.recovery.rounds_lost += rounds_lost;
                    run.seconds += backoff_seconds;
                }
                if matches!(reason, AbortReason::InjectedFault { .. }) {
                    // Transient fault: prune everything that fired so the
                    // retry — or a later resume from the failure's
                    // checkpoint — makes progress.
                    progress.plan = progress.plan.expire_through(rounds_lost);
                }
                let Some(next_factor) = retry else {
                    return Err(error);
                };
                progress.factor = next_factor;
                if matches!(reason, AbortReason::Watchdog { .. }) {
                    progress.max_rounds = progress.max_rounds.saturating_mul(2);
                }
            }
        }
    }
}

/// [`execute`] for one launch, flattened to the `Result<Run, SimError>`
/// the named constructors return.
pub(crate) fn run_solo<W: PtWorkload>(
    gpu: &GpuConfig,
    spec: RunSpec<'_, W>,
) -> Result<Run, SimError> {
    match execute(gpu, spec) {
        Ok(mut runs) => Ok(runs.remove(0)),
        Err(failure) => Err(failure.error),
    }
}

/// Runs a recoverable persistent-thread traversal of `workload`:
/// [`execute`] for one launch from the workload's seeds. With an empty
/// plan the values are byte-identical to [`crate::run_workload`]'s; with
/// `policy.checkpoint_levels == u32::MAX` so is everything else.
///
/// # Errors
/// The [`SimError`] of [`execute`]'s [`RunFailure`].
pub fn run_recoverable<W: PtWorkload>(
    gpu: &GpuConfig,
    graph: &Csr,
    workload: &W,
    config: &PtConfig,
    policy: &RecoveryPolicy,
    plan: &FaultPlan,
) -> Result<Run, SimError> {
    let solo = [(graph, workload)];
    let spec = RunSpec {
        plan,
        ..RunSpec::new(&solo, config, policy)
    };
    run_solo(gpu, spec)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{Bfs, ConnectedComponents, PrDelta, Sssp};
    use crate::{run_bfs, run_workload};
    use gpu_queue::Variant;
    use ptq_graph::gen::synthetic_tree;
    use simt::GpuConfig;

    fn cfg(variant: Variant) -> PtConfig {
        PtConfig::new(variant, 3)
    }

    /// [`run_recoverable`] instantiated with [`Bfs`].
    fn run_bfs_recoverable(
        gpu: &GpuConfig,
        graph: &Csr,
        source: u32,
        config: &PtConfig,
        policy: &RecoveryPolicy,
        plan: &FaultPlan,
    ) -> Result<Run, SimError> {
        run_recoverable(gpu, graph, &Bfs::new(source), config, policy, plan)
    }

    /// A BFS from vertex 0 continued from `start` (from its seed when
    /// `None`), with the structured failure.
    fn resume_bfs(
        graph: &Csr,
        config: &PtConfig,
        policy: &RecoveryPolicy,
        plan: &FaultPlan,
        start: Option<&Checkpoint>,
    ) -> Result<Run, Box<RunFailure>> {
        let solo = [(graph, &Bfs::new(0))];
        let spec = RunSpec {
            plan,
            start,
            ..RunSpec::new(&solo, config, policy)
        };
        execute(&GpuConfig::test_tiny(), spec).map(|mut runs| runs.remove(0))
    }

    /// A real mid-run failure: the BFS checkpoints every level, a wave
    /// is killed at a round only the later, longer epochs reach, and
    /// with no in-run retries that abort hands back the checkpoint the
    /// earlier epochs committed.
    fn interrupted(graph: &Csr, config: &PtConfig) -> Box<RunFailure> {
        let policy = RecoveryPolicy {
            max_attempts: 0,
            checkpoint_levels: 1,
            ..RecoveryPolicy::default()
        };
        let plan = FaultPlan::new().kill_wave(3, 1);
        let failure = resume_bfs(graph, config, &policy, &plan, None).unwrap_err();
        assert!(failure.error.abort_reason().is_some(), "{}", failure.error);
        assert!(failure.checkpoint.is_some(), "an epoch committed first");
        failure
    }

    #[test]
    fn fault_free_epochs_match_single_launch_costs() {
        let g = synthetic_tree(700, 4);
        let plain = run_bfs(&GpuConfig::test_tiny(), &g, 0, &cfg(Variant::RfAn)).unwrap();
        for stride in [1u32, 2, 3, u32::MAX] {
            let policy = RecoveryPolicy {
                checkpoint_levels: stride,
                ..RecoveryPolicy::default()
            };
            let run = run_bfs_recoverable(
                &GpuConfig::test_tiny(),
                &g,
                0,
                &cfg(Variant::RfAn),
                &policy,
                &FaultPlan::EMPTY,
            )
            .unwrap();
            assert_eq!(run.values, plain.values, "stride {stride}");
            assert_eq!(run.reached, plain.reached);
            assert!(run.recovery.attempts.is_empty());
            assert_eq!(run.recovery.rounds_lost, 0);
            assert_eq!(run.recovery.rounds_replayed, 0);
        }
    }

    #[test]
    fn unfenced_stride_is_one_epoch() {
        let g = synthetic_tree(300, 4);
        let policy = RecoveryPolicy {
            checkpoint_levels: u32::MAX,
            ..RecoveryPolicy::default()
        };
        let run = run_bfs_recoverable(
            &GpuConfig::test_tiny(),
            &g,
            0,
            &cfg(Variant::RfAn),
            &policy,
            &FaultPlan::EMPTY,
        )
        .unwrap();
        assert_eq!(run.recovery.epochs, 1);
        assert_eq!(run.recovery.checkpoints, 0);
    }

    #[test]
    fn wave_kill_is_survived_and_logged() {
        let g = synthetic_tree(700, 4);
        let plain = run_bfs(&GpuConfig::test_tiny(), &g, 0, &cfg(Variant::RfAn)).unwrap();
        let plan = FaultPlan::new().kill_wave(3, 1);
        let policy = RecoveryPolicy {
            checkpoint_levels: 2,
            ..RecoveryPolicy::default()
        };
        let run = run_bfs_recoverable(
            &GpuConfig::test_tiny(),
            &g,
            0,
            &cfg(Variant::RfAn),
            &policy,
            &plan,
        )
        .unwrap();
        assert_eq!(run.values, plain.values, "recovered run must be exact");
        assert_eq!(run.recovery.aborts(), 1);
        let a = run.recovery.attempts[0];
        assert!(matches!(
            a.reason,
            AbortReason::InjectedFault {
                kind: simt::FaultKind::WaveKill,
                wave: 1,
                round: 3,
            }
        ));
        assert_eq!(a.rounds_lost, 3);
        assert!(run.recovery.rounds_replayed > 0);
    }

    #[test]
    fn queue_full_regrows_capacity_through_policy() {
        let g = synthetic_tree(800, 4);
        let mut config = cfg(Variant::RfAn);
        config.capacity_factor = 0.05; // ~64 slots: guaranteed overflow
        let policy = RecoveryPolicy {
            checkpoint_levels: u32::MAX,
            ..RecoveryPolicy::default()
        };
        let run = run_bfs_recoverable(
            &GpuConfig::test_tiny(),
            &g,
            0,
            &config,
            &policy,
            &FaultPlan::EMPTY,
        )
        .unwrap();
        assert_eq!(run.reached, 800);
        assert!(run.recovery.aborts() >= 1);
        assert!(run
            .recovery
            .attempts
            .iter()
            .all(|a| matches!(a.reason, AbortReason::QueueFull { .. })));
        assert!(run.recovery.final_capacity_factor > config.capacity_factor);
    }

    #[test]
    fn queue_full_at_the_capacity_ceiling_is_terminal_at_once() {
        // A chain's lifetime enqueues span every vertex, so a ceiling
        // of 0.8 * n can never hold them: the factor doubles 0.05 ->
        // 0.8, and the abort at the ceiling ends the run instead of
        // burning the remaining attempts on identical launches.
        let mut b = ptq_graph::CsrBuilder::new(2_000);
        for i in 0..1_999 {
            b.add_undirected_edge(i, i + 1);
        }
        let g = b.build();
        let mut config = cfg(Variant::RfAn);
        config.capacity_factor = 0.05;
        let policy = RecoveryPolicy::regrow_only(config.capacity_factor);
        assert_eq!(policy.max_attempts, 8);
        let failure = resume_bfs(&g, &config, &policy, &FaultPlan::EMPTY, None).unwrap_err();
        assert!(failure.error.is_queue_full());
        let factors: Vec<f64> = failure
            .log
            .attempts
            .iter()
            .map(|a| a.capacity_factor)
            .collect();
        assert_eq!(factors, [0.05, 0.1, 0.2, 0.4, 0.8]);
        assert_eq!(failure.log.final_capacity_factor, 0.8);
        // Same terminal error as spending the budget on it.
        let spent = RecoveryPolicy {
            max_attempts: 4,
            ..policy
        };
        let budgeted = resume_bfs(&g, &config, &spent, &FaultPlan::EMPTY, None).unwrap_err();
        assert_eq!(budgeted.error, failure.error);
        assert_eq!(budgeted.log, failure.log);
    }

    #[test]
    fn a_factor_that_cannot_grow_is_terminal_not_a_hang() {
        // CC seeds every vertex, so a fenced run's host-side pre-check
        // finds 300 seeds against the 64-slot floor; doubling a zero
        // factor gains nothing, so the check must end, not spin.
        let g = synthetic_tree(300, 4);
        let config = PtConfig {
            capacity_factor: 0.0,
            ..cfg(Variant::RfAn)
        };
        let policy = RecoveryPolicy::default();
        let gpu = GpuConfig::test_tiny();
        let err = run_recoverable(
            &gpu,
            &g,
            &ConnectedComponents,
            &config,
            &policy,
            &FaultPlan::EMPTY,
        )
        .unwrap_err();
        assert!(err.is_queue_full(), "{err}");
    }

    #[test]
    fn fenced_runs_report_setup_and_readback_walls() {
        let g = synthetic_tree(700, 4);
        let policy = RecoveryPolicy {
            checkpoint_levels: 2,
            ..RecoveryPolicy::default()
        };
        let run = resume_bfs(&g, &cfg(Variant::RfAn), &policy, &FaultPlan::EMPTY, None).unwrap();
        assert!(run.recovery.epochs > 1);
        assert!(run.phases.setup_seconds > 0.0);
        assert!(run.phases.sim_seconds > 0.0);
        assert!(run.phases.readback_seconds > 0.0);
    }

    #[test]
    fn watchdog_abort_doubles_budget_and_recovers() {
        let g = synthetic_tree(600, 4);
        let policy = RecoveryPolicy {
            checkpoint_levels: u32::MAX,
            watchdog_rounds: 4, // far too small: must trip, then double
            ..RecoveryPolicy::default()
        };
        let run = run_bfs_recoverable(
            &GpuConfig::test_tiny(),
            &g,
            0,
            &cfg(Variant::RfAn),
            &policy,
            &FaultPlan::EMPTY,
        )
        .unwrap();
        assert_eq!(run.reached, 600);
        assert!(run.recovery.aborts() >= 1);
        assert!(run
            .recovery
            .attempts
            .iter()
            .all(|a| matches!(a.reason, AbortReason::Watchdog { .. })));
        // The carried context tracks the doubling budget: the first trip
        // reports the configured budget, each retry double it.
        let budgets: Vec<u64> = run
            .recovery
            .attempts
            .iter()
            .map(|a| match a.reason {
                AbortReason::Watchdog { budget, round } => {
                    assert_eq!(budget, round, "engine stops exactly at the budget");
                    budget
                }
                other => panic!("unexpected reason {other:?}"),
            })
            .collect();
        assert_eq!(budgets[0], 4);
        assert!(budgets.windows(2).all(|w| w[1] == w[0] * 2));
    }

    #[test]
    fn attempt_budget_exhaustion_propagates_the_abort() {
        let g = synthetic_tree(500, 4);
        // Kill a wave at round 1 of every launch; zero retries allowed.
        let plan = FaultPlan::new().kill_wave(1, 0);
        let policy = RecoveryPolicy {
            max_attempts: 0,
            ..RecoveryPolicy::default()
        };
        let err = run_bfs_recoverable(
            &GpuConfig::test_tiny(),
            &g,
            0,
            &cfg(Variant::RfAn),
            &policy,
            &plan,
        )
        .unwrap_err();
        assert!(matches!(
            err.abort_reason(),
            Some(AbortReason::InjectedFault { .. })
        ));
    }

    #[test]
    fn corrupt_checkpoint_frontier_is_rejected_before_launch() {
        let g = synthetic_tree(400, 4);
        let mut ckpt = interrupted(&g, &cfg(Variant::RfAn)).checkpoint.unwrap();
        ckpt.frontier[0] = u32::MAX; // dna sentinel collision
        let err = resume_bfs(
            &g,
            &cfg(Variant::RfAn),
            &RecoveryPolicy::default(),
            &FaultPlan::EMPTY,
            Some(&ckpt),
        )
        .unwrap_err()
        .error;
        assert!(
            matches!(&err, SimError::InvalidLaunch(msg) if msg.contains("corrupt checkpoint")),
            "{err:?}"
        );
    }

    #[test]
    fn checkpoint_frontier_past_the_state_slots_is_rejected_before_launch() {
        let g = synthetic_tree(400, 4);
        let mut ckpt = interrupted(&g, &cfg(Variant::RfAn)).checkpoint.unwrap();
        ckpt.frontier[0] = 400; // one past the last vertex
        let err = resume_bfs(
            &g,
            &cfg(Variant::RfAn),
            &RecoveryPolicy::default(),
            &FaultPlan::EMPTY,
            Some(&ckpt),
        )
        .unwrap_err()
        .error;
        assert!(
            matches!(&err, SimError::InvalidLaunch(msg) if msg.contains("corrupt checkpoint")),
            "{err:?}"
        );
    }

    #[test]
    fn malformed_checkpoint_shape_is_a_typed_error_not_a_panic() {
        let g = synthetic_tree(400, 4);
        let mut ckpt = interrupted(&g, &cfg(Variant::RfAn)).checkpoint.unwrap();
        ckpt.values.truncate(10); // snapshot from the wrong graph
        let err = resume_bfs(
            &g,
            &cfg(Variant::RfAn),
            &RecoveryPolicy::default(),
            &FaultPlan::EMPTY,
            Some(&ckpt),
        )
        .unwrap_err()
        .error;
        assert!(
            matches!(&err, SimError::InvalidLaunch(msg) if msg.contains("corrupt checkpoint")),
            "{err:?}"
        );
    }

    #[test]
    fn detailed_failure_resumes_into_a_shorter_replay() {
        let g = synthetic_tree(700, 4);
        let plain = run_bfs(&GpuConfig::test_tiny(), &g, 0, &cfg(Variant::RfAn)).unwrap();
        // Zero in-run retries: the first injected fault is terminal and
        // must surface as a structured failure, not a bare error.
        let plan = FaultPlan::new().kill_wave(3, 1);
        let policy = RecoveryPolicy {
            max_attempts: 0,
            checkpoint_levels: 2,
            ..RecoveryPolicy::default()
        };
        let failure = resume_bfs(&g, &cfg(Variant::RfAn), &policy, &plan, None).unwrap_err();
        assert!(matches!(
            failure.error.abort_reason(),
            Some(AbortReason::InjectedFault { .. })
        ));
        // The fatal attempt is logged, the fired fault is pruned, and
        // the checkpoint (if an epoch committed before the fault) is
        // resumable.
        assert_eq!(failure.log.aborts(), 1);
        assert!(failure.remaining_plan.is_empty());
        let resumed = resume_bfs(
            &g,
            &cfg(Variant::RfAn),
            &policy,
            &failure.remaining_plan,
            failure.checkpoint.as_ref(),
        )
        .unwrap();
        assert_eq!(resumed.values, plain.values, "resume converges exactly");
        // A resume from the failure's checkpoint replays at most the
        // aborted epoch; a scratch restart under the same fencing redoes
        // every committed epoch as well.
        let scratch =
            resume_bfs(&g, &cfg(Variant::RfAn), &policy, &FaultPlan::EMPTY, None).unwrap();
        assert!(resumed.metrics.rounds <= scratch.metrics.rounds);
        let committed = failure.checkpoint.map_or(0, |c| c.rounds_committed);
        assert_eq!(committed, failure.log.rounds_committed);
        if committed > 0 {
            assert!(
                resumed.metrics.rounds < scratch.metrics.rounds,
                "resume must not redo committed epochs"
            );
        }
    }

    #[test]
    fn resume_from_a_checkpoint_continues_the_uninterrupted_run() {
        // Epochs are deterministic launches from their snapshot, so a
        // fault-free resume re-runs the aborted epoch and every later
        // one exactly as the uninterrupted run had them: same values,
        // and the rounds behind the checkpoint plus the resumed rounds
        // are the full run's.
        let g = synthetic_tree(400, 4);
        let config = cfg(Variant::An);
        let failure = interrupted(&g, &config);
        let policy = RecoveryPolicy {
            checkpoint_levels: 1,
            ..RecoveryPolicy::default()
        };
        let full = resume_bfs(&g, &config, &policy, &FaultPlan::EMPTY, None).unwrap();
        let checkpoint = failure.checkpoint.as_ref();
        let resumed = resume_bfs(&g, &config, &policy, &FaultPlan::EMPTY, checkpoint).unwrap();
        assert_eq!(resumed.values, full.values);
        let behind = checkpoint.unwrap().rounds_committed;
        assert_eq!(behind, failure.log.rounds_committed);
        assert_eq!(behind + resumed.metrics.rounds, full.metrics.rounds);
        assert_eq!(
            failure.log.epochs + resumed.recovery.epochs,
            full.recovery.epochs
        );
    }

    #[test]
    fn segmented_recovers_wave_kill_without_queue_full() {
        // The segmented variant rides the same checkpoint/resume loop,
        // but its abort vocabulary has no queue-full entry: every
        // recovery attempt in the log must be the injected fault.
        let g = synthetic_tree(700, 4);
        let plain = run_bfs(&GpuConfig::test_tiny(), &g, 0, &cfg(Variant::SegRfAn)).unwrap();
        let plan = FaultPlan::new().kill_wave(3, 1);
        let policy = RecoveryPolicy {
            checkpoint_levels: 2,
            ..RecoveryPolicy::default()
        };
        let run = run_bfs_recoverable(
            &GpuConfig::test_tiny(),
            &g,
            0,
            &cfg(Variant::SegRfAn),
            &policy,
            &plan,
        )
        .unwrap();
        assert_eq!(run.values, plain.values, "recovered run must be exact");
        assert!(run.recovery.aborts() >= 1);
        assert!(
            run.recovery
                .attempts
                .iter()
                .all(|a| !matches!(a.reason, AbortReason::QueueFull { .. })),
            "queue-full is unreachable on segmented variants: {:?}",
            run.recovery.attempts
        );
        assert_eq!(
            run.recovery.final_capacity_factor,
            cfg(Variant::SegRfAn).capacity_factor,
            "no capacity regrow ever triggers"
        );
    }

    #[test]
    fn segmented_runs_still_reject_corrupt_checkpoints() {
        let g = synthetic_tree(400, 4);
        let mut ckpt = interrupted(&g, &cfg(Variant::SegRfAn)).checkpoint.unwrap();
        ckpt.frontier[0] = u32::MAX; // dna sentinel collision
        let err = resume_bfs(
            &g,
            &cfg(Variant::SegRfAn),
            &RecoveryPolicy::default(),
            &FaultPlan::EMPTY,
            Some(&ckpt),
        )
        .unwrap_err()
        .error;
        assert!(
            matches!(&err, SimError::InvalidLaunch(msg) if msg.contains("corrupt checkpoint")),
            "{err:?}"
        );
    }

    #[test]
    fn sssp_recovers_wave_kill_to_exact_distances() {
        let g = synthetic_tree(500, 4);
        let weights: Vec<u32> = (0..g.num_edges()).map(|i| 1 + (i as u32 % 7)).collect();
        let sssp = Sssp::new(0, weights);
        let config = PtConfig::for_workload(&sssp, Variant::RfAn, 3);
        let plain = run_workload(&GpuConfig::test_tiny(), &g, &sssp, &config).unwrap();
        let policy = RecoveryPolicy {
            checkpoint_levels: 8, // distance units per epoch
            ..RecoveryPolicy::default()
        };
        let plan = FaultPlan::new().kill_wave(3, 0);
        let run =
            run_recoverable(&GpuConfig::test_tiny(), &g, &sssp, &config, &policy, &plan).unwrap();
        assert_eq!(run.values, plain.values, "recovered SSSP must be exact");
        assert!(run.recovery.aborts() >= 1);
    }

    #[test]
    fn cc_epochs_fence_on_label_values() {
        let g = synthetic_tree(300, 4);
        let cc = ConnectedComponents;
        let config = PtConfig::for_workload(&cc, Variant::RfAn, 3);
        let policy = RecoveryPolicy {
            checkpoint_levels: 64, // label units per epoch
            max_capacity_factor: 128.0,
            ..RecoveryPolicy::default()
        };
        let run = run_recoverable(
            &GpuConfig::test_tiny(),
            &g,
            &cc,
            &config,
            &policy,
            &FaultPlan::EMPTY,
        )
        .unwrap();
        cc.validate(&g, &run.values)
            .unwrap_or_else(|(v, want, got)| panic!("vertex {v}: label {got} != {want}"));
    }

    #[test]
    fn max_claim_workload_degenerates_to_unfenced_epochs() {
        // PR-delta claims with atomic-max: values grow away from the
        // fence, nothing ever spills, so every run is a single epoch
        // regardless of stride — and still exact.
        let g = synthetic_tree(300, 4);
        let pr = PrDelta::new(0);
        let config = PtConfig::for_workload(&pr, Variant::RfAn, 3);
        let policy = RecoveryPolicy {
            checkpoint_levels: 2,
            ..RecoveryPolicy::default()
        };
        let run = run_recoverable(
            &GpuConfig::test_tiny(),
            &g,
            &pr,
            &config,
            &policy,
            &FaultPlan::EMPTY,
        )
        .unwrap();
        assert_eq!(run.recovery.epochs, 1);
        assert_eq!(run.recovery.checkpoints, 0);
        pr.validate(&g, &run.values)
            .unwrap_or_else(|(v, want, got)| panic!("vertex {v}: {got} != {want}"));
    }
}
