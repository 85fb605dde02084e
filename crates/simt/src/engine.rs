//! The simulation engine: workgroup dispatch, round scheduling, and the
//! latency-hiding time model.
//!
//! # Time model
//!
//! Execution advances in *rounds*; each round, every active wavefront runs
//! one work cycle. A compute unit's time for a round is
//!
//! ```text
//! cu_round_cycles = max( ceil(Σ issue / simds_per_cu),  max latency )
//! ```
//!
//! * `Σ issue` — every instruction issued by the CU's resident wavefronts
//!   must pass through one of its SIMD issue slots; this cost is *never*
//!   hidden. CAS retries re-issue and therefore show up here: "the
//!   overhead of retrying an unsuccessful CAS cannot be hidden".
//! * `max latency` — memory/atomic wait time overlaps with other
//!   wavefronts' issues (zero-cost thread switching). With many resident
//!   wavefronts, issue dominates and latency vanishes — exactly the GPU
//!   behaviour the paper's AFA choice exploits. With a single wavefront
//!   resident, its stalls are exposed.
//!
//! The kernel's makespan is the maximum accumulated cycle count over CUs
//! plus the launch overhead; seconds follow from the configured clock.
//!
//! # Determinism
//!
//! Wavefronts execute in a fixed rotation (shifted by one each round so no
//! wavefront permanently wins every atomic race). Two runs with the same
//! config, kernel, and memory image produce byte-identical metrics.
//!
//! The scheduler keeps the active wavefronts in a dense, ascending list
//! and realizes the rotation by splitting that list at the round's offset
//! — visiting `[offset..]` then the wrap-around `[..offset]`. This visits
//! exactly the same wave sequence as scanning a `Vec<bool>` from the
//! offset, without paying O(total waves) per round in the long tail where
//! only a few waves remain active. Any change here must preserve the
//! visit order bit-for-bit; `pt-bfs`'s engine-regression test pins it.
//!
//! # Wave parking
//!
//! A parked wave's captured charges are replayed at its rotation position
//! each round instead of re-running its pure-poll cycle; the contract is
//! *Wave parking* in the [`crate::ctx`] module docs.

use crate::config::{GpuConfig, MAX_WAVE_SIZE};
use crate::ctx::{ParkRequest, WaveClass, WaveCtx, WaveInfo, WaveKernel, WaveStatus};
use crate::error::{AbortReason, FaultKind, SimError};
use crate::fault::FaultPlan;
use crate::memory::DeviceMemory;
use crate::metrics::{Metrics, Profile};
use crate::round::RoundState;
use crate::trace::{Bound, RoundBounds};

/// Default safety limit on scheduling rounds per launch: far past any
/// terminating run at the reproduced scales, so exceeding it means the
/// kernel does not terminate.
pub const ROUND_LIMIT: u64 = 50_000_000;

/// Launch geometry for one kernel run.
#[derive(Clone, Copy, Debug)]
pub struct Launch {
    /// GPU workgroups to launch (each `waves_per_wg` wavefronts).
    pub num_workgroups: usize,
    /// Safety limit on scheduling rounds ([`ROUND_LIMIT`] by default).
    pub max_rounds: u64,
}

impl Launch {
    /// A plain GPU launch of `n` workgroups.
    pub fn workgroups(n: usize) -> Self {
        Launch {
            num_workgroups: n,
            max_rounds: ROUND_LIMIT,
        }
    }

    /// Overrides the round safety limit.
    pub fn with_max_rounds(mut self, limit: u64) -> Self {
        self.max_rounds = limit;
        self
    }
}

/// Result of a completed kernel run.
#[derive(Clone, Debug)]
pub struct RunReport {
    /// Counters accumulated during the run.
    pub metrics: Metrics,
    /// Kernel wall time in simulated seconds.
    pub seconds: f64,
    /// Final cycle count of every compute unit (GPU CUs first, then
    /// virtual CPU units).
    pub per_cu_cycles: Vec<u64>,
    /// What bounded the device's rounds, through the round this launch's
    /// last wave retired (the same cut as the makespan).
    pub round_bounds: RoundBounds,
    /// Always-on host-side profiling counters (see [`Profile`]): arena
    /// and shadow-table footprints, demand zeroing, park fast-path hit
    /// counts. Never part of any golden — purely diagnostic.
    pub profile: Profile,
}

/// One wavefront's park slot: the watches that keep it parked and the
/// captured charges of its (identical) polling cycle, replayed once per
/// round. A woken wave's slot keeps its buffers and charges: the next
/// park swaps buffers with the request scratch instead of allocating, and
/// compares charges to tell a spurious wake.
#[derive(Default)]
struct Park {
    /// True while the wave is parked.
    parked: bool,
    /// What the polling cycle asked to park on.
    request: ParkRequest,
    /// Issue cycles the polling cycle charged.
    issue: u64,
    /// Latency watermark the polling cycle charged.
    latency: u64,
    /// Distinct cache lines the polling cycle touched.
    lines: u64,
    /// Metric counters the polling cycle bumped (work_cycles included).
    delta: Metrics,
}

/// Per-launch bookkeeping for the multi-launch round loop: counters that
/// must not bleed between co-resident launches, plus the device-clock
/// snapshot taken the round the launch's last wave retires.
struct LaunchState {
    /// Counters charged by this launch's waves.
    metrics: Metrics,
    /// Park events raised by this launch's waves.
    park_events: u64,
    /// Park fast-path replays of this launch's waves.
    park_replay_cycles: u64,
    /// Wakes of this launch's waves that re-parked on the identical cycle.
    spurious_wakes: u64,
    /// Waves of this launch still alive.
    waves_left: usize,
    /// Makespan snapshotted at retirement (compute/bandwidth/hot-word
    /// maxima as of that round, plus launch overhead).
    makespan: u64,
    /// Per-CU cycle state at retirement.
    cu_snapshot: Vec<u64>,
    /// Round-bound summary at retirement.
    round_bounds: RoundBounds,
}

/// Fieldwise `after - before` of the per-cycle metric counters. Fields a
/// work cycle never touches (rounds, launches, makespan) stay zero, so
/// accruing the delta via [`Metrics::merge`] is exact.
fn metrics_delta(after: &Metrics, before: &Metrics) -> Metrics {
    Metrics {
        global_atomics: after.global_atomics - before.global_atomics,
        scheduler_atomics: after.scheduler_atomics - before.scheduler_atomics,
        cas_attempts: after.cas_attempts - before.cas_attempts,
        cas_failures: after.cas_failures - before.cas_failures,
        lds_atomics: after.lds_atomics - before.lds_atomics,
        queue_empty_retries: after.queue_empty_retries - before.queue_empty_retries,
        global_mem_ops: after.global_mem_ops - before.global_mem_ops,
        work_cycles: after.work_cycles - before.work_cycles,
        rounds: 0,
        launches: 0,
        makespan_cycles: 0,
        injected_faults: after.injected_faults - before.injected_faults,
        injected_stall_cycles: after.injected_stall_cycles - before.injected_stall_cycles,
    }
}

/// Reusable per-run scheduling state, owned by the engine so multi-launch
/// algorithms (level-synchronous BFS fires thousands of kernels) never
/// reallocate it.
#[derive(Default)]
struct Scratch {
    /// Dense, ascending list of active wavefront ids.
    active: Vec<usize>,
    /// Liveness flag per wavefront, used to compact `active` after a
    /// round retires waves.
    alive: Vec<bool>,
    /// Per-CU issue cycles accumulated this round.
    round_issue: Vec<u64>,
    /// Per-CU exposed-latency watermark this round.
    round_latency: Vec<u64>,
    /// Per-CU atomic-unit occupancy this round (millicycles).
    round_atomic: Vec<u64>,
    /// Park slot per wavefront.
    parks: Vec<Park>,
    /// Park-registration scratch handed to each work cycle.
    request: ParkRequest,
}

/// A simulated GPU: configuration plus device memory. Memory persists
/// across runs, so multi-launch algorithms (level-synchronous BFS) reuse
/// their buffers exactly like a real host program would.
pub struct Engine {
    config: GpuConfig,
    memory: DeviceMemory,
    round_state: RoundState,
    scratch: Scratch,
    /// The memory's demand-zeroed words an earlier launch's profile
    /// already reported.
    zeroed_reported: u64,
}

impl Engine {
    /// Creates an engine with empty device memory.
    pub fn new(config: GpuConfig) -> Self {
        Engine {
            config,
            memory: DeviceMemory::new(),
            round_state: RoundState::new(),
            scratch: Scratch::default(),
            zeroed_reported: 0,
        }
    }

    /// The hardware configuration.
    pub fn config(&self) -> &GpuConfig {
        &self.config
    }

    /// Host access to device memory (allocate/init between launches).
    pub fn memory_mut(&mut self) -> &mut DeviceMemory {
        &mut self.memory
    }

    /// Read-only host access to device memory.
    pub fn memory(&self) -> &DeviceMemory {
        &self.memory
    }

    /// Runs one clean kernel launch to completion: [`Engine::run_group`]
    /// with one member and no faults. `factory` builds the per-wavefront
    /// kernel state (it receives each wavefront's identity).
    ///
    /// # Errors
    /// See [`Engine::run_group`].
    pub fn run<K, F>(&mut self, launch: Launch, mut factory: F) -> Result<RunReport, SimError>
    where
        K: WaveKernel,
        F: FnMut(WaveInfo) -> K,
    {
        let wgs = [launch.num_workgroups];
        let reports = self.run_group(launch, &wgs, &FaultPlan::EMPTY, |_, info| factory(info))?;
        Ok(reports.into_iter().next().expect("one launch, one report"))
    }

    /// The round loop: runs the launches of `launch_wgs` co-resident on
    /// the device under a deterministic [`FaultPlan`], one [`RunReport`]
    /// per launch.
    ///
    /// Waves from all launches interleave in one deterministic round
    /// rotation, contending for the same CUs, DRAM bandwidth pool, and
    /// hot-word serialization floor. Each report carries the launch's
    /// metrics, a makespan snapshotted at the round its last wave
    /// retires, and the per-CU cycle state at that instant — so
    /// co-residents that finish early report shorter makespans than
    /// stragglers, exactly like overlapping streams on real hardware.
    ///
    /// `template` supplies the shared knobs (the round limit);
    /// `launch_wgs[l]` is launch `l`'s workgroup count.
    /// `factory` receives `(launch_index, info)` where `info` carries
    /// *launch-local* `wave_id`/`workgroup`/`total_waves` (kernels see
    /// their own geometry, as if launched alone) while CU assignment
    /// continues the device-wide round-robin fill across launches.
    ///
    /// Injection is a pure overlay: with an empty plan the run is the
    /// clean one — same wave visit order, same metrics, same cycles, bit
    /// for bit. A non-empty plan may kill waves (structured abort), stall
    /// CUs (extra cycles, recorded in `Metrics::injected_stall_cycles`),
    /// or poison memory words (abort on next kernel access). Faults and
    /// the device's CPU groups ([`GpuConfig::cpu_groups`]) address one
    /// launch's waves, so they are single-launch only.
    ///
    /// # Errors
    /// Fails on device faults (out-of-bounds), kernel aborts (queue-full,
    /// injected faults), or exceeding the round limit; an abort in any
    /// launch fails the whole group. Refused with
    /// [`SimError::InvalidLaunch`], before any device state changes: a
    /// fault plan or CPU groups with more than one launch, no
    /// launch, a group member with no workgroup, a `wave_size` outside
    /// `1..=`[`MAX_WAVE_SIZE`], or a launch with no group in it.
    pub fn run_group<K, F>(
        &mut self,
        launch: Launch,
        launch_wgs: &[usize],
        plan: &FaultPlan,
        mut factory: F,
    ) -> Result<Vec<RunReport>, SimError>
    where
        K: WaveKernel,
        F: FnMut(usize, WaveInfo) -> K,
    {
        let num_launches = launch_wgs.len();
        let group = num_launches > 1;
        let cpu_groups = self.config.cpu_groups;
        let refused = if group && !(plan.is_empty() && cpu_groups == 0) {
            Some("faults and CPU groups are single-launch only")
        } else if num_launches == 0 {
            Some("need at least one launch")
        } else if group && launch_wgs.contains(&0) {
            Some("every co-resident launch needs at least one workgroup")
        } else {
            None
        };
        if let Some(cause) = refused {
            return Err(SimError::InvalidLaunch(cause.into()));
        }
        if !(1..=MAX_WAVE_SIZE).contains(&self.config.wave_size) {
            return Err(SimError::InvalidLaunch(format!(
                "wave_size {} is outside 1..={MAX_WAVE_SIZE}, what a lane mask holds",
                self.config.wave_size
            )));
        }
        let gpu_waves: usize = launch_wgs
            .iter()
            .map(|&n| n * self.config.waves_per_wg)
            .sum();
        let total_waves = gpu_waves + cpu_groups;
        if total_waves == 0 {
            return Err(SimError::InvalidLaunch(
                "launch must contain at least one group".into(),
            ));
        }
        let num_cus = self.config.num_cus + cpu_groups;

        // Build wave table. GPU workgroups are distributed round-robin
        // over CUs in launch order (matching how a hardware dispatcher
        // fills the device as streams arrive); each CPU group gets
        // its own virtual unit. `wave_id`/`workgroup`/`total_waves` stay
        // launch-local so a kernel's queue-slot partitioning is the same
        // whether it runs alone or co-resident.
        let mut infos = Vec::with_capacity(total_waves);
        let mut launch_of = Vec::with_capacity(total_waves);
        let mut global_wg = 0usize;
        for (l, &wgs) in launch_wgs.iter().enumerate() {
            let local_total = wgs * self.config.waves_per_wg + if l == 0 { cpu_groups } else { 0 };
            for wg in 0..wgs {
                for w in 0..self.config.waves_per_wg {
                    infos.push(WaveInfo {
                        wave_id: wg * self.config.waves_per_wg + w,
                        workgroup: wg,
                        cu: global_wg % self.config.num_cus,
                        wave_size: self.config.wave_size,
                        total_waves: local_total,
                        class: WaveClass::Gpu,
                    });
                    launch_of.push(l);
                }
                global_wg += 1;
            }
        }
        for g in 0..cpu_groups {
            infos.push(WaveInfo {
                wave_id: launch_wgs[0] * self.config.waves_per_wg + g,
                workgroup: launch_wgs[0] + g,
                cu: self.config.num_cus + g,
                wave_size: self.config.wave_size,
                total_waves,
                class: WaveClass::CpuCollab,
            });
            launch_of.push(0);
        }

        let mut kernels: Vec<K> = infos
            .iter()
            .zip(&launch_of)
            .map(|(&i, &l)| factory(l, i))
            .collect();

        let Scratch {
            active,
            alive,
            round_issue,
            round_latency,
            round_atomic,
            parks,
            request,
        } = &mut self.scratch;
        active.clear();
        active.extend(0..total_waves);
        alive.clear();
        alive.resize(total_waves, true);
        round_issue.clear();
        round_issue.resize(num_cus, 0);
        round_latency.clear();
        round_latency.resize(num_cus, 0);
        round_atomic.clear();
        round_atomic.resize(num_cus, 0);
        // Slots keep their watch buffers across launches.
        parks.truncate(total_waves);
        parks.iter_mut().for_each(|p| p.parked = false);
        parks.resize_with(total_waves, Park::default);
        self.round_state
            .ensure_capacity(self.memory.allocated_words());

        // Per-launch accounting: counters charge to the acting wave's
        // launch; device-wide quantities (per-CU clocks, bandwidth and
        // hot-word floors) are shared and snapshotted per launch at the
        // round its last wave retires.
        let mut states: Vec<LaunchState> = launch_wgs
            .iter()
            .map(|&wgs| LaunchState {
                metrics: Metrics::default(),
                park_events: 0,
                park_replay_cycles: 0,
                spurious_wakes: 0,
                waves_left: wgs * self.config.waves_per_wg,
                makespan: 0,
                cu_snapshot: Vec::new(),
                round_bounds: RoundBounds::default(),
            })
            .collect();
        states[0].waves_left += cpu_groups;
        let mut newly_done: Vec<usize> = Vec::new();
        let mut profile = Profile::default();
        let mut cu_cycles = vec![0u64; num_cus];
        let mut device_bw_millicycles: u64 = 0;
        let mut device_hot_millicycles: u64 = 0;
        let mut round_lines: u64;
        let mut round_bounds = RoundBounds::default();
        let mut round: u64 = 0;

        // Fault-injection overlay. With an empty plan `faults_on` is false
        // and every injection site below is a single untaken branch, so
        // the simulated schedule and timing are bit-identical to `run`.
        let faults_on = !plan.is_empty();
        let fplan = if faults_on {
            self.memory.clear_poisons();
            let mut p = plan.clone();
            p.normalize();
            p
        } else {
            FaultPlan::EMPTY
        };
        let mut next_kill = 0usize;
        let mut next_poison = 0usize;
        let mut round_kills: Vec<usize> = Vec::new();

        while !active.is_empty() {
            if round >= launch.max_rounds {
                return Err(SimError::MaxRoundsExceeded {
                    limit: launch.max_rounds,
                });
            }
            self.round_state.begin_round();
            self.memory.begin_round();
            round_issue.iter_mut().for_each(|c| *c = 0);
            round_latency.iter_mut().for_each(|c| *c = 0);
            round_lines = 0;
            round_atomic.iter_mut().for_each(|c| *c = 0);

            // Set the round a poison is armed: every parked wave re-executes
            // its poll, so one that reads the poisoned word faults at the
            // rotation position per-round polling would have faulted at.
            let mut wake_all = false;
            if faults_on {
                // Collect this round's wave-kills and arm this round's
                // poisons (both lists are sorted by round).
                round_kills.clear();
                while next_kill < fplan.wave_kills.len()
                    && fplan.wave_kills[next_kill].round <= round
                {
                    if fplan.wave_kills[next_kill].round == round {
                        round_kills.push(fplan.wave_kills[next_kill].wave);
                    }
                    next_kill += 1;
                }
                while next_poison < fplan.mem_poisons.len()
                    && fplan.mem_poisons[next_poison].round <= round
                {
                    let p = &fplan.mem_poisons[next_poison];
                    if let Some(buf) = self.memory.try_buffer(&p.buffer) {
                        if let Ok(addr) = self.memory.flat_addr(buf, p.index) {
                            self.memory.arm_poison(addr, p.round);
                            states[0].metrics.injected_faults += 1;
                            wake_all = true;
                        }
                    }
                    next_poison += 1;
                }
            }

            let active_at_start = active.len();
            // Rotate execution order so atomic arrival ranks are fair:
            // visit active ids >= offset in order, then wrap. `active` is
            // kept sorted, so this is the sequence `w = (i + offset) %
            // total_waves` visits, skipping retired waves.
            let offset = (round as usize) % total_waves;
            let split = active.partition_point(|&w| w < offset);
            let mut retired = false;
            for pos in (split..active.len()).chain(0..split) {
                let w = active[pos];
                let info = infos[w];
                let state = &mut states[launch_of[w]];
                if faults_on && !round_kills.is_empty() && round_kills.contains(&w) {
                    // The abort discards metrics; the kill is recorded in
                    // the structured error itself.
                    return Err(SimError::KernelAbort {
                        reason: AbortReason::InjectedFault {
                            kind: FaultKind::WaveKill,
                            wave: w,
                            round,
                        },
                        round,
                    });
                }
                let park = &mut parks[w];
                let was_parked = park.parked;
                if was_parked {
                    // Wake check at the wave's exact rotation position:
                    // an observation in the watched class ⟹ identical
                    // cycle, so replay the captured charges and move on.
                    if !wake_all && park.request.holds(&self.memory) {
                        park.request.note_replay(&mut self.memory);
                        round_issue[info.cu] += park.issue;
                        round_latency[info.cu] = round_latency[info.cu].max(park.latency);
                        round_lines += park.lines;
                        state.metrics.merge(&park.delta);
                        state.park_replay_cycles += 1;
                        continue;
                    }
                    park.parked = false;
                }
                // (A slot that was not parked holds a retired request.)
                let parked_front_version = park.request.front_version().filter(|_| was_parked);
                request.clear();
                self.round_state.begin_cycle();
                let before = state.metrics;
                let mut ctx = WaveCtx::new(
                    &mut self.memory,
                    &mut state.metrics,
                    &mut self.round_state,
                    &self.config.cost,
                    info,
                    request,
                );
                ctx.parked_front_version = parked_front_version;
                let status = kernels[w].work_cycle(&mut ctx);
                let issue = ctx.issue;
                let latency = ctx.latency;
                let atomic_ops = ctx.atomic_ops;
                let wrote = ctx.wrote;
                let fault = ctx.fault.take();
                let abort = ctx.abort.take();
                if let Some(e) = fault {
                    // Poison faults are detected inside DeviceMemory,
                    // which does not know the observing wave: fill in the
                    // wave here (keeping the armed round) and stamp the
                    // observation round on the abort.
                    let e = match e {
                        SimError::KernelAbort {
                            reason:
                                AbortReason::InjectedFault {
                                    kind, round: armed, ..
                                },
                            ..
                        } => SimError::KernelAbort {
                            reason: AbortReason::InjectedFault {
                                kind,
                                wave: w,
                                round: armed,
                            },
                            round,
                        },
                        other => other,
                    };
                    return Err(e);
                }
                if let Some(reason) = abort {
                    return Err(SimError::KernelAbort { reason, round });
                }
                state.metrics.work_cycles += 1;
                round_issue[info.cu] += issue;
                round_latency[info.cu] = round_latency[info.cu].max(latency);
                round_atomic[info.cu] += atomic_ops * self.config.cost.atomic_unit_milli;
                // Bandwidth: distinct cache lines this wavefront touched.
                let cycle_lines = self.round_state.cycle_lines();
                round_lines += cycle_lines;
                if status == WaveStatus::Done {
                    alive[w] = false;
                    retired = true;
                    state.waves_left -= 1;
                    if state.waves_left == 0 {
                        // The launch's device-clock snapshot happens at
                        // the end of this round, after its costs land.
                        newly_done.push(launch_of[w]);
                    }
                } else if !request.is_empty() && !wrote && atomic_ops == 0 {
                    // A pure polling cycle: park the wave and replay these
                    // exact charges until a watched word leaves its class.
                    state.park_events += 1;
                    let delta = metrics_delta(&state.metrics, &before);
                    let park = &mut parks[w];
                    if was_parked
                        && (park.issue, park.latency, park.lines) == (issue, latency, cycle_lines)
                        && park.delta == delta
                    {
                        state.spurious_wakes += 1;
                    }
                    // The retired request's buffer becomes the scratch.
                    std::mem::swap(&mut park.request, request);
                    park.parked = true;
                    park.issue = issue;
                    park.latency = latency;
                    park.lines = cycle_lines;
                    park.delta = delta;
                }
            }
            if retired {
                // Compact in place; retain keeps ascending order.
                active.retain(|&w| alive[w]);
            }

            let simds = self.config.simds_per_cu as u64;
            let mut worst = (0u64, Bound::Issue);
            for cu in 0..num_cus {
                let issue_time = round_issue[cu].div_ceil(simds);
                // A round lasts as long as its longest per-CU pole: SIMD
                // issue, exposed latency, or the atomic unit's throughput.
                // (DRAM bandwidth is a device-wide pool, applied to the
                // makespan below.)
                let cost = issue_time
                    .max(round_latency[cu])
                    .max(round_atomic[cu] / 1000);
                cu_cycles[cu] += cost;
                if cost > worst.0 {
                    let bound = if cost == issue_time {
                        Bound::Issue
                    } else if cost == round_latency[cu] {
                        Bound::Latency
                    } else {
                        Bound::Memory
                    };
                    worst = (cost, bound);
                }
            }
            if faults_on {
                // Stall windows charge extra cycles to their CU. Timing
                // only: the run proceeds, the makespan grows. Each window
                // is recorded once (on entry) in `injected_faults`.
                for s in &fplan.cu_stalls {
                    if s.cu < num_cus && s.covers(round) {
                        cu_cycles[s.cu] += s.extra_cycles;
                        states[0].metrics.injected_stall_cycles += s.extra_cycles;
                        if s.from_round == round {
                            states[0].metrics.injected_faults += 1;
                        }
                    }
                }
            }
            let round_bw_milli = round_lines * self.config.cost.mem_bw_line_milli;
            device_bw_millicycles += round_bw_milli;
            if round_bw_milli / 1000 > worst.0 {
                worst = (round_bw_milli / 1000, Bound::Memory);
            }
            // The round's hottest word serializes at a single L2 slice —
            // a device-wide floor no amount of occupancy can hide.
            let round_hot_milli =
                self.round_state.max_same_address() * self.config.cost.hot_word_milli;
            device_hot_millicycles += round_hot_milli;
            if round_hot_milli / 1000 > worst.0 {
                worst = (round_hot_milli / 1000, Bound::Memory);
            }
            round_bounds.record(worst.0, worst.1, active_at_start);
            // A launch whose last wave retired this round completes here:
            // it can finish no faster than the slowest CU so far and no
            // faster than the device-wide DRAM / hot-word floors — all of
            // which include the interference its co-residents caused.
            for l in newly_done.drain(..) {
                let compute = cu_cycles.iter().copied().max().unwrap_or(0);
                states[l].makespan = compute
                    .max(device_bw_millicycles / 1000)
                    .max(device_hot_millicycles / 1000)
                    + self.config.cost.launch_overhead;
                states[l].metrics.rounds = round + 1;
                states[l].cu_snapshot = cu_cycles.clone();
                states[l].round_bounds = round_bounds;
            }
            round += 1;
        }

        profile.arena_words = self.memory.allocated_words() as u64;
        profile.meta_bytes = self.memory.meta_bytes();
        let zeroed = self.memory.demand_zeroed_words();
        profile.demand_zeroed_words = zeroed.saturating_sub(self.zeroed_reported);
        self.zeroed_reported = zeroed;
        Ok(states
            .into_iter()
            .map(|mut s| {
                s.metrics.launches = 1;
                s.metrics.makespan_cycles = s.makespan;
                // Device-wide profile gauges are shared; the park
                // counters are this launch's own.
                let mut p = profile;
                p.park_events = s.park_events;
                p.park_replay_cycles = s.park_replay_cycles;
                p.spurious_wakes = s.spurious_wakes;
                RunReport {
                    metrics: s.metrics,
                    seconds: self.config.cycles_to_seconds(s.makespan),
                    per_cu_cycles: std::mem::take(&mut s.cu_snapshot),
                    round_bounds: s.round_bounds,
                    profile: p,
                }
            })
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::GpuConfig;
    use crate::memory::Buffer;

    /// Kernel that atomically increments a counter `n` times, one per
    /// work cycle, then exits.
    struct IncrKernel {
        buf: Buffer,
        remaining: u32,
    }

    impl WaveKernel for IncrKernel {
        fn work_cycle(&mut self, ctx: &mut WaveCtx<'_>) -> WaveStatus {
            if self.remaining == 0 {
                return WaveStatus::Done;
            }
            ctx.atomic_add(self.buf, 0, 1);
            self.remaining -= 1;
            if self.remaining == 0 {
                WaveStatus::Done
            } else {
                WaveStatus::Active
            }
        }
    }

    fn tiny_engine() -> Engine {
        let mut e = Engine::new(GpuConfig::test_tiny());
        e.memory_mut().alloc("counter", 1);
        e
    }

    /// One launch of `wgs` workgroups of `remaining`-step [`IncrKernel`]s
    /// on the counter, under `plan`.
    fn incr_under(
        e: &mut Engine,
        wgs: usize,
        plan: &FaultPlan,
        remaining: u32,
    ) -> Result<RunReport, SimError> {
        let buf = e.memory().buffer("counter");
        let launch = Launch::workgroups(wgs);
        e.run_group(launch, &[wgs], plan, |_, _| IncrKernel { buf, remaining })
            .map(|mut reports| reports.remove(0))
    }

    #[test]
    fn all_increments_land() {
        let mut e = tiny_engine();
        let buf = e.memory().buffer("counter");
        let report = e
            .run(Launch::workgroups(3), |_| IncrKernel { buf, remaining: 5 })
            .unwrap();
        assert_eq!(e.memory().read_u32(buf, 0), 15);
        assert_eq!(report.metrics.global_atomics, 15);
        assert_eq!(report.metrics.rounds, 5);
        assert_eq!(report.metrics.work_cycles, 15);
    }

    #[test]
    fn deterministic_reports() {
        let run = || {
            let mut e = tiny_engine();
            let buf = e.memory().buffer("counter");
            e.run(Launch::workgroups(4), |_| IncrKernel { buf, remaining: 3 })
                .unwrap()
        };
        let a = run();
        let b = run();
        assert_eq!(a.metrics, b.metrics);
        assert_eq!(a.per_cu_cycles, b.per_cu_cycles);
    }

    #[test]
    fn contention_slows_the_clock() {
        // Same total atomics, but concentrated on fewer rounds => more
        // same-round contention => serialization latency shows up.
        let mut dense = tiny_engine();
        let buf = dense.memory().buffer("counter");
        // 8 waves x 1 increment: all 8 atomics land in round 0.
        let r_dense = dense
            .run(Launch::workgroups(4), |_| IncrKernel { buf, remaining: 1 })
            .unwrap();
        let mut sparse = tiny_engine();
        let buf2 = sparse.memory().buffer("counter");
        // 1 wave x 4 increments: one atomic per round, zero contention.
        let r_sparse = sparse
            .run(Launch::workgroups(1), |_| IncrKernel {
                buf: buf2,
                remaining: 4,
            })
            .unwrap();
        // With unit costs: dense round 0 on the busiest CU has rank-7
        // serialization => latency 10+? >= uncontended 10.
        let dense_per_round =
            r_dense.metrics.makespan_cycles as f64 / r_dense.metrics.rounds as f64;
        let sparse_per_round =
            r_sparse.metrics.makespan_cycles as f64 / r_sparse.metrics.rounds as f64;
        assert!(
            dense_per_round > sparse_per_round,
            "contended rounds should cost more: {dense_per_round} vs {sparse_per_round}"
        );
    }

    #[test]
    fn makespan_tracks_slowest_cu() {
        let mut e = tiny_engine();
        let buf = e.memory().buffer("counter");
        // 1 workgroup => only CU 0 works; CU 1 stays at zero cycles.
        let report = e
            .run(Launch::workgroups(1), |_| IncrKernel { buf, remaining: 2 })
            .unwrap();
        assert_eq!(report.per_cu_cycles.len(), 2);
        assert_eq!(report.per_cu_cycles[1], 0);
        assert!(report.per_cu_cycles[0] > 0);
    }

    struct NeverDone;
    impl WaveKernel for NeverDone {
        fn work_cycle(&mut self, ctx: &mut WaveCtx<'_>) -> WaveStatus {
            ctx.charge_alu(1);
            WaveStatus::Active
        }
    }

    #[test]
    fn round_limit_catches_livelock() {
        let mut e = tiny_engine();
        let err = e
            .run(Launch::workgroups(1).with_max_rounds(100), |_| NeverDone)
            .unwrap_err();
        assert_eq!(err, SimError::MaxRoundsExceeded { limit: 100 });
    }

    struct Aborter;
    impl WaveKernel for Aborter {
        fn work_cycle(&mut self, ctx: &mut WaveCtx<'_>) -> WaveStatus {
            ctx.abort(AbortReason::QueueFull {
                requested: 64,
                capacity: 64,
            });
            WaveStatus::Active
        }
    }

    #[test]
    fn kernel_abort_propagates_with_round() {
        let mut e = tiny_engine();
        let err = e.run(Launch::workgroups(1), |_| Aborter).unwrap_err();
        assert_eq!(
            err,
            SimError::KernelAbort {
                reason: AbortReason::QueueFull {
                    requested: 64,
                    capacity: 64,
                },
                round: 0,
            }
        );
        assert!(err.is_queue_full());
    }

    struct OobKernel {
        buf: Buffer,
    }
    impl WaveKernel for OobKernel {
        fn work_cycle(&mut self, ctx: &mut WaveCtx<'_>) -> WaveStatus {
            ctx.global_read(self.buf, 999);
            WaveStatus::Done
        }
    }

    #[test]
    fn device_fault_fails_run() {
        let mut e = tiny_engine();
        let buf = e.memory().buffer("counter");
        let err = e
            .run(Launch::workgroups(1), |_| OobKernel { buf })
            .unwrap_err();
        assert!(matches!(err, SimError::OutOfBounds { .. }));
    }

    #[test]
    fn cpu_collab_waves_get_virtual_units() {
        let mut e = tiny_engine();
        e.config.cpu_groups = 2;
        let buf = e.memory().buffer("counter");
        let report = e
            .run(Launch::workgroups(1), |_| IncrKernel { buf, remaining: 1 })
            .unwrap();
        assert_eq!(e.memory().read_u32(buf, 0), 3);
        // 2 GPU CUs + 2 virtual CPU units.
        assert_eq!(report.per_cu_cycles.len(), 4);
        // CPU units pay the SVM penalty => strictly more cycles than the
        // (equally loaded) GPU unit that ran one wave.
        assert!(report.per_cu_cycles[2] > report.per_cu_cycles[0]);
    }

    #[test]
    fn more_workgroups_shorten_fixed_total_work() {
        // 12 increments split over k waves; perfect scaling halves time.
        let time_for = |wgs: usize, per_wave: u32| {
            let mut e = tiny_engine();
            let buf = e.memory().buffer("counter");
            e.run(Launch::workgroups(wgs), |_| IncrKernel {
                buf,
                remaining: per_wave,
            })
            .unwrap()
            .metrics
            .makespan_cycles
        };
        let t1 = time_for(1, 12);
        let t4 = time_for(4, 3);
        assert!(
            t4 * 2 < t1,
            "4 waves ({t4} cycles) should be well under half of 1 wave ({t1})"
        );
    }

    /// Pure ALU work for `rounds` cycles: 8 instructions on the rounds
    /// whose parity is `heavy`, 1 on the others. No memory traffic, so
    /// no round is bounded by bandwidth or a hot word.
    struct Alternating {
        heavy: u64,
        round: u64,
        rounds: u64,
    }
    impl WaveKernel for Alternating {
        fn work_cycle(&mut self, ctx: &mut WaveCtx<'_>) -> WaveStatus {
            ctx.charge_alu(if self.round % 2 == self.heavy { 8 } else { 1 });
            self.round += 1;
            if self.round == self.rounds {
                WaveStatus::Done
            } else {
                WaveStatus::Active
            }
        }
    }

    #[test]
    fn round_bounds_sum_the_busiest_cu_of_every_round() {
        let mut cfg = GpuConfig::test_tiny();
        cfg.cost.launch_overhead = 1000;
        let alternating = |info: WaveInfo| Alternating {
            heavy: info.cu as u64,
            round: 0,
            rounds: 6,
        };
        // Two CUs, heavy on alternate rounds: every round's busiest CU
        // charges 8 issue cycles, while each CU's own clock reads
        // 3 * 8 + 3 * 1 — the summary is an upper envelope of the makespan.
        let report = Engine::new(cfg.clone())
            .run(Launch::workgroups(2), alternating)
            .unwrap();
        let bounds = report.round_bounds;
        assert_eq!(report.per_cu_cycles, [27, 27]);
        assert_eq!((bounds.issue_cycles, bounds.latency_cycles), (6 * 8, 0));
        assert_eq!(bounds.memory_cycles, 0);
        assert_eq!(bounds.weighted_occupancy(), 2.0);
        // One CU: the classes sum to its clock, which is the makespan
        // less the launch overhead — for issue- and latency-bound rounds.
        let solo = Engine::new(cfg.clone())
            .run(Launch::workgroups(1), alternating)
            .unwrap();
        let mut e = Engine::new(cfg);
        let buf = e.memory_mut().alloc("counter", 1);
        let atomics = e
            .run(Launch::workgroups(1), |_| IncrKernel { buf, remaining: 5 })
            .unwrap();
        for (report, latency_bound) in [(solo, false), (atomics, true)] {
            let bounds = report.round_bounds;
            let cycles = report.metrics.makespan_cycles - 1000;
            assert_eq!(bounds.total_cycles(), cycles);
            assert_eq!(report.per_cu_cycles[0], cycles);
            assert_eq!(bounds.latency_cycles == cycles, latency_bound);
            assert_eq!(bounds.weighted_occupancy(), 1.0);
        }
    }

    #[test]
    fn coresident_round_bounds_are_cut_at_retirement() {
        // Launch 0 retires after round 2; launch 1 runs 2 or 7 rounds.
        // The first two rounds are the same device history either way.
        let group = |straggler: u32| {
            let mut e = tiny_engine();
            let buf = e.memory().buffer("counter");
            e.run_group(Launch::workgroups(1), &[1, 2], &FaultPlan::EMPTY, |l, _| {
                IncrKernel {
                    buf,
                    remaining: if l == 0 { 2 } else { straggler },
                }
            })
            .unwrap()
        };
        let long = group(7);
        let (early, late) = (long[0].round_bounds, long[1].round_bounds);
        assert!(early.total_cycles() < late.total_cycles());
        assert!(early.issue_cycles <= late.issue_cycles);
        assert!(early.latency_cycles <= late.latency_cycles);
        assert!(early.memory_cycles <= late.memory_cycles);
        assert!(early.active_wave_cycles <= late.active_wave_cycles);
        // The early member holds the straggler's summary as of round 2.
        let short = group(2);
        assert_eq!(short[0].round_bounds, short[1].round_bounds);
        assert_eq!(early, short[1].round_bounds);
    }

    /// One wave polls a word (parking on it); the other idles a few
    /// cycles and then writes it. (The wake classes themselves are
    /// covered in `crate::park_tests`.)
    struct ParkDemo {
        buf: Buffer,
        poller: bool,
        idle: u32,
    }
    impl WaveKernel for ParkDemo {
        fn work_cycle(&mut self, ctx: &mut WaveCtx<'_>) -> WaveStatus {
            if self.poller {
                if ctx.global_read_stale(self.buf, 0) != 0 {
                    return WaveStatus::Done;
                }
                ctx.park_until_changed(self.buf, 0);
                WaveStatus::Active
            } else if self.idle > 0 {
                self.idle -= 1;
                ctx.charge_alu(1);
                WaveStatus::Active
            } else {
                ctx.global_write(self.buf, 0, 1);
                WaveStatus::Done
            }
        }
    }

    #[test]
    fn profile_reports_park_fast_path_and_footprints() {
        let mut e = tiny_engine();
        let buf = e.memory().buffer("counter");
        let report = e
            .run(Launch::workgroups(2), |i| ParkDemo {
                buf,
                poller: i.wave_id == 0,
                idle: 4,
            })
            .unwrap();
        let p = report.profile;
        assert_eq!(p.park_events, 1, "the poller parked once");
        assert!(
            p.park_replay_cycles >= 3,
            "idle rounds replay the parked cycle: {p:?}"
        );
        assert_eq!(p.arena_words, 1);
        assert!(p.meta_bytes > 0);
    }

    #[test]
    fn each_launch_reports_the_zeroing_since_the_one_before() {
        // A previous life writes 3000 words, so the next engine's arena
        // holds three stale pages.
        let mut old = DeviceMemory::new();
        let dirt = old.alloc("dirt", 3000);
        old.fill(dirt, 7);
        drop(old);
        let mut e = Engine::new(GpuConfig::test_tiny());
        let buf = e.memory_mut().alloc("counter", 1000);
        let launch = |e: &mut Engine| {
            let report = e.run(Launch::workgroups(1), |_| IncrKernel { buf, remaining: 1 });
            report.unwrap().profile.demand_zeroed_words
        };
        assert_eq!(launch(&mut e), 1000);
        assert_eq!(launch(&mut e), 0, "nothing allocated in between");
        e.memory_mut().alloc("more", 1500);
        assert_eq!(launch(&mut e), 1500);
        // The three reports add up to the memory's own count.
        assert_eq!(e.memory().demand_zeroed_words(), 2500);
    }

    /// Kernel claiming to be retry-free while actually issuing a CAS.
    struct LyingKernel {
        buf: Buffer,
    }
    impl WaveKernel for LyingKernel {
        fn work_cycle(&mut self, ctx: &mut WaveCtx<'_>) -> WaveStatus {
            ctx.audit_begin(crate::audit::OpSpec::new("RF/AN", "acquire"));
            ctx.atomic_cas(self.buf, 0, 0, 1);
            ctx.audit_end();
            WaveStatus::Done
        }
    }

    #[test]
    fn audit_violation_fails_the_run() {
        let mut e = tiny_engine();
        let buf = e.memory().buffer("counter");
        let err = e
            .run(Launch::workgroups(1), |_| LyingKernel { buf })
            .unwrap_err();
        assert!(matches!(err, SimError::AuditViolation(_)), "{err}");
    }

    #[test]
    fn empty_fault_plan_is_bit_identical_to_plain_run() {
        let run_plain = || {
            let mut e = tiny_engine();
            let buf = e.memory().buffer("counter");
            e.run(Launch::workgroups(4), |_| IncrKernel { buf, remaining: 6 })
                .unwrap()
        };
        let run_faulted = || incr_under(&mut tiny_engine(), 4, &FaultPlan::EMPTY, 6).unwrap();
        let a = run_plain();
        let b = run_faulted();
        assert_eq!(a.metrics, b.metrics);
        assert_eq!(a.per_cu_cycles, b.per_cu_cycles);
        assert_eq!(a.seconds, b.seconds);
        assert_eq!(b.metrics.injected_faults, 0);
        assert_eq!(b.metrics.injected_stall_cycles, 0);
    }

    #[test]
    fn wave_kill_aborts_with_structured_reason() {
        let plan = FaultPlan::new().kill_wave(2, 1);
        let err = incr_under(&mut tiny_engine(), 4, &plan, 10).unwrap_err();
        assert_eq!(
            err,
            SimError::KernelAbort {
                reason: AbortReason::InjectedFault {
                    kind: FaultKind::WaveKill,
                    wave: 1,
                    round: 2,
                },
                round: 2,
            }
        );
    }

    #[test]
    fn kill_of_retired_wave_is_a_miss() {
        // Wave 0 does 2 cycles; a kill scheduled long after termination
        // never fires and the run completes normally.
        let plan = FaultPlan::new().kill_wave(100, 0);
        let r = incr_under(&mut tiny_engine(), 1, &plan, 2).unwrap();
        assert_eq!(r.metrics.injected_faults, 0);
    }

    #[test]
    fn cu_stall_grows_makespan_deterministically() {
        let run = |plan: &FaultPlan| incr_under(&mut tiny_engine(), 1, plan, 4).unwrap();
        let clean = run(&FaultPlan::EMPTY);
        let stalled = run(&FaultPlan::new().stall_cu(0, 1, 2, 50));
        assert_eq!(
            stalled.metrics.makespan_cycles,
            clean.metrics.makespan_cycles + 100,
            "2 rounds x 50 extra cycles on the only busy CU"
        );
        assert_eq!(stalled.metrics.injected_stall_cycles, 100);
        assert_eq!(stalled.metrics.injected_faults, 1);
        assert_eq!(stalled.per_cu_cycles[0], clean.per_cu_cycles[0] + 100);
        // Everything else is untouched.
        assert_eq!(stalled.metrics.global_atomics, clean.metrics.global_atomics);
        assert_eq!(stalled.metrics.rounds, clean.metrics.rounds);
    }

    #[test]
    fn mem_poison_faults_next_access_with_wave_attached() {
        let plan = FaultPlan::new().poison(1, "counter", 0);
        let err = incr_under(&mut tiny_engine(), 2, &plan, 5).unwrap_err();
        match err {
            SimError::KernelAbort {
                reason:
                    AbortReason::InjectedFault {
                        kind: FaultKind::MemPoison,
                        wave,
                        round: armed,
                    },
                round,
            } => {
                assert_eq!(armed, 1, "poison was armed at round 1");
                assert_eq!(round, 1, "first atomic after arming is in round 1");
                assert!(wave < 4, "observing wave is attached, got {wave}");
            }
            other => panic!("expected poison abort, got {other:?}"),
        }
    }

    #[test]
    fn poison_on_unbound_buffer_is_skipped() {
        let plan = FaultPlan::new().poison(0, "workqueue", 3);
        let r = incr_under(&mut tiny_engine(), 1, &plan, 2).unwrap();
        assert_eq!(r.metrics.injected_faults, 0);
    }

    #[test]
    fn coresident_single_launch_matches_run() {
        let solo = {
            let mut e = tiny_engine();
            let buf = e.memory().buffer("counter");
            e.run(Launch::workgroups(3), |_| IncrKernel { buf, remaining: 5 })
                .unwrap()
        };
        let mut e = tiny_engine();
        let buf = e.memory().buffer("counter");
        let mut reports = e
            .run_group(Launch::workgroups(3), &[3], &FaultPlan::EMPTY, |_, _| {
                IncrKernel { buf, remaining: 5 }
            })
            .unwrap();
        assert_eq!(reports.len(), 1);
        let co = reports.pop().unwrap();
        assert_eq!(co.metrics, solo.metrics);
        assert_eq!(co.per_cu_cycles, solo.per_cu_cycles);
        assert_eq!(co.seconds, solo.seconds);
        // Arena-pool gauges depend on engine construction order, so
        // compare only the run-derived profile counters.
        assert_eq!(co.profile.park_events, solo.profile.park_events);
        assert_eq!(
            co.profile.park_replay_cycles,
            solo.profile.park_replay_cycles
        );
    }

    #[test]
    fn unlaunchable_requests_are_typed_errors() {
        type Request = fn(&mut Engine, Buffer) -> Result<Vec<RunReport>, SimError>;
        fn incr(buf: Buffer) -> impl FnMut(usize, WaveInfo) -> IncrKernel {
            move |_, _| IncrKernel { buf, remaining: 1 }
        }
        const CLEAN: &FaultPlan = &FaultPlan::EMPTY;
        let cases: [(&str, Request); 7] = [
            ("CPU groups", |e, buf| {
                e.config.cpu_groups = 1;
                e.run_group(Launch::workgroups(1), &[1, 1], CLEAN, incr(buf))
            }),
            ("at least one launch", |e, buf| {
                e.run_group(Launch::workgroups(1), &[], CLEAN, incr(buf))
            }),
            ("at least one workgroup", |e, buf| {
                e.run_group(Launch::workgroups(1), &[2, 0], CLEAN, incr(buf))
            }),
            ("single-launch only", |e, buf| {
                let kill = FaultPlan::new().kill_wave(0, 0);
                e.run_group(Launch::workgroups(1), &[1, 1], &kill, incr(buf))
            }),
            ("at least one group", |e, buf| {
                let run = e.run(Launch::workgroups(0), |_| IncrKernel { buf, remaining: 1 });
                run.map(|report| vec![report])
            }),
            // `GpuConfig`'s fields are public: a width no lane mask can
            // hold is refused, not shifted (and 0 would never terminate).
            ("wave_size 0 is outside", |e, buf| {
                e.config.wave_size = 0;
                e.run_group(Launch::workgroups(1), &[1], CLEAN, incr(buf))
            }),
            ("wave_size 65 is outside", |e, buf| {
                e.config.wave_size = MAX_WAVE_SIZE + 1;
                e.run_group(Launch::workgroups(1), &[1], CLEAN, incr(buf))
            }),
        ];
        for (cause, request) in cases {
            let mut e = tiny_engine();
            let buf = e.memory().buffer("counter");
            match request(&mut e, buf) {
                Err(SimError::InvalidLaunch(why)) => assert!(why.contains(cause), "{why}"),
                other => panic!("{cause}: expected InvalidLaunch, got {other:?}"),
            }
            // Refused before any device state changed.
            assert_eq!(e.memory().read_u32(buf, 0), 0);
        }
    }

    #[test]
    fn coresident_launches_split_metrics_and_overlap() {
        let mut e = tiny_engine();
        let buf = e.memory().buffer("counter");
        // Launch 0: 1 wave x 2 increments. Launch 1: 2 waves x 7
        // increments. All share one counter.
        let reports = e
            .run_group(Launch::workgroups(1), &[1, 2], &FaultPlan::EMPTY, |l, _| {
                IncrKernel {
                    buf,
                    remaining: if l == 0 { 2 } else { 7 },
                }
            })
            .unwrap();
        assert_eq!(reports.len(), 2);
        assert_eq!(e.memory().read_u32(buf, 0), 2 + 2 * 7);
        assert_eq!(reports[0].metrics.global_atomics, 2);
        assert_eq!(reports[1].metrics.global_atomics, 14);
        assert_eq!(reports[0].metrics.launches, 1);
        // The short launch retires after 2 rounds, the long one after 7 —
        // per-launch completion tracks each launch's own retirement.
        assert_eq!(reports[0].metrics.rounds, 2);
        assert_eq!(reports[1].metrics.rounds, 7);
        assert!(reports[0].metrics.makespan_cycles < reports[1].metrics.makespan_cycles);
    }

    #[test]
    fn coresident_completion_feels_contention() {
        // The same 2-increment launch finishes later (in cycles) when a
        // heavy co-resident shares the device than when it runs alone.
        let solo = {
            let mut e = tiny_engine();
            let buf = e.memory().buffer("counter");
            e.run(Launch::workgroups(1), |_| IncrKernel { buf, remaining: 2 })
                .unwrap()
        };
        let mut e = tiny_engine();
        let buf = e.memory().buffer("counter");
        let reports = e
            .run_group(Launch::workgroups(1), &[1, 4], &FaultPlan::EMPTY, |l, _| {
                IncrKernel {
                    buf,
                    remaining: if l == 0 { 2 } else { 8 },
                }
            })
            .unwrap();
        assert!(
            reports[0].metrics.makespan_cycles > solo.metrics.makespan_cycles,
            "co-residency contends: {} vs solo {}",
            reports[0].metrics.makespan_cycles,
            solo.metrics.makespan_cycles
        );
    }

    #[test]
    fn coresident_reports_are_deterministic() {
        let run = || {
            let mut e = tiny_engine();
            let buf = e.memory().buffer("counter");
            e.run_group(
                Launch::workgroups(1),
                &[2, 1, 3],
                &FaultPlan::EMPTY,
                |l, _| IncrKernel {
                    buf,
                    remaining: 3 + l as u32,
                },
            )
            .unwrap()
        };
        let a = run();
        let b = run();
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.metrics, y.metrics);
            assert_eq!(x.per_cu_cycles, y.per_cu_cycles);
            assert_eq!(x.seconds, y.seconds);
        }
    }

    #[test]
    fn launch_overhead_added_once() {
        let mut cfg = GpuConfig::test_tiny();
        cfg.cost.launch_overhead = 1000;
        let mut e = Engine::new(cfg);
        e.memory_mut().alloc("counter", 1);
        let buf = e.memory().buffer("counter");
        let r = e
            .run(Launch::workgroups(1), |_| IncrKernel { buf, remaining: 1 })
            .unwrap();
        assert!(r.metrics.makespan_cycles >= 1000);
        assert!(r.metrics.makespan_cycles < 1100);
    }

    /// How a [`TableKernel`] wave touches the table after reading it.
    #[derive(Clone, Copy, Debug)]
    enum TableOp {
        Read,
        Store,
        Atomic,
        Poke,
    }

    /// Each wave reads table word `wave`, adds it into `sum`, then does
    /// `op` on the same word; one cycle per step, for `steps` cycles.
    struct TableKernel {
        table: Buffer,
        sum: Buffer,
        op: TableOp,
        wave: usize,
        steps: u32,
    }

    impl WaveKernel for TableKernel {
        fn work_cycle(&mut self, ctx: &mut WaveCtx<'_>) -> WaveStatus {
            let word = ctx.global_read(self.table, self.wave);
            ctx.atomic_add(self.sum, 0, word);
            match self.op {
                TableOp::Read => {}
                TableOp::Store => ctx.global_write(self.table, self.wave, 7),
                TableOp::Atomic => drop(ctx.atomic_add(self.table, self.wave, 7)),
                TableOp::Poke => ctx.poke(self.table, self.wave, 7),
            }
            self.steps -= 1;
            if self.steps == 0 {
                WaveStatus::Done
            } else {
                WaveStatus::Active
            }
        }
    }

    /// A launch of [`TableKernel`]s over a table uploaded by copy or
    /// mapped, under `plan`: the result, the table as the host reads it
    /// and the arena words behind it.
    fn table_run(
        mapped: bool,
        op: TableOp,
        plan: &FaultPlan,
    ) -> (Result<RunReport, SimError>, Vec<u32>, Vec<u32>) {
        let data: Vec<u32> = (1..=8).collect();
        let mut e = Engine::new(GpuConfig::test_tiny());
        let mem = e.memory_mut();
        let table = if mapped {
            mem.map("table", std::sync::Arc::new(data))
        } else {
            mem.alloc_init("table", &data)
        };
        let sum = mem.alloc("sum", 1);
        let waves = e.config().waves_per_wg * 2;
        assert!(waves <= 8);
        let result = e
            .run_group(Launch::workgroups(2), &[2], plan, |_, info| TableKernel {
                table,
                sum,
                op,
                wave: info.wave_id,
                steps: 3,
            })
            .map(|mut reports| reports.remove(0));
        let mem = e.memory();
        let arena = mem.arena_words(table).to_vec();
        (result, mem.read_slice(table).to_vec(), arena)
    }

    #[test]
    fn mapped_buffers_refuse_device_writes_and_fault_like_copies() {
        let host: Vec<u32> = (1..=8).collect();
        // Reads: a mapped table runs exactly like a copied one.
        let (copied, _, _) = table_run(false, TableOp::Read, &FaultPlan::EMPTY);
        let (mapped, read, arena) = table_run(true, TableOp::Read, &FaultPlan::EMPTY);
        let (copied, mapped) = (copied.unwrap(), mapped.unwrap());
        assert_eq!(copied.metrics, mapped.metrics);
        assert_eq!(copied.per_cu_cycles, mapped.per_cu_cycles);
        assert_eq!(read, host);
        assert!(arena.iter().all(|&w| w == 0), "{arena:?}");
        // Every kernel write is the typed refusal naming the buffer, and
        // lands nowhere: not in the host array, not in the arena.
        for op in [TableOp::Store, TableOp::Atomic, TableOp::Poke] {
            let (result, read, arena) = table_run(true, op, &FaultPlan::EMPTY);
            assert_eq!(
                result.unwrap_err(),
                SimError::ReadOnly {
                    buffer: "table".into()
                },
                "{op:?}"
            );
            assert_eq!(read, host, "{op:?}");
            assert!(arena.iter().all(|&w| w == 0), "{op:?}: {arena:?}");
        }
        // A poison armed on a mapped word faults at the rotation position,
        // wave and round it does on the copy.
        let waves = GpuConfig::test_tiny().waves_per_wg * 2;
        for index in [0, waves - 1] {
            let plan = FaultPlan::new().poison(1, "table", index);
            let (copied, _, _) = table_run(false, TableOp::Read, &plan);
            let (mapped, _, _) = table_run(true, TableOp::Read, &plan);
            let copied = copied.unwrap_err();
            assert!(
                matches!(
                    copied.abort_reason(),
                    Some(AbortReason::InjectedFault { .. })
                ),
                "{copied}"
            );
            assert_eq!(mapped.unwrap_err(), copied, "poison on word {index}");
        }
    }
}
