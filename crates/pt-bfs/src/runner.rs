//! Host-side orchestration of a persistent-thread run, generic over the
//! workload.
//!
//! Mirrors what the paper's OpenCL host program does: allocate and
//! initialize device buffers (graph in CSR form, the workload's value
//! array, the scheduler queue painted with sentinels, the
//! outstanding-task counter), seed the workload's initial tokens, launch
//! the persistent kernel once, then read back the values. That sequence
//! is spelled out exactly once, in the launch primitive (`launch`);
//! [`crate::execute`] drives it under a [`RecoveryPolicy`], and the plain
//! runs here ([`run_workload`], [`run_bfs`]) are that loop handed the
//! policy value [`RecoveryPolicy::regrow_only`].

use crate::kernel::{PtKernel, SpillFence, CHUNK};
use crate::recovery::{run_solo, Progress, RecoveryLog, RecoveryPolicy, RunSpec};
use crate::workload::{Bfs, PtWorkload, WorkBuffers};
use gpu_queue::device::{Design, DeviceQueue};
use ptq_graph::Csr;
use simt::{
    Engine, GpuConfig, Launch, Metrics, Profile, RoundBounds, RunReport, SimError, WaveInfo,
};
use std::time::Instant;

/// Parameters of one persistent-thread run (workload-neutral).
#[derive(Clone, Debug)]
pub struct PtConfig {
    /// Which scheduler runs the tasks: a shared queue of one variant, or
    /// one ring per CU with stealing.
    pub design: Design,
    /// Number of workgroups to launch (the paper's sweep axis).
    pub workgroups: usize,
    /// Edges per lane per work cycle (paper default: 4).
    pub chunk: u32,
    /// Queue capacity as a multiple of the vertex count. The queue is
    /// non-wrapping, so this bounds *lifetime* enqueues: first-discovery
    /// traffic fits in 1.0, label-correcting re-enqueues and all-vertex
    /// seeding need headroom (see
    /// [`PtWorkload::default_capacity_factor`]).
    pub capacity_factor: f64,
    /// Collaborating CPU groups (0 except for the CHAI baseline).
    pub cpu_collab_groups: usize,
    /// Inert: read by nothing. The engine's round loop is serial (DESIGN.md
    /// *Why the round loop is serial*); the field survives only because
    /// the frozen `benchmark/` package assigns it, and goes with that
    /// assignment (ROADMAP item 1).
    pub engine_workers: usize,
}

impl PtConfig {
    /// The paper's standard configuration for `design` at `workgroups`; a
    /// bare [`gpu_queue::Variant`] is its shared queue.
    pub fn new(design: impl Into<Design>, workgroups: usize) -> Self {
        PtConfig {
            design: design.into(),
            workgroups,
            chunk: CHUNK,
            capacity_factor: 2.0,
            cpu_collab_groups: 0,
            engine_workers: 1,
        }
    }

    /// [`PtConfig::new`] with the capacity factor a workload asks for.
    pub fn for_workload<W: PtWorkload>(
        workload: &W,
        design: impl Into<Design>,
        workgroups: usize,
    ) -> Self {
        let mut config = Self::new(design, workgroups);
        config.capacity_factor = workload.default_capacity_factor();
        config
    }
}

/// Sizes the scheduler queue for `n` vertices at `factor`. The queue is
/// non-wrapping, so the capacity bounds *lifetime* enqueues, and at
/// giant scale `n * factor` can exceed the `u32` index space — the
/// product is therefore computed in `f64` (whose cast to `usize`
/// saturates rather than wraps) and clamped into `[64, u32::MAX]`.
/// Every queue-capacity computation in this crate goes through here so
/// the overflow audit lives in exactly one place.
pub fn queue_capacity(n: usize, factor: f64) -> u32 {
    ((n as f64 * factor) as usize)
        .max(64)
        .min(u32::MAX as usize) as u32
}

/// Run-level enforcement of the paper's central claim: a successful run
/// scheduled by a retry-free design must report zero CAS attempts, zero
/// CAS failures, and zero queue-empty retries. Complements the
/// per-wavefront scopes (`simt::audit`) that already validated each queue
/// op inside the run.
fn enforce_retry_free(design: Design, metrics: &Metrics) -> Result<(), SimError> {
    let claimed = match design {
        // Locally retry-free: never a CAS. Failed steal scans DO
        // count queue-empty retries — the documented trade-off —
        // so only the CAS half of the claim is enforced.
        Design::PerCu => Metrics {
            queue_empty_retries: 0,
            ..*metrics
        },
        Design::Shared(variant) if variant.is_retry_free() => *metrics,
        Design::Shared(_) => return Ok(()),
    };
    simt::audit::check_retry_free(&claimed)
        .map_err(|msg| SimError::AuditViolation(format!("{} run: {msg}", design.label())))
}

/// Host wall-clock seconds per runner phase, summed over every launch a
/// run made (aborted attempts included). Diagnostics only: host wall
/// time is nondeterministic and never enters a golden table or any
/// simulated quantity.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct PhaseWalls {
    /// Device-buffer allocation, graph upload, and queue seeding.
    pub setup_seconds: f64,
    /// Simulated-engine execution (the persistent-kernel launch).
    pub sim_seconds: f64,
    /// Value (and, for fenced epochs, snapshot) readback.
    pub readback_seconds: f64,
}

/// Result of a completed persistent-thread run.
#[derive(Clone, Debug, Default)]
pub struct Run {
    /// Simulated kernel time in seconds.
    pub seconds: f64,
    /// Simulator counters (atomics, CAS failures, retries, rounds, …).
    pub metrics: Metrics,
    /// Final per-vertex values: exact BFS levels, SSSP distances,
    /// component labels, or PR-delta contributions.
    pub values: Vec<u32>,
    /// Vertices reached (workload-defined; see [`PtWorkload::reached`]).
    pub reached: usize,
    /// Final cycle count of every compute unit (regression goldens pin
    /// these to prove engine fast paths are cycle-exact per CU, not just
    /// in aggregate).
    pub per_cu_cycles: Vec<u64>,
    /// What bounded the rounds of every committed launch, summed.
    pub round_bounds: RoundBounds,
    /// Recovery log: every abort the run survived (capacity regrows,
    /// injected faults, watchdog trips — whatever the run's
    /// [`RecoveryPolicy`] let it survive). Empty `attempts` for a
    /// first-try success.
    pub recovery: RecoveryLog,
    /// Host-side engine execution profile (arena footprint, demand
    /// zeroing, park replay). Never part of any golden: performance work may
    /// change these freely without perturbing simulated quantities.
    pub profile: Profile,
    /// Host wall time per runner phase (same caveat as `profile`). Shared
    /// by every member of a co-resident group.
    pub phases: PhaseWalls,
}

/// What one member's launch hands back to the retry/epoch loop.
pub(crate) struct Launched {
    pub report: RunReport,
    pub values: Vec<u32>,
    /// Fenced launches only: the on-queue bits and the spilled frontier
    /// — with `values`, the next [`crate::Checkpoint`].
    pub snapshot: Option<(Vec<u32>, Vec<u32>)>,
}

/// The launch primitive: one set-up → launch → read-back pass for
/// `spec.launches` (see [`RunSpec::launches`] for what co-residency
/// means) on one fresh [`Engine`], started from what `progress` says is
/// next: its checkpoint, else `spec.start`, else `seeds[l]` for member
/// `l`; its fence, capacity factor, round budget and faults. The start
/// state is *borrowed*: a relaunch after an abort copies neither seeds
/// nor snapshot.
///
/// Adds this pass's host wall time to `progress.phases` — also when the
/// launch aborts, so a run's phase walls account for its lost attempts.
///
/// # Errors
/// Propagates simulator faults and audit violations; an abort in any
/// member fails the whole group.
pub(crate) fn launch<W: PtWorkload>(
    gpu: &GpuConfig,
    spec: &RunSpec<'_, W>,
    seeds: &[Vec<u32>],
    progress: &mut Progress,
) -> Result<Vec<Launched>, SimError> {
    let resume = progress.checkpoint.as_ref().or(spec.start);
    let config = spec.config;
    let setup_start = Instant::now();
    let mut engine = Engine::new(gpu.clone());
    let mem = engine.memory_mut();
    let group = spec.launches.len() > 1;
    let mut bound = Vec::with_capacity(spec.launches.len());
    for (l, &(graph, workload)) in spec.launches.iter().enumerate() {
        if group {
            // Namespace this launch's allocations so co-resident
            // launches can each bind their own "nodes"/"edges"/aux
            // buffers in the one shared arena (lookups are by handle,
            // taken here). A solo launch keeps the bare names: fault
            // plans poison buffers by name.
            mem.set_alloc_prefix(&format!("q{l}:"));
        }
        let n = graph.num_vertices();
        let nodes = mem.alloc_init("nodes", graph.row_offsets());
        let edges = mem.alloc_init("edges", graph.adjacency());
        let mut workload = workload.clone();
        workload.bind(mem);
        // Per-token state spans `state_len` slots (`n` solo, `k * n` for
        // a k-member batch); frontier entries are tokens, so they index
        // this state directly.
        let state_len = workload.state_len(n);
        let value_name = workload.value_buffer_name();
        let (values, inqueue, frontier) = match resume {
            Some(snapshot) => (
                mem.alloc_init(value_name, &snapshot.values),
                mem.alloc_init("inqueue", &snapshot.inqueue),
                &snapshot.frontier,
            ),
            None => {
                let values = mem.alloc_init(value_name, &workload.initial_values(n));
                let inqueue = mem.alloc("inqueue", state_len);
                for &seed in &seeds[l] {
                    mem.write_u32(inqueue, seed as usize, 1);
                }
                (values, inqueue, &seeds[l])
            }
        };
        let pending = mem.alloc("pending", 1);
        mem.write_u32(pending, 0, frontier.len() as u32);
        // No fence, no spill buffer. Else: spill cursor + at most one
        // entry per token (the on-queue bit guarantees a token spills at
        // most once per epoch).
        let fence = progress.fence.map(|depth| SpillFence {
            depth,
            spill: mem.alloc("spill", state_len + 1),
        });
        let capacity = spec.capacity(l, progress.factor);
        let queue = DeviceQueue::setup(mem, config.design, capacity, gpu.num_cus);
        queue.host_seed(mem, frontier);
        let buffers = WorkBuffers {
            nodes,
            edges,
            values,
            inqueue,
            pending,
        };
        bound.push((queue, workload, buffers, fence));
    }
    mem.set_alloc_prefix("");

    // The engine audits the per-wavefront atomic budgets the queue
    // designs declare (`simt::audit`) inside the launch; the run-level
    // retry-free claim is checked after it.
    let template = Launch::workgroups(config.workgroups)
        .with_cpu_collab(config.cpu_collab_groups)
        .with_max_rounds(progress.max_rounds.min(simt::ROUND_LIMIT));
    let factory = |l: usize, info: WaveInfo| {
        let (queue, workload, buffers, fence) = &bound[l];
        let kernel = PtKernel::new(
            queue.wave_queue(info.cu),
            workload.clone(),
            *buffers,
            info.wave_size,
            config.chunk,
        );
        match fence {
            Some(fence) => kernel.with_fence(fence.depth, fence.spill),
            None => kernel,
        }
    };
    progress.phases.setup_seconds += setup_start.elapsed().as_secs_f64();

    let sim_start = Instant::now();
    let launch_wgs = vec![config.workgroups; bound.len()];
    let result = engine.run_group(template, &launch_wgs, &progress.plan, factory);
    progress.phases.sim_seconds += sim_start.elapsed().as_secs_f64();

    let readback_start = Instant::now();
    let mem = engine.memory();
    let mut launched = Vec::with_capacity(bound.len());
    for (report, (_, _, buffers, fence)) in result?.into_iter().zip(&bound) {
        enforce_retry_free(config.design, &report.metrics)?;
        let snapshot = fence.map(|fence| {
            let spilled = mem.read_u32(fence.spill, 0) as usize;
            (
                mem.read_slice(buffers.inqueue).to_vec(),
                mem.read_slice(fence.spill)[1..1 + spilled].to_vec(),
            )
        });
        launched.push(Launched {
            report,
            values: mem.read_slice(buffers.values).to_vec(),
            snapshot,
        });
    }
    progress.phases.readback_seconds += readback_start.elapsed().as_secs_f64();
    Ok(launched)
}

/// Runs `workload` under the persistent-thread model over `graph` on
/// `gpu`, applying the paper's queue-full recovery: "If more space can
/// be allocated, the user can retry the kernel with a larger queue." The
/// capacity doubles on each queue-full abort, up to 16× the configured
/// factor ([`RecoveryPolicy::regrow_only`]). Segmented variants have no
/// queue-full condition to recover from — overflow is a segment append —
/// so their log always records a clean single-attempt run.
///
/// ```
/// use pt_bfs::workload::ConnectedComponents;
/// use pt_bfs::{run_workload, PtConfig};
/// use gpu_queue::Variant;
/// use ptq_graph::gen::synthetic_tree;
/// use simt::GpuConfig;
///
/// let graph = synthetic_tree(300, 4);
/// let cc = ConnectedComponents;
/// let config = PtConfig::for_workload(&cc, Variant::RfAn, 2);
/// let run = run_workload(&GpuConfig::test_tiny(), &graph, &cc, &config).unwrap();
/// assert_eq!(run.metrics.total_retries(), 0); // retry-free
/// ```
///
/// # Errors
/// Propagates simulator faults (round-limit overruns, or queue-full even
/// at the maximum capacity) and [`SimError::InvalidLaunch`] for seeds
/// outside the graph.
pub fn run_workload<W: PtWorkload>(
    gpu: &GpuConfig,
    graph: &Csr,
    workload: &W,
    config: &PtConfig,
) -> Result<Run, SimError> {
    let policy = RecoveryPolicy::regrow_only(config.capacity_factor);
    run_solo(gpu, RunSpec::new(&[(graph, workload)], config, &policy))
}

/// Runs a persistent-thread BFS over `graph` from `source` on `gpu` —
/// [`run_workload`] instantiated with [`Bfs`].
///
/// ```
/// use pt_bfs::{run_bfs, PtConfig};
/// use gpu_queue::Variant;
/// use ptq_graph::gen::synthetic_tree;
/// use simt::GpuConfig;
///
/// let graph = synthetic_tree(500, 4);
/// let run = run_bfs(&GpuConfig::test_tiny(), &graph, 0,
///                   &PtConfig::new(Variant::RfAn, 2)).unwrap();
/// assert_eq!(run.reached, 500);
/// assert_eq!(run.metrics.total_retries(), 0); // retry-free
/// ```
///
/// # Errors
/// See [`run_workload`].
pub fn run_bfs(
    gpu: &GpuConfig,
    graph: &Csr,
    source: u32,
    config: &PtConfig,
) -> Result<Run, SimError> {
    run_workload(gpu, graph, &Bfs::new(source), config)
}

/// [`run_bfs`] on the work-stealing scheduler ([`Design::PerCu`]). Kept
/// only because the frozen `benchmark/` package calls it; ROADMAP item
/// 1(d) deletes it.
///
/// # Errors
/// See [`run_workload`].
pub fn run_bfs_stealing(
    gpu: &GpuConfig,
    graph: &Csr,
    source: u32,
    workgroups: usize,
) -> Result<Run, SimError> {
    run_bfs(
        gpu,
        graph,
        source,
        &PtConfig::new(Design::PerCu, workgroups),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::execute;
    use crate::workload::{ConnectedComponents, PrDelta};
    use gpu_queue::Variant;
    use ptq_graph::gen::{
        erdos_renyi, roadmap, social, synthetic_tree, RoadmapParams, SocialParams,
    };
    use ptq_graph::{bfs_levels, validate_levels};
    use simt::GpuConfig;

    /// `workload` on the work-stealing scheduler.
    fn run_stealing<W: PtWorkload>(graph: &Csr, workload: &W, wgs: usize) -> Run {
        let config = PtConfig::for_workload(workload, Design::PerCu, wgs);
        run_workload(&GpuConfig::test_tiny(), graph, workload, &config)
            .unwrap_or_else(|e| panic!("{} stealing: {e}", workload.name()))
    }

    /// BFS from 0 on the work-stealing scheduler.
    fn bfs_stealing(graph: &Csr, wgs: usize) -> Run {
        run_stealing(graph, &Bfs::new(0), wgs)
    }

    /// `entries` co-resident on one device: a single unfenced attempt.
    fn run_group(entries: &[(&Csr, &Bfs)], config: &PtConfig) -> Vec<Run> {
        let policy = RecoveryPolicy::regrow_only(config.capacity_factor);
        execute(
            &GpuConfig::test_tiny(),
            RunSpec::new(entries, config, &policy),
        )
        .unwrap_or_else(|f| panic!("co-resident group: {}", f.error))
    }

    fn check_all_variants(graph: &Csr, source: u32, wgs: usize) {
        let reference = bfs_levels(graph, source);
        for variant in Variant::ALL {
            let run = run_bfs(
                &GpuConfig::test_tiny(),
                graph,
                source,
                &PtConfig::new(variant, wgs),
            )
            .unwrap_or_else(|e| panic!("{variant:?} failed: {e}"));
            assert_eq!(
                run.reached, reference.reached,
                "{variant:?} reached mismatch"
            );
            validate_levels(graph, source, &run.values).unwrap_or_else(|(v, want, got)| {
                panic!("{variant:?}: vertex {v} expected level {want}, got {got}")
            });
        }
    }

    #[test]
    fn tree_bfs_exact_for_all_variants() {
        let g = synthetic_tree(400, 4);
        check_all_variants(&g, 0, 3);
    }

    #[test]
    fn roadmap_bfs_exact_for_all_variants() {
        let g = roadmap(RoadmapParams {
            rows: 16,
            cols: 16,
            keep_prob: 0.4,
            seed: 3,
        });
        check_all_variants(&g, 0, 2);
    }

    #[test]
    fn social_bfs_exact_for_all_variants() {
        let g = social(SocialParams {
            vertices: 600,
            avg_degree: 8.0,
            alpha: 1.8,
            max_degree: 100,
            seed: 5,
        });
        check_all_variants(&g, 0, 4);
    }

    #[test]
    fn random_multigraph_with_self_loops() {
        let g = erdos_renyi(300, 1200, 9);
        check_all_variants(&g, 7, 2);
    }

    #[test]
    fn single_vertex_graph() {
        let g = synthetic_tree(1, 4);
        check_all_variants(&g, 0, 1);
    }

    #[test]
    fn disconnected_graph_terminates() {
        // Source's component has 2 vertices; 98 unreachable.
        let mut b = ptq_graph::CsrBuilder::new(100);
        b.add_undirected_edge(0, 1);
        for i in 2..99 {
            b.add_undirected_edge(i, i + 1);
        }
        let g = b.build();
        let run = run_bfs(
            &GpuConfig::test_tiny(),
            &g,
            0,
            &PtConfig::new(Variant::RfAn, 2),
        )
        .unwrap();
        assert_eq!(run.reached, 2);
    }

    #[test]
    fn rfan_run_reports_zero_retries() {
        let g = synthetic_tree(500, 4);
        let run = run_bfs(
            &GpuConfig::test_tiny(),
            &g,
            0,
            &PtConfig::new(Variant::RfAn, 4),
        )
        .unwrap();
        assert_eq!(run.metrics.cas_failures, 0);
        assert_eq!(run.metrics.queue_empty_retries, 0);
    }

    #[test]
    fn retry_free_variants_pin_zero_retry_counters() {
        // The central claim, pinned as a regression over full audited
        // BFS runs: both retry-free variants issue NO CAS at all (not
        // merely zero failures) and never raise the queue-empty
        // exception. The AuditMode scopes already assert this per
        // wavefront op; this pins the run-level aggregate.
        let g = social(SocialParams {
            vertices: 800,
            avg_degree: 8.0,
            alpha: 1.8,
            max_degree: 120,
            seed: 11,
        });
        for variant in [Variant::RfAn, Variant::RfOnly] {
            let run = run_bfs(&GpuConfig::test_tiny(), &g, 0, &PtConfig::new(variant, 4))
                .unwrap_or_else(|e| panic!("{variant:?}: {e}"));
            assert_eq!(run.metrics.total_retries(), 0, "{variant:?}");
            assert_eq!(run.metrics.cas_attempts, 0, "{variant:?}");
            assert_eq!(run.metrics.queue_empty_retries, 0, "{variant:?}");
        }
    }

    #[test]
    fn base_run_reports_retry_overhead() {
        let g = synthetic_tree(500, 4);
        let run = run_bfs(
            &GpuConfig::test_tiny(),
            &g,
            0,
            &PtConfig::new(Variant::Base, 4),
        )
        .unwrap();
        assert!(run.metrics.total_retries() > 0);
    }

    #[test]
    fn variant_ordering_on_saturating_workload() {
        // The headline result at miniature scale: RF/AN strictly fastest.
        let g = synthetic_tree(2_000, 4);
        let mut secs = std::collections::HashMap::new();
        for v in Variant::ALL {
            let run = run_bfs(&GpuConfig::test_tiny(), &g, 0, &PtConfig::new(v, 4)).unwrap();
            secs.insert(v, run.seconds);
        }
        assert!(secs[&Variant::RfAn] < secs[&Variant::An]);
        assert!(secs[&Variant::RfAn] < secs[&Variant::Base]);
    }

    #[test]
    fn deterministic_runs() {
        let g = synthetic_tree(300, 4);
        let cfg = PtConfig::new(Variant::An, 3);
        let a = run_bfs(&GpuConfig::test_tiny(), &g, 0, &cfg).unwrap();
        let b = run_bfs(&GpuConfig::test_tiny(), &g, 0, &cfg).unwrap();
        assert_eq!(a.metrics, b.metrics);
        assert_eq!(a.values, b.values);
    }

    #[test]
    fn stealing_scheduler_is_exact_on_all_dataset_shapes() {
        for g in [
            synthetic_tree(600, 4),
            roadmap(RoadmapParams {
                rows: 14,
                cols: 14,
                keep_prob: 0.4,
                seed: 6,
            }),
            erdos_renyi(400, 1600, 3),
        ] {
            let run = bfs_stealing(&g, 4);
            validate_levels(&g, 0, &run.values).unwrap_or_else(|(v, want, got)| {
                panic!("stealing: vertex {v} level {got} != {want}")
            });
        }
    }

    #[test]
    fn stealing_is_retry_free_locally() {
        let g = synthetic_tree(2_000, 4);
        let run = bfs_stealing(&g, 4);
        assert_eq!(run.metrics.cas_attempts, 0, "stealing queues never CAS");
        // Failed steal scans count as queue-empty retries, which is the
        // documented trade-off (may be zero on a saturating tree).
    }

    #[test]
    fn cpu_collab_groups_participate() {
        let g = synthetic_tree(300, 4);
        let mut cfg = PtConfig::new(Variant::Base, 1);
        cfg.cpu_collab_groups = 2;
        let run = run_bfs(&GpuConfig::test_tiny(), &g, 0, &cfg).unwrap();
        assert_eq!(run.reached, 300);
    }

    #[test]
    fn connected_components_exact_on_disconnected_graph() {
        let mut b = ptq_graph::CsrBuilder::new(120);
        for i in 0..39 {
            b.add_undirected_edge(i, i + 1); // chain component {0..=39}
        }
        for i in 50..79 {
            b.add_undirected_edge(i, i + 1); // chain component {50..=79}
        }
        let g = b.build(); // plus 41 singletons
        let cc = ConnectedComponents;
        for variant in Variant::ALL {
            let config = PtConfig::for_workload(&cc, variant, 3);
            let run = run_workload(&GpuConfig::test_tiny(), &g, &cc, &config)
                .unwrap_or_else(|e| panic!("{variant:?}: {e}"));
            cc.validate(&g, &run.values)
                .unwrap_or_else(|(v, want, got)| {
                    panic!("{variant:?}: vertex {v} label {got} != {want}")
                });
            assert_eq!(run.reached, 120, "every vertex carries a label");
        }
    }

    #[test]
    fn prdelta_exact_and_thresholded() {
        let g = social(SocialParams {
            vertices: 500,
            avg_degree: 6.0,
            alpha: 1.9,
            max_degree: 80,
            seed: 21,
        });
        let pr = PrDelta::new(0);
        for variant in Variant::ALL {
            let config = PtConfig::for_workload(&pr, variant, 3);
            let run = run_workload(&GpuConfig::test_tiny(), &g, &pr, &config)
                .unwrap_or_else(|e| panic!("{variant:?}: {e}"));
            pr.validate(&g, &run.values)
                .unwrap_or_else(|(v, want, got)| {
                    panic!("{variant:?}: vertex {v} contribution {got} != {want}")
                });
            assert!(run.reached >= 1, "{variant:?}: the seed itself counts");
        }
    }

    #[test]
    fn segmented_variant_bfs_exact_and_retry_free() {
        let g = social(SocialParams {
            vertices: 600,
            avg_degree: 8.0,
            alpha: 1.8,
            seed: 5,
            max_degree: 100,
        });
        let run = run_bfs(
            &GpuConfig::test_tiny(),
            &g,
            0,
            &PtConfig::new(Variant::SegRfAn, 4),
        )
        .unwrap();
        validate_levels(&g, 0, &run.values)
            .unwrap_or_else(|(v, want, got)| panic!("vertex {v} level {got} != {want}"));
        assert_eq!(run.metrics.cas_attempts, 0);
        assert_eq!(run.metrics.total_retries(), 0);
        assert!(run.recovery.attempts.is_empty());
    }

    #[test]
    fn segmented_absorbs_what_bounded_queues_regrow_from() {
        // A capacity factor far below lifetime enqueues: the bounded
        // RF/AN queue needs capacity-regrow attempts; the segmented
        // variant recycles drained segments through its small arena —
        // zero recovery attempts, same exact levels. A chain keeps the
        // *live* frontier tiny while the *lifetime* token count (the
        // quantity that overflows bounded queues) spans every vertex —
        // exactly the regime the segmented design exists for.
        let mut b = ptq_graph::CsrBuilder::new(2_000);
        for i in 0..1_999 {
            b.add_undirected_edge(i, i + 1);
        }
        let g = b.build();
        let mut seg_cfg = PtConfig::new(Variant::SegRfAn, 3);
        seg_cfg.capacity_factor = 0.05;
        let seg = run_bfs(&GpuConfig::test_tiny(), &g, 0, &seg_cfg).unwrap();
        assert!(
            seg.recovery.attempts.is_empty(),
            "segmented runs never see queue-full: {:?}",
            seg.recovery.attempts
        );
        validate_levels(&g, 0, &seg.values)
            .unwrap_or_else(|(v, want, got)| panic!("vertex {v} level {got} != {want}"));

        // The bounded run starts undersized too, but high enough that
        // the paper's 16x regrow ceiling can still reach the lifetime
        // token count (0.05 would abort even after regrowing).
        let mut bounded_cfg = PtConfig::new(Variant::RfAn, 3);
        bounded_cfg.capacity_factor = 0.2;
        let bounded = run_bfs(&GpuConfig::test_tiny(), &g, 0, &bounded_cfg).unwrap();
        assert!(
            !bounded.recovery.attempts.is_empty(),
            "undersized bounded run should have regrown"
        );
        assert_eq!(seg.values, bounded.values, "same fixed point either way");
    }

    #[test]
    fn segmented_workloads_match_their_sequential_fixed_points() {
        let g = erdos_renyi(400, 1600, 3);
        let cc = ConnectedComponents;
        let config = PtConfig::for_workload(&cc, Variant::SegRfAn, 3);
        let run = run_workload(&GpuConfig::test_tiny(), &g, &cc, &config).unwrap();
        cc.validate(&g, &run.values)
            .unwrap_or_else(|(v, want, got)| panic!("cc: vertex {v} label {got} != {want}"));
        let pr = PrDelta::new(0);
        let config = PtConfig::for_workload(&pr, Variant::SegRfAn, 3);
        let run = run_workload(&GpuConfig::test_tiny(), &g, &pr, &config).unwrap();
        pr.validate(&g, &run.values)
            .unwrap_or_else(|(v, want, got)| panic!("pr: vertex {v} contribution {got} != {want}"));
    }

    #[test]
    fn queue_capacity_saturates_at_the_u32_boundary() {
        // Floor, ordinary sizing, and exactness just below the boundary.
        assert_eq!(queue_capacity(0, 2.0), 64);
        assert_eq!(queue_capacity(10, 1.0), 64);
        assert_eq!(queue_capacity(1_000, 2.0), 2_000);
        assert_eq!(queue_capacity(1_000, 1.25), 1_250);
        let near = (u32::MAX - 1) as usize;
        assert_eq!(queue_capacity(near, 1.0), u32::MAX - 1);
        // Products beyond the index space saturate instead of wrapping.
        assert_eq!(queue_capacity(u32::MAX as usize, 2.0), u32::MAX);
        assert_eq!(queue_capacity(usize::MAX, 1e9), u32::MAX);
    }

    #[test]
    fn runs_surface_profile_and_phase_walls() {
        let g = synthetic_tree(400, 4);
        let run = run_bfs(
            &GpuConfig::test_tiny(),
            &g,
            0,
            &PtConfig::new(Variant::RfAn, 2),
        )
        .unwrap();
        assert!(run.profile.arena_words > 0);
        assert!(run.profile.meta_bytes > 0);
        assert!(run.phases.sim_seconds > 0.0);
        assert!(run.phases.setup_seconds > 0.0 && run.phases.readback_seconds > 0.0);

        let stealing = bfs_stealing(&g, 2);
        assert!(stealing.profile.arena_words > 0);
        assert!(stealing.phases.sim_seconds > 0.0);
    }

    #[test]
    fn new_workloads_on_stealing_scheduler() {
        let g = synthetic_tree(400, 4);
        let cc = ConnectedComponents;
        let run = run_stealing(&g, &cc, 4);
        cc.validate(&g, &run.values)
            .unwrap_or_else(|(v, want, got)| panic!("cc stealing: {v}: {got} != {want}"));
        let pr = PrDelta::new(0);
        let run = run_stealing(&g, &pr, 4);
        pr.validate(&g, &run.values)
            .unwrap_or_else(|(v, want, got)| panic!("pr stealing: {v}: {got} != {want}"));
    }

    #[test]
    fn coresident_pair_is_isolated_but_contended() {
        // Two queries over two different graphs share the device: each
        // still produces exactly its solo value array (isolation), and
        // neither finishes earlier than it would alone (contention).
        let g1 = synthetic_tree(300, 4);
        let g2 = social(SocialParams {
            vertices: 400,
            avg_degree: 6.0,
            alpha: 1.8,
            max_degree: 80,
            seed: 11,
        });
        let config = PtConfig::new(Variant::RfAn, 2);
        let gpu = GpuConfig::test_tiny();
        let runs = run_group(&[(&g1, &Bfs::new(0)), (&g2, &Bfs::new(5))], &config);
        let solo1 = run_workload(&gpu, &g1, &Bfs::new(0), &config).unwrap();
        let solo2 = run_workload(&gpu, &g2, &Bfs::new(5), &config).unwrap();
        assert_eq!(runs[0].values, solo1.values);
        assert_eq!(runs[1].values, solo2.values);
        assert_eq!(runs[0].reached, solo1.reached);
        assert_eq!(runs[1].reached, solo2.reached);
        assert!(runs[0].seconds >= solo1.seconds);
        assert!(runs[1].seconds >= solo2.seconds);
        // Retry-free audits hold per launch under co-residency, and each
        // member's log counts its own rounds.
        for run in &runs {
            assert_eq!(run.metrics.total_retries(), 0);
            assert_eq!(run.recovery.epochs, 1);
            assert_eq!(run.recovery.rounds_committed, run.metrics.rounds);
        }
    }
}
