//! Chaos differential tests: seeded fault matrices (wave-kill × CU stall
//! × memory poison) injected into recoverable BFS and SSSP runs over the
//! paper's six dataset shapes, checked byte-for-byte against fault-free
//! goldens.
//!
//! Both kernels are label-correcting — an atomic-min worklist converges
//! to exact values in any execution order — so a run that survives
//! aborts via checkpoint/resume must finish with a value array
//! *identical* to an uninterrupted run's. These tests pin that property
//! for BFS, pin that SSSP inherits it through the workload-generic
//! recovery path (DESIGN.md *Fences and checkpoints*) with fences in
//! *distance* units, plus
//! the acceptance scenario for both: resuming from a checkpoint replays
//! strictly fewer rounds than restarting from scratch under the same
//! fault plan. The kernel's edge walk faults on the mapped inputs too:
//! a poisoned adjacency or weight word recovers like a poisoned value.

use ptq::bfs::workload::{Bfs, PtWorkload, Sssp};
use ptq::bfs::{run_bfs, run_recoverable, run_workload, PtConfig, RecoveryPolicy};
use ptq::graph::{bfs_levels, random_weights, Csr, Dataset};
use ptq::queue::Variant;
use simt::{AbortReason, FaultKind, FaultPlan, FaultSpec, GpuConfig};

/// The six dataset shapes at chaos-test scale: fractions chosen so every
/// graph lands at roughly 1–2.5k vertices (seconds per run, not minutes).
const CHAOS_SCALE: [(Dataset, f64); 6] = [
    (Dataset::Synthetic, 0.0002),
    (Dataset::GplusCombined, 0.005),
    (Dataset::SocLiveJournal1, 0.0003),
    (Dataset::RoadNY, 0.005),
    (Dataset::RoadLKS, 0.0005),
    (Dataset::RoadUSA, 0.0001),
];

/// A seeded fault matrix covering all three fault kinds, scaled to the
/// tiny test GPU (3 workgroups on `test_tiny`).
fn chaos_plan(seed: u64, num_vertices: usize) -> FaultPlan {
    FaultPlan::seeded(
        seed,
        &FaultSpec {
            wave_kills: 2,
            cu_stalls: 2,
            mem_poisons: 2,
            max_round: 8, // early rounds: every launch reaches them
            waves: 3,
            cus: 2,
            max_stall_rounds: 4,
            max_stall_cycles: 200,
            poison_buffer: "costs".into(),
            poison_words: num_vertices,
        },
    )
}

fn chaos_policy() -> RecoveryPolicy {
    RecoveryPolicy {
        checkpoint_levels: 3,
        max_attempts: 16,
        ..RecoveryPolicy::default()
    }
}

/// The chaos differential: on every dataset shape, a recoverable run
/// under a seeded fault matrix converges to levels byte-identical to the
/// fault-free golden, and the RF/AN variant still audits retry-free
/// (zero CAS failures, zero empty-queue retries) on every surviving
/// launch — recovery must not silently degrade the queue's claims.
#[test]
fn seeded_chaos_matrix_converges_on_all_six_datasets() {
    let gpu = GpuConfig::test_tiny();
    for (i, (dataset, fraction)) in CHAOS_SCALE.iter().enumerate() {
        let graph = dataset.build(*fraction);
        let source = dataset.source();
        let config = PtConfig::new(Variant::RfAn, 3);
        let golden = run_bfs(&gpu, &graph, source, &config)
            .unwrap_or_else(|e| panic!("{dataset:?}: golden run failed: {e}"));

        let plan = chaos_plan(0xC4A05 ^ (i as u64) << 8, graph.num_vertices());
        assert_eq!(plan.len(), 6, "{dataset:?}: fault matrix incomplete");
        let run = run_recoverable(
            &gpu,
            &graph,
            &Bfs::new(source),
            &config,
            &chaos_policy(),
            &plan,
        )
        .unwrap_or_else(|e| panic!("{dataset:?}: chaos run failed: {e}"));

        assert_eq!(
            run.values, golden.values,
            "{dataset:?}: recovered levels diverge from fault-free golden"
        );
        assert_eq!(run.reached, golden.reached, "{dataset:?}");
        // The retry-free claim survives chaos: audited inside every epoch,
        // and visible in the merged counters.
        assert_eq!(run.metrics.cas_failures, 0, "{dataset:?}: RF/AN retried");
        assert_eq!(
            run.metrics.queue_empty_retries, 0,
            "{dataset:?}: RF/AN spun on empty"
        );
    }
}

/// The segmented leg of the chaos matrix: SEG-RF/AN rides the same
/// checkpoint/resume loop across all six dataset shapes, but its abort
/// vocabulary has no queue-full entry — every recovery attempt in the
/// log must be an injected fault, never a capacity event, and no
/// capacity regrow ever triggers. Levels stay byte-identical to the
/// fault-free segmented golden, and the retry-free audit holds on every
/// surviving launch.
#[test]
fn segmented_chaos_matrix_recovers_without_queue_full_on_all_six_datasets() {
    let gpu = GpuConfig::test_tiny();
    for (i, (dataset, fraction)) in CHAOS_SCALE.iter().enumerate() {
        let graph = dataset.build(*fraction);
        let source = dataset.source();
        let config = PtConfig::new(Variant::SegRfAn, 3);
        let golden = run_bfs(&gpu, &graph, source, &config)
            .unwrap_or_else(|e| panic!("{dataset:?}: segmented golden run failed: {e}"));

        let plan = chaos_plan(0xC4A05 ^ (i as u64) << 8, graph.num_vertices());
        let run = run_recoverable(
            &gpu,
            &graph,
            &Bfs::new(source),
            &config,
            &chaos_policy(),
            &plan,
        )
        .unwrap_or_else(|e| panic!("{dataset:?}: segmented chaos run failed: {e}"));

        assert_eq!(
            run.values, golden.values,
            "{dataset:?}: recovered levels diverge from fault-free segmented golden"
        );
        assert_eq!(run.reached, golden.reached, "{dataset:?}");
        assert!(
            run.recovery
                .attempts
                .iter()
                .all(|a| !matches!(a.reason, AbortReason::QueueFull { .. })),
            "{dataset:?}: queue-full is unreachable on segmented variants: {:?}",
            run.recovery.attempts
        );
        assert_eq!(
            run.recovery.final_capacity_factor, config.capacity_factor,
            "{dataset:?}: capacity regrow triggered on a segmented run"
        );
        assert_eq!(
            run.metrics.cas_failures, 0,
            "{dataset:?}: SEG-RF/AN retried"
        );
        assert_eq!(
            run.metrics.queue_empty_retries, 0,
            "{dataset:?}: SEG-RF/AN spun on empty"
        );
    }
}

/// Same chaos matrix through the AN variant (CAS-based enqueue): recovery
/// is queue-agnostic, so the differential must hold there too.
#[test]
fn chaos_matrix_converges_on_an_variant() {
    let gpu = GpuConfig::test_tiny();
    let (dataset, fraction) = CHAOS_SCALE[3]; // RoadNY: deep frontier
    let graph = dataset.build(fraction);
    let config = PtConfig::new(Variant::An, 3);
    let golden = run_bfs(&gpu, &graph, dataset.source(), &config).unwrap();
    let plan = chaos_plan(0xA17, graph.num_vertices());
    let run = run_recoverable(
        &gpu,
        &graph,
        &Bfs::new(dataset.source()),
        &config,
        &chaos_policy(),
        &plan,
    )
    .unwrap();
    assert_eq!(run.values, golden.values);
}

/// Determinism: the same seed yields the same fault plan, and the same
/// (graph, plan, policy) yields bit-identical metrics, recovery log, and
/// simulated time across repeated runs — the property that lets the CI
/// chaos job byte-diff its report against a pinned golden.
#[test]
fn chaos_runs_are_deterministic() {
    let gpu = GpuConfig::test_tiny();
    let (dataset, fraction) = CHAOS_SCALE[4]; // RoadLKS
    let graph = dataset.build(fraction);
    let config = PtConfig::new(Variant::RfAn, 3);
    let plan_a = chaos_plan(99, graph.num_vertices());
    let plan_b = chaos_plan(99, graph.num_vertices());
    assert_eq!(plan_a, plan_b, "seeded plans must be identical");

    let a = run_recoverable(
        &gpu,
        &graph,
        &Bfs::new(dataset.source()),
        &config,
        &chaos_policy(),
        &plan_a,
    )
    .unwrap();
    let b = run_recoverable(
        &gpu,
        &graph,
        &Bfs::new(dataset.source()),
        &config,
        &chaos_policy(),
        &plan_b,
    )
    .unwrap();
    assert_eq!(a.metrics, b.metrics);
    assert_eq!(a.recovery, b.recovery);
    assert_eq!(a.values, b.values);
    assert_eq!(a.seconds, b.seconds);
}

/// The acceptance scenario: the same graph and the same fault plan, run
/// once with tight checkpoints and once with `checkpoint_levels: u32::MAX`
/// (the from-scratch degenerate — one unfenced launch, recovery restarts
/// the traversal). Both must converge to the identical golden levels, both
/// must survive exactly one injected abort, and the checkpointed run must
/// replay strictly fewer rounds.
#[test]
fn checkpoint_resume_replays_fewer_rounds_than_restart() {
    let gpu = GpuConfig::test_tiny();
    let (dataset, fraction) = CHAOS_SCALE[3]; // RoadNY: deep, many epochs
    let graph = dataset.build(fraction);
    let source = dataset.source();
    let config = PtConfig::new(Variant::RfAn, 3);
    let golden = run_bfs(&gpu, &graph, source, &config).unwrap();

    // One wave-kill early in the launch: fires in epoch 0 of the fenced
    // run and at round 2 of the unfenced run alike.
    let plan = FaultPlan::new().kill_wave(2, 1);

    let fenced_policy = RecoveryPolicy {
        checkpoint_levels: 2,
        ..RecoveryPolicy::default()
    };
    let scratch_policy = RecoveryPolicy {
        checkpoint_levels: u32::MAX,
        ..RecoveryPolicy::default()
    };
    let fenced = run_recoverable(
        &gpu,
        &graph,
        &Bfs::new(source),
        &config,
        &fenced_policy,
        &plan,
    )
    .unwrap();
    let scratch = run_recoverable(
        &gpu,
        &graph,
        &Bfs::new(source),
        &config,
        &scratch_policy,
        &plan,
    )
    .unwrap();

    assert_eq!(fenced.values, golden.values, "checkpointed run diverged");
    assert_eq!(scratch.values, golden.values, "from-scratch run diverged");
    assert_eq!(
        fenced.recovery.aborts(),
        1,
        "fenced run must be interrupted"
    );
    assert_eq!(
        scratch.recovery.aborts(),
        1,
        "scratch run must be interrupted"
    );
    assert!(
        fenced.recovery.rounds_replayed < scratch.recovery.rounds_replayed,
        "checkpointing must replay fewer rounds: fenced {} vs scratch {}",
        fenced.recovery.rounds_replayed,
        scratch.recovery.rounds_replayed
    );
}

/// SSSP inherits the whole recovery stack through the workload layer:
/// a seeded chaos matrix (wave-kill × CU stall × poison of the "dist"
/// value buffer) injected into a recoverable SSSP run converges to
/// distances byte-identical to the fault-free golden, still audited
/// retry-free on RF/AN.
#[test]
fn sssp_chaos_matrix_converges_to_golden_distances() {
    let gpu = GpuConfig::test_tiny();
    let (dataset, fraction) = CHAOS_SCALE[3]; // RoadNY: deep frontier
    let graph = dataset.build(fraction);
    let source = dataset.source();
    let weights = random_weights(&graph, 9, 0x55);
    let workload = Sssp::new(source, weights);
    let config = PtConfig::for_workload(&workload, Variant::RfAn, 3);
    let golden = run_workload(&gpu, &graph, &workload, &config).unwrap();
    let plan = FaultPlan::seeded(
        0x5559,
        &FaultSpec {
            wave_kills: 2,
            cu_stalls: 2,
            mem_poisons: 2,
            max_round: 8,
            waves: 3,
            cus: 2,
            max_stall_rounds: 4,
            max_stall_cycles: 200,
            poison_buffer: "dist".into(),
            poison_words: graph.num_vertices(),
        },
    );
    assert_eq!(plan.len(), 6, "fault matrix incomplete");
    let policy = RecoveryPolicy {
        checkpoint_levels: 12, // distance units per epoch (weights 1..=9)
        max_attempts: 16,
        ..RecoveryPolicy::default()
    };
    let run = run_recoverable(&gpu, &graph, &workload, &config, &policy, &plan)
        .unwrap_or_else(|e| panic!("SSSP chaos run failed: {e}"));

    assert_eq!(
        run.values, golden.values,
        "recovered distances diverge from fault-free golden"
    );
    assert!(run.recovery.aborts() >= 1, "chaos must actually interrupt");
    assert_eq!(run.metrics.cas_failures, 0, "RF/AN retried");
    assert_eq!(run.metrics.queue_empty_retries, 0, "RF/AN spun on empty");
}

/// The SSSP acceptance scenario mirrors the BFS one: same graph, same
/// fault plan, fenced (distance-stride checkpoints) vs from-scratch
/// recovery — both exact, the checkpointed run replays strictly fewer
/// rounds.
#[test]
fn sssp_checkpoint_resume_replays_fewer_rounds_than_restart() {
    let gpu = GpuConfig::test_tiny();
    let (dataset, fraction) = CHAOS_SCALE[3]; // RoadNY: deep, many epochs
    let graph = dataset.build(fraction);
    let source = dataset.source();
    let weights = random_weights(&graph, 7, 0x77);
    let workload = Sssp::new(source, weights);
    let config = PtConfig::for_workload(&workload, Variant::RfAn, 3);
    let golden = run_workload(&gpu, &graph, &workload, &config).unwrap();
    let plan = FaultPlan::new().kill_wave(2, 1);
    let fenced_policy = RecoveryPolicy {
        checkpoint_levels: 8, // distance units per epoch
        ..RecoveryPolicy::default()
    };
    let scratch_policy = RecoveryPolicy {
        checkpoint_levels: u32::MAX,
        ..RecoveryPolicy::default()
    };
    let fenced = run_recoverable(&gpu, &graph, &workload, &config, &fenced_policy, &plan).unwrap();
    let scratch =
        run_recoverable(&gpu, &graph, &workload, &config, &scratch_policy, &plan).unwrap();

    assert_eq!(fenced.values, golden.values, "checkpointed run diverged");
    assert_eq!(scratch.values, golden.values, "from-scratch run diverged");
    assert_eq!(
        fenced.recovery.aborts(),
        1,
        "fenced run must be interrupted"
    );
    assert_eq!(
        scratch.recovery.aborts(),
        1,
        "scratch run must be interrupted"
    );
    assert!(
        fenced.recovery.rounds_replayed < scratch.recovery.rounds_replayed,
        "checkpointing must replay fewer rounds: fenced {} vs scratch {}",
        fenced.recovery.rounds_replayed,
        scratch.recovery.rounds_replayed
    );
}

/// An empty fault plan through the recoverable runner leaves the result
/// identical to the plain runner on a real dataset shape — the overlay
/// costs nothing when unused.
#[test]
fn empty_plan_matches_plain_runner_on_dataset() {
    let gpu = GpuConfig::test_tiny();
    let (dataset, fraction) = CHAOS_SCALE[1]; // Gplus: dense hub
    let graph = dataset.build(fraction);
    let config = PtConfig::new(Variant::RfAn, 3);
    let plain = run_bfs(&gpu, &graph, dataset.source(), &config).unwrap();
    let policy = RecoveryPolicy {
        checkpoint_levels: u32::MAX,
        ..RecoveryPolicy::default()
    };
    let run = run_recoverable(
        &gpu,
        &graph,
        &Bfs::new(dataset.source()),
        &config,
        &policy,
        &FaultPlan::EMPTY,
    )
    .unwrap();
    assert_eq!(run.values, plain.values);
    // Every behavioral counter matches the plain runner exactly. Timing
    // (makespan) may drift a few cycles: the epoch runner allocates a
    // spill buffer, which shifts the queue's flat address and thus
    // coalescing segment alignment.
    assert_eq!(run.metrics.rounds, plain.metrics.rounds);
    assert_eq!(run.metrics.work_cycles, plain.metrics.work_cycles);
    assert_eq!(run.metrics.global_atomics, plain.metrics.global_atomics);
    assert_eq!(
        run.metrics.scheduler_atomics,
        plain.metrics.scheduler_atomics
    );
    assert_eq!(run.metrics.global_mem_ops, plain.metrics.global_mem_ops);
    assert_eq!(run.metrics.injected_faults, 0);
    assert_eq!(run.metrics.injected_stall_cycles, 0);
    assert!(run.recovery.attempts.is_empty());
}

/// A retried run of `workload` under one poisoned `word` of `buffer`
/// logs the poison as an injected fault and recovers the clean values.
fn assert_poison_recovers<W: PtWorkload>(graph: &Csr, workload: &W, buffer: &str, word: usize) {
    let gpu = GpuConfig::test_tiny();
    let config = PtConfig::for_workload(workload, Variant::RfAn, 3);
    let clean = run_workload(&gpu, graph, workload, &config).unwrap();
    let plan = FaultPlan::new().poison(1, buffer, word);
    let policy = RecoveryPolicy {
        checkpoint_levels: u32::MAX,
        max_attempts: 4,
        ..RecoveryPolicy::default()
    };
    let run = run_recoverable(&gpu, graph, workload, &config, &policy, &plan)
        .unwrap_or_else(|e| panic!("{buffer}: poisoned run failed: {e}"));
    let poisoned = |reason: &AbortReason| {
        matches!(
            reason,
            AbortReason::InjectedFault {
                kind: FaultKind::MemPoison,
                ..
            }
        )
    };
    let log = &run.recovery.attempts;
    assert!(log.iter().any(|a| poisoned(&a.reason)), "{buffer}: {log:?}");
    assert_eq!(
        run.values, clean.values,
        "{buffer}: recovered values differ"
    );
}

/// Every seeded plan poisons a value buffer; this one poisons the mapped
/// inputs the edge walk reads, inside the launch's reach: the end row
/// offset of a vertex three levels out in `"nodes"` and its first edge
/// in `"edges"` under BFS, and that edge's word of `"weights"` under
/// SSSP.
#[test]
fn poisoned_csr_and_weight_words_recover_to_the_clean_values() {
    let (dataset, fraction) = CHAOS_SCALE[3]; // RoadNY: deep frontier
    let graph = dataset.build(fraction);
    let source = dataset.source();
    let levels = bfs_levels(&graph, source).levels;
    let far = (0..graph.num_vertices() as u32)
        .find(|&v| levels[v as usize] == 3 && graph.degree(v) > 0)
        .expect("a vertex three levels out with an out-edge");
    let word = graph.edge_start(far) as usize;
    let bfs = Bfs::new(source);
    assert_poison_recovers(&graph, &bfs, "nodes", far as usize + 1);
    assert_poison_recovers(&graph, &bfs, "edges", word);
    let sssp = Sssp::new(source, random_weights(&graph, 9, 0x57));
    assert_poison_recovers(&graph, &sssp, "weights", word);
}
