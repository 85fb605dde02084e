//! The one run path, pinned from outside the crate.
//!
//! *Plain is a policy value:* the named constructors ([`run_workload`],
//! [`run_bfs_stealing`]) must be indistinguishable — simulated seconds
//! bit for bit, every counter, every per-CU clock, the recovery log —
//! from [`execute`] handed the paper's regrow rule spelled out as a
//! [`RecoveryPolicy`] literal, across queue variants, workloads, graph
//! shapes, the capacity-regrow case and the stealing scheduler. A
//! one-member launch group *is* the solo path, so the same comparison
//! covers it.
//!
//! *Typed errors at the boundary:* every spec that cannot be launched
//! comes back as a [`SimError::InvalidLaunch`] naming its cause — no
//! input reaches an `assert!` in the runner or the engine.

use gpu_queue::Variant;
use pt_bfs::{
    execute, run_bfs_stealing, run_recoverable, run_workload, Bfs, ConnectedComponents, PrDelta,
    PtConfig, PtWorkload, RecoveryPolicy, Run, RunSpec, Scheduler, Sssp,
};
use ptq_graph::gen::{roadmap, social, synthetic_tree, RoadmapParams, SocialParams};
use ptq_graph::{random_weights, Csr, CsrBuilder};
use simt::{FaultPlan, GpuConfig, SimError};

/// The four paper-matrix variants plus the segmented queue.
const VARIANTS: [Variant; 5] = [
    Variant::Base,
    Variant::An,
    Variant::RfOnly,
    Variant::RfAn,
    Variant::SegRfAn,
];

/// "Retry the kernel with a larger queue", written out rather than taken
/// from [`RecoveryPolicy::regrow_only`] — the point is to pin what that
/// constructor means.
fn paper_policy(factor: f64) -> RecoveryPolicy {
    RecoveryPolicy {
        max_attempts: 8,
        max_capacity_factor: 16.0 * factor,
        backoff_cycles: 0,
        checkpoint_levels: u32::MAX,
        watchdog_rounds: 0,
    }
}

fn graphs() -> [(&'static str, Csr); 3] {
    let road = roadmap(RoadmapParams {
        rows: 20,
        cols: 20,
        keep_prob: 0.7,
        seed: 3,
    });
    let social = social(SocialParams {
        vertices: 500,
        avg_degree: 8.0,
        alpha: 1.8,
        max_degree: 90,
        seed: 5,
    });
    [
        ("tree", synthetic_tree(600, 4)),
        ("road", road),
        ("social", social),
    ]
}

fn chain(n: u32) -> Csr {
    let mut b = CsrBuilder::new(n as usize);
    for i in 0..n - 1 {
        b.add_undirected_edge(i, i + 1);
    }
    b.build()
}

#[track_caller]
fn assert_same_run(a: &Run, b: &Run, tag: &str) {
    assert_eq!(a.seconds.to_bits(), b.seconds.to_bits(), "{tag}: seconds");
    assert_eq!(a.metrics, b.metrics, "{tag}: metrics");
    assert_eq!(a.per_cu_cycles, b.per_cu_cycles, "{tag}: per-CU cycles");
    assert_eq!(a.values, b.values, "{tag}: values");
    assert_eq!(a.reached, b.reached, "{tag}: reached");
    assert_eq!(a.recovery, b.recovery, "{tag}: recovery log");
}

fn execute_solo<W: PtWorkload>(
    graph: &Csr,
    workload: &W,
    config: &PtConfig,
    scheduler: Scheduler,
) -> Run {
    let policy = paper_policy(config.capacity_factor);
    let solo = [(graph, workload)];
    let spec = RunSpec {
        scheduler,
        ..RunSpec::new(&solo, config, &policy)
    };
    execute(&GpuConfig::test_tiny(), spec)
        .unwrap_or_else(|failure| panic!("{}: {}", workload.name(), failure.error))
        .remove(0)
}

fn plain_equals_policy_value<W: PtWorkload>(graph: &Csr, workload: &W, tag: &str) {
    let gpu = GpuConfig::test_tiny();
    for variant in VARIANTS {
        let tag = format!("{tag}/{}/{variant:?}", workload.name());
        let config = PtConfig::for_workload(workload, variant, 3);
        let plain =
            run_workload(&gpu, graph, workload, &config).unwrap_or_else(|e| panic!("{tag}: {e}"));
        assert!(plain.recovery.attempts.is_empty(), "{tag}: sized to fit");
        let valued = execute_solo(graph, workload, &config, Scheduler::Shared);
        assert_same_run(&plain, &valued, &tag);
        // The recoverable constructor on an unfenced stride is the same
        // launch again (its other defaults only matter after an abort).
        let unfenced = RecoveryPolicy {
            checkpoint_levels: u32::MAX,
            ..RecoveryPolicy::default()
        };
        let recoverable =
            run_recoverable(&gpu, graph, workload, &config, &unfenced, &FaultPlan::EMPTY)
                .unwrap_or_else(|e| panic!("{tag}: {e}"));
        assert_same_run(&plain, &recoverable, &tag);
    }
}

#[test]
fn plain_is_a_policy_value_across_variants_workloads_and_graphs() {
    for (name, graph) in graphs() {
        plain_equals_policy_value(&graph, &Bfs::new(0), name);
        let sssp = Sssp::new(0, random_weights(&graph, 9, 0x55));
        plain_equals_policy_value(&graph, &sssp, name);
        plain_equals_policy_value(&graph, &ConnectedComponents, name);
        plain_equals_policy_value(&graph, &PrDelta::new(0), name);
    }
}

#[test]
fn plain_is_a_policy_value_through_capacity_regrow() {
    // A chain's lifetime enqueues span every vertex, so a queue a fifth
    // of that size must regrow — three times, 0.2 -> 1.6.
    let graph = chain(2_000);
    let bfs = Bfs::new(0);
    for variant in [Variant::Base, Variant::An, Variant::RfAn] {
        let mut config = PtConfig::new(variant, 3);
        config.capacity_factor = 0.2;
        let plain = run_workload(&GpuConfig::test_tiny(), &graph, &bfs, &config).unwrap();
        let factors: Vec<f64> = plain
            .recovery
            .attempts
            .iter()
            .map(|a| a.capacity_factor)
            .collect();
        assert_eq!(factors, [0.2, 0.4, 0.8], "{variant:?}");
        assert_eq!(plain.recovery.final_capacity_factor, 1.6);
        assert_eq!(plain.recovery.rounds_replayed, plain.metrics.rounds);
        let valued = execute_solo(&graph, &bfs, &config, Scheduler::Shared);
        assert_same_run(&plain, &valued, &format!("chain/{variant:?}"));
    }
}

#[test]
fn stealing_is_a_policy_value_too() {
    for (name, graph) in graphs() {
        let bfs = Bfs::new(0);
        let plain = run_bfs_stealing(&GpuConfig::test_tiny(), &graph, 0, 3).unwrap();
        let config = PtConfig::for_workload(&bfs, Variant::RfAn, 3);
        let valued = execute_solo(&graph, &bfs, &config, Scheduler::Stealing);
        assert_same_run(&plain, &valued, &format!("{name}/stealing"));
        // And it is a different scheduler, not a relabelled shared queue.
        let shared = execute_solo(&graph, &bfs, &config, Scheduler::Shared);
        assert_eq!(shared.values, plain.values);
        assert_ne!(shared.metrics, plain.metrics, "{name}: same counters");
    }
}

#[test]
fn unlaunchable_specs_are_typed_errors_naming_the_cause() {
    let graph = synthetic_tree(100, 4);
    let (bfs, stray) = (Bfs::new(0), Bfs::new(100));
    let config = PtConfig::new(Variant::RfAn, 2);
    let mut collab = config.clone();
    collab.cpu_collab_groups = 1;
    let zero_chunk = PtConfig {
        chunk: 0,
        ..config.clone()
    };
    let plain = RecoveryPolicy::regrow_only(config.capacity_factor);
    let zero_stride = RecoveryPolicy {
        checkpoint_levels: 0,
        ..RecoveryPolicy::default()
    };
    let kill = FaultPlan::new().kill_wave(1, 0);
    let none = FaultPlan::EMPTY;
    let pair = [(&graph, &bfs), (&graph, &bfs)];
    let solo = [(&graph, &bfs)];
    let astray = [(&graph, &stray)];

    type Launches<'a> = &'a [(&'a Csr, &'a Bfs)];
    let table: [(Launches, &PtConfig, &RecoveryPolicy, &FaultPlan, &str); 7] = [
        (&[], &config, &plain, &none, "empty launch group"),
        (&pair, &config, &plain, &kill, "fault plan"),
        (&pair, &collab, &plain, &none, "CPU collaboration"),
        (&solo, &config, &zero_stride, &none, "checkpoint stride"),
        (&astray, &config, &plain, &none, "seed 100"),
        (&solo, &zero_chunk, &plain, &none, "chunk"),
        // Not asked for by name, same boundary: one fence per traversal.
        (
            &pair,
            &config,
            &RecoveryPolicy::default(),
            &none,
            "checkpoint/resume",
        ),
    ];
    for (launches, config, policy, plan, cause) in table {
        let spec = RunSpec {
            plan,
            ..RunSpec::new(launches, config, policy)
        };
        let failure = execute(&GpuConfig::test_tiny(), spec).expect_err(cause);
        match &failure.error {
            SimError::InvalidLaunch(why) => assert!(why.contains(cause), "{why:?} vs {cause:?}"),
            other => panic!("{cause}: expected InvalidLaunch, got {other:?}"),
        }
        assert!(failure.checkpoint.is_none() && failure.log.attempts.is_empty());
        assert_eq!(&failure.remaining_plan, plan, "{cause}: plan handed back");
    }
    // The constructors surface the same error instead of panicking.
    let err = run_workload(&GpuConfig::test_tiny(), &graph, &stray, &config).unwrap_err();
    assert!(matches!(err, SimError::InvalidLaunch(_)), "{err}");
}
