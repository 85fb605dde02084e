//! Serving-core chaos suite: a seeded arrival trace crossed with the
//! six-dataset fault matrix.
//!
//! The service's promise is *graceful degradation under determinism*:
//! whatever a seeded fault plan does to individual queries, the outcome
//! log is golden-identical at any `--jobs` width, quarantined queries
//! never poison later ones, and the segmented admission path never
//! surfaces a `QueueFull` abort. These tests pin all three against a
//! trace that touches every main-six dataset with per-query fault plans.

use ptq_graph::Dataset;
use repro_bench::serve::{
    ArrivalTrace, Disposition, QuerySpec, Service, ServiceConfig, TraceParams, WorkloadKind,
};
use repro_bench::{Scale, Sched};

const SEED: u64 = 0x5E4E_C4A0;

/// Six-dataset pool with per-dataset scale fractions (chaos-matrix
/// proportions: comparable simulated sizes across datasets).
const POOL: &[(Dataset, f64)] = &[
    (Dataset::Synthetic, 0.004),
    (Dataset::GplusCombined, 0.1),
    (Dataset::SocLiveJournal1, 0.006),
    (Dataset::RoadNY, 0.1),
    (Dataset::RoadLKS, 0.01),
    (Dataset::RoadUSA, 0.002),
];

/// A faulted trace over the full dataset pool: every second query
/// carries a seeded fault plan, one watchdog-poisoned query burns its
/// retry budget into quarantine, and a resubmission of its signature
/// arrives after the ladder has run dry.
fn chaos_trace() -> (ArrivalTrace, u32, u32) {
    let mut trace = ArrivalTrace::seeded(
        SEED,
        &TraceParams {
            queries: 12,
            mean_gap_cycles: 3_000_000,
            deadline_range: (400_000_000, 800_000_000),
            datasets: POOL,
            fault_every: 2,
            faults_per_query: 1,
        },
    );
    let poison = trace.push_poison(WorkloadKind::Cc, Dataset::RoadLKS, 0.01, 2, 1_000_000);
    let resub = trace.push_resubmission(poison, 80_000_000);
    (trace, poison, resub)
}

fn config() -> ServiceConfig {
    ServiceConfig::standard(Scale::new(0.02))
}

#[test]
fn outcome_log_is_golden_identical_across_jobs() {
    let (trace, _, _) = chaos_trace();
    let reference = Service::new(config()).run(&trace, &Sched::serial());
    for jobs in [2, 4] {
        let log = Service::new(config()).run(&trace, &Sched::new(jobs));
        assert_eq!(reference, log, "jobs={jobs} diverged from serial");
    }
}

#[test]
fn quarantine_isolates_the_poison_family_and_nothing_else() {
    let (trace, poison, resub) = chaos_trace();
    let log = Service::new(config()).run(&trace, &Sched::new(0));

    let p = &log.outcomes[poison as usize];
    assert_eq!(p.disposition, Disposition::Quarantined);
    let evidence = p
        .recovery
        .as_ref()
        .expect("quarantine must keep the recovery log");
    assert!(evidence.aborts() > 0);

    let r = &log.outcomes[resub as usize];
    assert_eq!(
        r.disposition,
        Disposition::RejectedQuarantined,
        "resubmitting a quarantined signature must fail fast at admission"
    );
    assert_eq!(r.attempts, 0, "a rejected resubmission never runs");

    // Graceful degradation: every other query — including the faulted
    // ones that needed checkpoint-resumed retries — completes.
    for o in &log.outcomes {
        if o.id != poison && o.id != resub {
            assert_eq!(
                o.disposition,
                Disposition::Completed,
                "query {} ({} on {}) should have completed",
                o.id,
                o.workload,
                o.dataset
            );
        }
    }
    // And the fault matrix actually bit: at least one completion needed
    // a service-level retry.
    assert!(
        log.outcomes
            .iter()
            .any(|o| o.disposition == Disposition::Completed && o.attempts > 1),
        "no query exercised the retry/backoff path"
    );
}

#[test]
fn segmented_admission_path_never_aborts_queue_full() {
    // Also squeeze the backlog so admission backpressure fires: the
    // bound must surface as typed rejections, never as queue aborts.
    let (mut trace, _, _) = chaos_trace();
    for q in &mut trace.queries {
        // Compress arrivals into a burst to force a deep backlog.
        q.arrival_cycle /= 100;
    }
    let mut cfg = config();
    cfg.backlog_limit = 4;
    let log = Service::new(cfg).run(&trace, &Sched::new(0));
    assert_eq!(
        log.admission_errors, 0,
        "the segmented host queues must accept every admitted token"
    );
    assert_eq!(
        log.execution_queue_full, 0,
        "the segmented execution variant must never abort queue-full"
    );
    assert!(
        log.count(Disposition::RejectedQueueFull) > 0,
        "the squeezed backlog should have produced typed backpressure"
    );
    // Backpressure is policy, not data loss: everything admitted still
    // reaches a terminal state.
    for o in &log.outcomes {
        assert!(
            o.attempts > 0
                || matches!(
                    o.disposition,
                    Disposition::Shed
                        | Disposition::RejectedQueueFull
                        | Disposition::RejectedQuarantined
                ),
            "query {} neither ran nor was rejected",
            o.id
        );
    }
}

/// Seeded adversarial traces: each row pushes one property of a tiny
/// trace to its edge. `Service::run` must return with one terminal
/// outcome per query, identically at any `--jobs` width, on both the
/// serial and the batched core. A query whose scale or fault count
/// describes no runnable launch is refused at admission as invalid.
#[test]
fn adversarial_traces_end_every_query_without_panicking() {
    const TINY: &[(Dataset, f64)] = &[(Dataset::RoadNY, 0.05), (Dataset::Synthetic, 0.002)];
    let seeded = |queries| {
        ArrivalTrace::seeded(
            SEED ^ 0xAD5,
            &TraceParams {
                queries,
                mean_gap_cycles: 200_000,
                deadline_range: (400_000_000, 800_000_000),
                datasets: TINY,
                fault_every: 0,
                faults_per_query: 0,
            },
        )
    };
    let bent = |edit: fn(&mut QuerySpec)| {
        let mut trace = seeded(4);
        trace.queries.iter_mut().for_each(edit);
        trace
    };
    let rows = [
        ("empty trace", seeded(0)),
        ("zero-gap burst", bent(|q| q.arrival_cycle = 0)),
        ("u64::MAX deadlines", bent(|q| q.deadline_cycles = u64::MAX)),
        (
            "arrival near u64::MAX",
            bent(|q| q.arrival_cycle = u64::MAX - 8 + u64::from(q.id)),
        ),
        ("all-poison", bent(|q| q.watchdog_rounds = 2)),
        ("one tenant", bent(|q| q.tenant = 0)),
        (
            "duplicate signatures",
            bent(|q| (q.kind, q.dataset, q.rel_scale) = (WorkloadKind::Bfs, Dataset::RoadNY, 0.05)),
        ),
        ("duplicate ids", bent(|q| q.id = 7)),
        ("subnormal rel_scale", bent(|q| q.rel_scale = 5e-324)),
        ("invalid: zero rel_scale", bent(|q| q.rel_scale = 0.0)),
        ("invalid: negative rel_scale", bent(|q| q.rel_scale = -1.0)),
        ("invalid: NaN rel_scale", bent(|q| q.rel_scale = f64::NAN)),
        (
            "invalid: infinite rel_scale",
            bent(|q| q.rel_scale = f64::INFINITY),
        ),
        ("invalid: u32::MAX faults", bent(|q| q.faults = u32::MAX)),
    ];
    let scale = Scale::new(0.02);
    for (row, trace) in &rows {
        for config in [
            ServiceConfig::standard(scale),
            ServiceConfig::batched(scale),
        ] {
            let core = if config.max_coresident > 1 {
                "batched"
            } else {
                "serial"
            };
            let service = Service::new(config);
            let log = service.run(trace, &Sched::serial());
            let mut ids: Vec<u32> = trace.queries.iter().map(|q| q.id).collect();
            ids.sort_unstable();
            let logged: Vec<u32> = log.outcomes.iter().map(|o| o.id).collect();
            assert_eq!(logged, ids, "{row} / {core}: one outcome per query");
            assert_eq!(log.admission_errors, 0, "{row} / {core}");
            if row.starts_with("invalid") {
                assert!(
                    log.outcomes
                        .iter()
                        .all(|o| o.disposition == Disposition::RejectedInvalid && o.attempts == 0),
                    "{row} / {core}: invalid queries are refused at admission"
                );
            }
            assert_eq!(log, service.run(trace, &Sched::new(4)), "{row} / {core}");
        }
    }
}
