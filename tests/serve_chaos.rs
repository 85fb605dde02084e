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
    ArrivalTrace, Disposition, Service, ServiceConfig, TraceParams, WorkloadKind,
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
