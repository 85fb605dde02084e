//! `repro serve` — the overload-safe serving core under four offered
//! loads.
//!
//! Four seeded arrival traces exercise the service's full outcome
//! taxonomy on the six-dataset pool:
//!
//! * **steady** — generous deadlines, wide arrival gaps: every query
//!   completes first try (the no-drama baseline).
//! * **overload** — a burst of near-simultaneous arrivals against a
//!   tiny backlog bound and tight deadlines: typed `QueueFull`
//!   backpressure plus deadline-based shedding, while every admitted
//!   query still reaches a terminal state.
//! * **overload-batched** — the *same* overload trace under the
//!   batched, weighted-fair, co-resident core
//!   ([`ServiceConfig::batched`]): windows drain whole DRR rounds,
//!   compatible queries fuse into multi-source launches, and same-kind
//!   launches overlap on the device. `measure` enforces that this leg
//!   completes strictly more queries per simulated second than the
//!   serial overload leg and fuses at least one batch.
//! * **faulted** — seeded fault plans on every third query (retry via
//!   checkpoint resume with backoff) plus one watchdog-poisoned query
//!   that exhausts its retry budget, is quarantined with its recovery
//!   log, and gets its resubmission rejected at admission.
//!
//! `measure` is also a conformance harness: it panics if a leg fails
//! its invariants (zero admission enqueue errors, zero execution-side
//! `QueueFull` aborts on the segmented variant, the expected outcome
//! mix per leg — one declarative `LegChecks` table shared by every
//! leg), so `repro serve` doubles as the robustness gate CI runs
//! serial vs parallel and byte-diffs.

use ptq_graph::Dataset;

use crate::report::Table;
use crate::serve::{
    ArrivalTrace, Disposition, OutcomeLog, Service, ServiceConfig, TraceParams, WorkloadKind,
};
use crate::{Scale, Sched};

/// Trace seed for every serve leg.
pub const SEED: u64 = 0x5E4E;

/// The six-dataset pool with per-dataset scale fractions (same spirit
/// as the chaos matrix: comparable simulated sizes across datasets).
const SERVE_POOL: &[(Dataset, f64)] = &[
    (Dataset::Synthetic, 0.004),
    (Dataset::GplusCombined, 0.1),
    (Dataset::SocLiveJournal1, 0.006),
    (Dataset::RoadNY, 0.1),
    (Dataset::RoadLKS, 0.01),
    (Dataset::RoadUSA, 0.002),
];

/// One serve leg: a named trace plus the service configuration it runs
/// under.
pub struct Leg {
    /// Leg name ("steady", "overload", "faulted").
    pub name: &'static str,
    /// The offered load.
    pub trace: ArrivalTrace,
    /// The service policy under test.
    pub config: ServiceConfig,
}

/// The burst trace both overload legs replay: everything lands before
/// the first query finishes, so the backlog fills to its bound (typed
/// `QueueFull` rejections for the spill), the short end of the
/// deadline draw sheds part of what fits, and the dispatcher sees a
/// full-depth ready window when the device frees.
fn overload_trace() -> ArrivalTrace {
    ArrivalTrace::seeded(
        SEED ^ 0x10AD,
        &TraceParams {
            queries: 16,
            mean_gap_cycles: 2_000,
            deadline_range: (100_000, 8_000_000),
            datasets: SERVE_POOL,
            fault_every: 0,
            faults_per_query: 0,
        },
    )
}

/// The four standard legs at `scale`.
pub fn legs(scale: Scale) -> Vec<Leg> {
    let steady = Leg {
        name: "steady",
        trace: ArrivalTrace::seeded(
            SEED,
            &TraceParams {
                queries: 10,
                mean_gap_cycles: 3_000_000,
                deadline_range: (400_000_000, 800_000_000),
                datasets: SERVE_POOL,
                fault_every: 0,
                faults_per_query: 0,
            },
        ),
        config: ServiceConfig::standard(scale),
    };

    let mut overload_config = ServiceConfig::standard(scale);
    overload_config.backlog_limit = 5;
    let overload = Leg {
        name: "overload",
        trace: overload_trace(),
        config: overload_config,
    };

    // The same burst, served by the batched co-resident core: the only
    // config delta against "overload" is the batching policy, so the
    // QPS gap between the two legs isolates what fusing buys. The
    // 5-deep window over 4 workload kinds guarantees (pigeonhole) a
    // same-kind pair in the burst's full window, so the leg always has
    // at least one fused launch regardless of the trace seed's draws.
    let mut batched_config = ServiceConfig::batched(scale);
    batched_config.backlog_limit = 5;
    batched_config.batching = Some(crate::serve::BatchPolicy { max_coresident: 5 });
    let overload_batched = Leg {
        name: "overload-batched",
        trace: overload_trace(),
        config: batched_config,
    };

    let mut faulted_trace = ArrivalTrace::seeded(
        SEED ^ 0xFA17,
        &TraceParams {
            queries: 9,
            mean_gap_cycles: 3_000_000,
            deadline_range: (400_000_000, 800_000_000),
            datasets: SERVE_POOL,
            fault_every: 3,
            faults_per_query: 1,
        },
    );
    let poison = faulted_trace.push_poison(WorkloadKind::Bfs, Dataset::RoadNY, 0.1, 2, 1_000_000);
    // Arrives long after the poison query's backoff ladder has run dry,
    // so it meets the quarantine instead of re-running the poison.
    faulted_trace.push_resubmission(poison, 80_000_000);
    let faulted = Leg {
        name: "faulted",
        trace: faulted_trace,
        config: ServiceConfig::standard(scale),
    };

    vec![steady, overload, overload_batched, faulted]
}

/// Runs every leg and enforces its invariants. The returned logs are
/// byte-identical at any `sched` width.
pub fn measure(scale: Scale, sched: &Sched) -> Vec<(Leg, OutcomeLog)> {
    let results: Vec<(Leg, OutcomeLog)> = legs(scale)
        .into_iter()
        .map(|leg| {
            eprintln!(
                "  serving {} trace ({} queries) ...",
                leg.name,
                leg.trace.queries.len()
            );
            let service = Service::new(leg.config.clone());
            let profiles = service.profiles(&leg.trace, sched);
            let log = service.replay(&leg.trace, &profiles);
            enforce(leg.name, &log);
            (leg, log)
        })
        .collect();

    // Cross-leg gate: on the identical burst trace, the batched
    // co-resident core must beat the serial core on completed queries
    // per simulated second, and must actually have fused something —
    // otherwise the win (or the tie) is a regression to diagnose, not a
    // data point.
    let leg_qps = |name: &str| -> f64 {
        let (leg, log) = results
            .iter()
            .find(|(leg, _)| leg.name == name)
            .unwrap_or_else(|| panic!("missing serve leg {name}"));
        log.summary().throughput_qps(&leg.config.gpu)
    };
    let batched_log = &results
        .iter()
        .find(|(leg, _)| leg.name == "overload-batched")
        .expect("missing serve leg overload-batched")
        .1;
    assert!(
        batched_log.batched() >= 1,
        "overload-batched: the burst never produced a fused launch"
    );
    assert!(
        leg_qps("overload-batched") > leg_qps("overload"),
        "overload-batched ({:.1} QPS) must strictly beat serial overload ({:.1} QPS)",
        leg_qps("overload-batched"),
        leg_qps("overload"),
    );
    results
}

/// One leg's declarative invariants — allowed terminal states,
/// disposition floors, disposition pins and retry expectations — checked
/// by one shared checker for every leg.
struct LegChecks {
    /// Dispositions a query may legally end in.
    allowed: &'static [Disposition],
    /// `(disposition, n)` floors: at least `n` queries end this way.
    at_least: &'static [(Disposition, u64)],
    /// `(disposition, n)` pins: exactly `n` queries end this way.
    exact: &'static [(Disposition, u64)],
    /// Minimum completed-through-retry count.
    min_retried: u64,
    /// When set, every completed query used exactly this many attempts
    /// (the steady "first try" claim).
    completed_attempts: Option<u32>,
}

/// The invariant table, one row per leg.
fn checks_for(leg: &str) -> LegChecks {
    use Disposition::*;
    match leg {
        "steady" => LegChecks {
            allowed: &[Completed],
            at_least: &[],
            exact: &[],
            min_retried: 0,
            completed_attempts: Some(1),
        },
        // Every admitted query reaches a terminal state without a
        // crash: completed, or shed at first dispatch. Both overload
        // legs promise the same taxonomy; the batched one additionally
        // faces the cross-leg QPS gate in `measure`.
        "overload" | "overload-batched" => LegChecks {
            allowed: &[Completed, Shed, RejectedQueueFull],
            at_least: &[(Completed, 1), (Shed, 1), (RejectedQueueFull, 1)],
            exact: &[(Quarantined, 0)],
            min_retried: 0,
            completed_attempts: None,
        },
        // Quarantine isolates the poison family only: with exactly one
        // quarantine and one rejected resubmission, the allowed-state
        // set forces every other query to complete.
        "faulted" => LegChecks {
            allowed: &[Completed, Quarantined, RejectedQuarantined],
            at_least: &[],
            exact: &[(Quarantined, 1), (RejectedQuarantined, 1)],
            min_retried: 1,
            completed_attempts: None,
        },
        other => panic!("unknown serve leg {other}"),
    }
}

/// Leg invariants. Violations are bugs, not data points — panic like
/// the workload oracle checks do.
fn enforce(leg: &str, log: &OutcomeLog) {
    assert_eq!(
        log.admission_errors, 0,
        "{leg}: the segmented admission path must never refuse a token"
    );
    assert_eq!(
        log.execution_queue_full, 0,
        "{leg}: the segmented execution variant must never abort queue-full"
    );
    let checks = checks_for(leg);
    for o in &log.outcomes {
        assert!(
            checks.allowed.contains(&o.disposition),
            "{leg}: query {} ended {:?}, not one of {:?}",
            o.id,
            o.disposition,
            checks.allowed
        );
        if let Some(attempts) = checks.completed_attempts {
            if o.disposition == Disposition::Completed {
                assert_eq!(
                    o.attempts, attempts,
                    "{leg}: query {} took {} attempts",
                    o.id, o.attempts
                );
            }
        }
    }
    for &(disposition, n) in checks.at_least {
        assert!(
            log.count(disposition) >= n,
            "{leg}: fewer than {n} queries ended {disposition:?}"
        );
    }
    for &(disposition, n) in checks.exact {
        assert_eq!(
            log.count(disposition),
            n,
            "{leg}: expected exactly {n} queries ending {disposition:?}"
        );
    }
    assert!(
        log.retried() >= checks.min_retried,
        "{leg}: no query completed through a checkpoint-resumed retry"
    );
    // Quarantine always keeps the recovery log as evidence, whatever
    // the leg.
    for o in &log.outcomes {
        if o.disposition == Disposition::Quarantined {
            assert!(
                o.recovery.is_some(),
                "{leg}: quarantined query {} lost its recovery log",
                o.id
            );
        }
    }
}

/// The cross-leg summary table (stem `serve_summary`).
pub fn summary_table(results: &[(Leg, OutcomeLog)]) -> Table {
    let mut t = Table::new(
        "Serve: admission, shedding, retry, quarantine, and batching (SegRF/AN, Spectre)",
        &[
            "Leg",
            "Queries",
            "Completed",
            "Retried",
            "Batched",
            "Shed",
            "Quarantined",
            "RejFull",
            "RejQuar",
            "p50 cycles",
            "p99 cycles",
            "QPS",
            "Segments",
        ],
    );
    // An absent percentile (nothing completed) renders as "-", never as
    // a fake 0.
    let cycles = |v: Option<u64>| v.map_or_else(|| "-".to_owned(), |v| v.to_string());
    for (leg, log) in results {
        let s = log.summary();
        t.row(vec![
            leg.name.to_owned(),
            s.queries.to_string(),
            s.completed.to_string(),
            s.retried.to_string(),
            s.batched.to_string(),
            s.shed.to_string(),
            s.quarantined.to_string(),
            s.rejected_queue_full.to_string(),
            s.rejected_quarantined.to_string(),
            cycles(s.p50_latency_cycles),
            cycles(s.p99_latency_cycles),
            format!("{:.1}", s.throughput_qps(&leg.config.gpu)),
            log.admission_segments.to_string(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serve_legs_are_job_invariant() {
        let scale = Scale::new(0.02);
        let serial: Vec<OutcomeLog> = measure(scale, &Sched::serial())
            .into_iter()
            .map(|(_, log)| log)
            .collect();
        let parallel: Vec<OutcomeLog> = measure(scale, &Sched::new(4))
            .into_iter()
            .map(|(_, log)| log)
            .collect();
        assert_eq!(serial, parallel);
    }
}
