//! Structured per-query outcomes and their aggregation.
//!
//! Every query in a trace ends in exactly one [`Disposition`]; the
//! [`OutcomeLog`] is the service's byte-stable artifact (everything in
//! it is simulated — ids, cycles, counts — so it is identical at any
//! `--jobs`), and [`ServeSummary`] condenses it into one row of
//! `serve_summary`.

use pt_bfs::RecoveryLog;
use simt::GpuConfig;

use super::trace::{Priority, NUM_TENANTS};
use crate::report::Table;

/// Terminal state of one query.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Disposition {
    /// Ran to completion (possibly after retries) and validated against
    /// the workload's sequential oracle.
    Completed,
    /// Dropped by deadline-based load shedding — at admission when the
    /// projected backlog completion already overran the deadline, or at
    /// first dispatch when the wait alone had.
    Shed,
    /// Exhausted its retry budget; isolated with its full recovery log
    /// while the service kept draining the trace.
    Quarantined,
    /// Refused at admission: the ready backlog was at its bound.
    RejectedQueueFull,
    /// Refused at admission: the (workload, dataset) signature was
    /// already quarantined.
    RejectedQuarantined,
    /// Refused at admission: the query describes no runnable launch.
    RejectedInvalid,
}

impl Disposition {
    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            Disposition::Completed => "completed",
            Disposition::Shed => "shed",
            Disposition::Quarantined => "quarantined",
            Disposition::RejectedQueueFull => "rejected-queue-full",
            Disposition::RejectedQuarantined => "rejected-quarantined",
            Disposition::RejectedInvalid => "rejected-invalid",
        }
    }
}

/// One query's full service record.
#[derive(Clone, Debug, PartialEq)]
pub struct QueryOutcome {
    /// Trace id.
    pub id: u32,
    /// Workload label.
    pub workload: &'static str,
    /// Dataset name.
    pub dataset: &'static str,
    /// Priority class.
    pub priority: Priority,
    /// Submitting tenant.
    pub tenant: u32,
    /// Terminal state.
    pub disposition: Disposition,
    /// Attempts dispatched to the device (0 for admission rejections).
    pub attempts: u32,
    /// Queries co-resident in the launch that completed this query
    /// (1 for a solo dispatch, >1 when the batched scheduler fused it
    /// with compatible peers; 0 when it never reached the device).
    pub batch_peers: u32,
    /// In-run recovery aborts survived across all attempts (checkpoint
    /// replays inside `pt_bfs::execute`, below the service's own
    /// retries).
    pub in_run_aborts: u64,
    /// Admission → terminal-state latency in simulated cycles (0 for
    /// admission-time rejections).
    pub latency_cycles: u64,
    /// Vertices the successful run reached (0 unless completed).
    pub reached: usize,
    /// The final recovery log, kept as quarantine evidence (present only
    /// for quarantined queries).
    pub recovery: Option<RecoveryLog>,
}

/// The service's complete, deterministic account of one trace.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct OutcomeLog {
    /// One record per query, in id order.
    pub outcomes: Vec<QueryOutcome>,
    /// Cycle at which the last terminal state was reached.
    pub makespan_cycles: u64,
    /// Segmented-enqueue failures on the admission path (0 in any
    /// correct run — the segmented family cannot reject real tokens).
    pub admission_errors: u64,
    /// `QueueFull` aborts observed inside query execution (0 when the
    /// service runs on the segmented device variant).
    pub execution_queue_full: u64,
    /// Fresh segment allocations across the admission backlog rings.
    pub admission_segments: u64,
}

impl OutcomeLog {
    /// Queries with the given disposition.
    pub fn count(&self, disposition: Disposition) -> u64 {
        self.outcomes
            .iter()
            .filter(|o| o.disposition == disposition)
            .count() as u64
    }

    /// Completed queries that needed at least one service-level retry.
    pub fn retried(&self) -> u64 {
        self.outcomes
            .iter()
            .filter(|o| o.disposition == Disposition::Completed && o.attempts > 1)
            .count() as u64
    }

    /// Aggregate the log into benchmark-ready rates and percentiles.
    pub fn summary(&self) -> ServeSummary {
        let queries = self.outcomes.len() as u64;
        let completed = self.count(Disposition::Completed);
        let shed = self.count(Disposition::Shed);
        let quarantined = self.count(Disposition::Quarantined);
        let rejected_queue_full = self.count(Disposition::RejectedQueueFull);
        let rejected_quarantined = self.count(Disposition::RejectedQuarantined);
        let mut latencies: Vec<u64> = self
            .outcomes
            .iter()
            .filter(|o| o.disposition == Disposition::Completed)
            .map(|o| o.latency_cycles)
            .collect();
        latencies.sort_unstable();
        let rate = |n: u64| {
            if queries == 0 {
                0.0
            } else {
                n as f64 / queries as f64
            }
        };
        ServeSummary {
            queries,
            completed,
            retried: self.retried(),
            shed,
            quarantined,
            rejected_queue_full,
            rejected_quarantined,
            batched: self.batched(),
            p50_latency_cycles: percentile(&latencies, 0.50),
            p99_latency_cycles: percentile(&latencies, 0.99),
            makespan_cycles: self.makespan_cycles,
            shed_rate: rate(shed),
            quarantine_rate: rate(quarantined),
        }
    }

    /// Completed queries that were co-scheduled with at least one peer.
    pub fn batched(&self) -> u64 {
        self.outcomes
            .iter()
            .filter(|o| o.disposition == Disposition::Completed && o.batch_peers > 1)
            .count() as u64
    }

    /// Per-priority-class fairness over tenants: for each class with at
    /// least one offered query, the per-tenant completion rates
    /// (completed / offered) and their Jain index. An index of 1.0 is
    /// perfectly even service across the class's active tenants; `1/n`
    /// is one tenant taking everything.
    pub fn fairness(&self) -> Vec<ClassFairness> {
        Priority::ALL
            .iter()
            .filter_map(|&class| {
                let mut offered = [0u64; NUM_TENANTS as usize];
                let mut completed = [0u64; NUM_TENANTS as usize];
                for o in self.outcomes.iter().filter(|o| o.priority == class) {
                    let t = (o.tenant % NUM_TENANTS) as usize;
                    offered[t] += 1;
                    if o.disposition == Disposition::Completed {
                        completed[t] += 1;
                    }
                }
                if offered.iter().all(|&n| n == 0) {
                    return None;
                }
                let rates: Vec<f64> = offered
                    .iter()
                    .zip(&completed)
                    .filter(|(&off, _)| off > 0)
                    .map(|(&off, &done)| done as f64 / off as f64)
                    .collect();
                Some(ClassFairness {
                    class,
                    offered: offered.iter().sum(),
                    completed: completed.iter().sum(),
                    completed_per_tenant: completed,
                    jain_index: jain(&rates),
                })
            })
            .collect()
    }

    /// The per-class fairness table (all simulated quantities).
    pub fn fairness_table(&self, title: &str) -> Table {
        let mut table = Table::new(
            title,
            &[
                "class",
                "offered",
                "completed",
                "t0",
                "t1",
                "t2",
                "t3",
                "jain_index",
            ],
        );
        for f in self.fairness() {
            let mut row = vec![
                f.class.label().to_string(),
                f.offered.to_string(),
                f.completed.to_string(),
            ];
            row.extend(f.completed_per_tenant.iter().map(u64::to_string));
            row.push(format!("{:.4}", f.jain_index));
            table.row(row);
        }
        table
    }

    /// Golden per-query table: one row per query, every cell simulated
    /// and therefore byte-identical across schedulers.
    pub fn table(&self, title: &str) -> Table {
        let mut table = Table::new(
            title,
            &[
                "id",
                "workload",
                "dataset",
                "priority",
                "tenant",
                "disposition",
                "attempts",
                "batch_peers",
                "in_run_aborts",
                "latency_cycles",
                "reached",
            ],
        );
        for o in &self.outcomes {
            table.row(vec![
                o.id.to_string(),
                o.workload.to_string(),
                o.dataset.to_string(),
                o.priority.label().to_string(),
                o.tenant.to_string(),
                o.disposition.label().to_string(),
                o.attempts.to_string(),
                o.batch_peers.to_string(),
                o.in_run_aborts.to_string(),
                o.latency_cycles.to_string(),
                o.reached.to_string(),
            ]);
        }
        table
    }
}

/// Nearest-rank percentile over a sorted slice. `None` for an empty
/// slice — a leg where nothing completed has *no* latency percentile,
/// and fabricating a 0 would read as "instant" in the summary table.
fn percentile(sorted: &[u64], p: f64) -> Option<u64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Jain's fairness index over non-negative allocations:
/// `(Σx)² / (n·Σx²)`, 1.0 when all equal, `1/n` when one value takes
/// everything. Defined as 1.0 for an empty or all-zero slice (nothing
/// was allocated, so nothing was allocated unevenly).
fn jain(xs: &[f64]) -> f64 {
    let sum: f64 = xs.iter().sum();
    let sum_sq: f64 = xs.iter().map(|x| x * x).sum();
    if xs.is_empty() || sum_sq == 0.0 {
        return 1.0;
    }
    (sum * sum) / (xs.len() as f64 * sum_sq)
}

/// One priority class's tenant-fairness account.
#[derive(Clone, Debug, PartialEq)]
pub struct ClassFairness {
    /// The priority class.
    pub class: Priority,
    /// Queries the trace offered in this class.
    pub offered: u64,
    /// Queries completed in this class.
    pub completed: u64,
    /// Completed count per tenant.
    pub completed_per_tenant: [u64; NUM_TENANTS as usize],
    /// Jain index of the per-tenant completion rates (tenants with no
    /// offered queries in the class excluded).
    pub jain_index: f64,
}

/// One trace leg's row of `serve_summary`. Every field is derived from
/// simulated quantities, so the table is byte-identical across `--jobs`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ServeSummary {
    /// Queries offered by the trace.
    pub queries: u64,
    /// Completed (validated) queries.
    pub completed: u64,
    /// Completed queries that needed at least one retry.
    pub retried: u64,
    /// Deadline-shed queries.
    pub shed: u64,
    /// Quarantined queries.
    pub quarantined: u64,
    /// Admission rejections: backlog at bound.
    pub rejected_queue_full: u64,
    /// Admission rejections: quarantined signature.
    pub rejected_quarantined: u64,
    /// Completed queries co-scheduled with at least one peer.
    pub batched: u64,
    /// Median admission→completion latency, simulated cycles. `None`
    /// when the leg completed nothing (absent, not a fake 0).
    pub p50_latency_cycles: Option<u64>,
    /// 99th-percentile latency, simulated cycles (`None` as above).
    pub p99_latency_cycles: Option<u64>,
    /// Cycle of the last terminal state.
    pub makespan_cycles: u64,
    /// Shed fraction of offered queries.
    pub shed_rate: f64,
    /// Quarantined fraction of offered queries.
    pub quarantine_rate: f64,
}

impl ServeSummary {
    /// Completed queries per simulated second at `gpu`'s clock.
    pub fn throughput_qps(&self, gpu: &GpuConfig) -> f64 {
        let seconds = gpu.cycles_to_seconds(self.makespan_cycles);
        if seconds <= 0.0 {
            0.0
        } else {
            self.completed as f64 / seconds
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(id: u32, disposition: Disposition, attempts: u32, latency: u64) -> QueryOutcome {
        QueryOutcome {
            id,
            workload: "bfs",
            dataset: "RoadNY",
            priority: Priority::Standard,
            tenant: id % NUM_TENANTS,
            disposition,
            attempts,
            batch_peers: u32::from(attempts > 0),
            in_run_aborts: 0,
            latency_cycles: latency,
            reached: 0,
            recovery: None,
        }
    }

    #[test]
    fn percentiles_are_nearest_rank() {
        let sorted: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&sorted, 0.50), Some(50));
        assert_eq!(percentile(&sorted, 0.99), Some(99));
        assert_eq!(percentile(&sorted, 1.0), Some(100));
        assert_eq!(percentile(&[42], 0.50), Some(42));
    }

    #[test]
    fn empty_leg_has_absent_percentiles_not_fake_zeros() {
        assert_eq!(percentile(&[], 0.50), None);
        assert_eq!(percentile(&[], 0.99), None);
        // A log where nothing completed propagates the absence.
        let log = OutcomeLog {
            outcomes: vec![outcome(0, Disposition::Shed, 0, 0)],
            makespan_cycles: 10,
            ..OutcomeLog::default()
        };
        let s = log.summary();
        assert_eq!(s.p50_latency_cycles, None);
        assert_eq!(s.p99_latency_cycles, None);
        // And the fully empty log too.
        let s = OutcomeLog::default().summary();
        assert_eq!(s.p50_latency_cycles, None);
        assert_eq!(s.p99_latency_cycles, None);
    }

    #[test]
    fn jain_index_bounds() {
        assert_eq!(jain(&[]), 1.0);
        assert_eq!(jain(&[0.0, 0.0]), 1.0);
        assert!((jain(&[1.0, 1.0, 1.0, 1.0]) - 1.0).abs() < 1e-12);
        // One tenant taking everything over n=4 → 1/4.
        assert!((jain(&[1.0, 0.0, 0.0, 0.0]) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn fairness_groups_by_class_and_rates_by_tenant() {
        // Standard class: tenants 0 and 1 each offered one query;
        // tenant 0 completed, tenant 1 was shed → Jain over rates
        // [1.0, 0.0] = 0.5. Tenants 2, 3 offered nothing and are
        // excluded from the index.
        let log = OutcomeLog {
            outcomes: vec![
                outcome(0, Disposition::Completed, 1, 100),
                outcome(1, Disposition::Shed, 0, 0),
            ],
            makespan_cycles: 100,
            ..OutcomeLog::default()
        };
        let fairness = log.fairness();
        assert_eq!(fairness.len(), 1);
        let f = &fairness[0];
        assert_eq!(f.class, Priority::Standard);
        assert_eq!(f.offered, 2);
        assert_eq!(f.completed, 1);
        assert_eq!(f.completed_per_tenant, [1, 0, 0, 0]);
        assert!((f.jain_index - 0.5).abs() < 1e-12);
    }

    #[test]
    fn summary_counts_and_rates() {
        let log = OutcomeLog {
            outcomes: vec![
                outcome(0, Disposition::Completed, 1, 100),
                outcome(1, Disposition::Completed, 3, 300),
                outcome(2, Disposition::Shed, 0, 0),
                outcome(3, Disposition::Quarantined, 4, 900),
                outcome(4, Disposition::RejectedQueueFull, 0, 0),
            ],
            makespan_cycles: 1_000,
            ..OutcomeLog::default()
        };
        let s = log.summary();
        assert_eq!(s.queries, 5);
        assert_eq!(s.completed, 2);
        assert_eq!(s.retried, 1);
        assert_eq!(s.shed, 1);
        assert_eq!(s.quarantined, 1);
        assert_eq!(s.rejected_queue_full, 1);
        assert_eq!(s.p50_latency_cycles, Some(100));
        assert_eq!(s.p99_latency_cycles, Some(300));
        assert!((s.shed_rate - 0.2).abs() < 1e-12);
        assert!((s.quarantine_rate - 0.2).abs() < 1e-12);
        let qps = s.throughput_qps(&GpuConfig::test_tiny());
        assert!((qps - 2.0 / GpuConfig::test_tiny().cycles_to_seconds(1_000)).abs() < 1e-9);
    }
}
