//! Seeded arrival traces: the service's deterministic "client".
//!
//! A trace is the serving analogue of a fault plan — every query's
//! workload kind, dataset, source, priority class, arrival cycle,
//! deadline, and fault exposure is drawn up front from one
//! [`SplitMix64`] stream, so the same seed always produces the identical
//! offered load regardless of host or `--jobs` count. Experiments and
//! chaos tests then layer hand-placed queries (a poison query, a
//! resubmission of its signature) on top with the builder methods.

use pt_bfs::workload::{Bfs, ConnectedComponents, PrDelta, PtWorkload, Sssp};
use ptq_graph::{random_weights, Csr, Dataset, SplitMix64};

/// Which irregular workload a query runs — the harness's one workload
/// catalogue. The workload matrix, the serving core and its fused
/// launches all build a kind's workload through [`WorkloadKind::visit`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum WorkloadKind {
    /// Top-down breadth-first search.
    Bfs,
    /// Label-correcting single-source shortest paths.
    Sssp,
    /// Connected components (min-label propagation).
    Cc,
    /// PageRank-delta (residual push).
    PrDelta,
}

/// Something done with a kind's workload, whatever its type:
/// [`WorkloadKind::visit`] hands `visit` the kind's constructor, which
/// builds the workload for a graph and a source vertex.
pub trait KindVisitor {
    /// What the visit returns.
    type Output;
    /// Runs the visit with the kind's constructor.
    fn visit<W: PtWorkload>(self, make: impl Fn(&Csr, u32) -> W) -> Self::Output;
}

impl WorkloadKind {
    /// All kinds, in trace-draw order.
    pub const ALL: [WorkloadKind; 4] = [
        WorkloadKind::Bfs,
        WorkloadKind::Sssp,
        WorkloadKind::Cc,
        WorkloadKind::PrDelta,
    ];

    /// Display label (tables, outcome logs): the workload's
    /// [`PtWorkload::name`].
    pub fn label(self) -> &'static str {
        match self {
            WorkloadKind::Bfs => "bfs",
            WorkloadKind::Sssp => "sssp",
            WorkloadKind::Cc => "cc",
            WorkloadKind::PrDelta => "pr-delta",
        }
    }

    /// Hands `visitor` this kind's constructor. Every SSSP workload reads
    /// the same seeded weight stream, so batch and served runs agree on
    /// the graphs.
    pub fn visit<V: KindVisitor>(self, visitor: V) -> V::Output {
        match self {
            WorkloadKind::Bfs => visitor.visit(|_, source| Bfs::new(source)),
            WorkloadKind::Sssp => {
                visitor.visit(|graph, source| Sssp::new(source, random_weights(graph, 10, 0x57ED)))
            }
            WorkloadKind::Cc => visitor.visit(|_, _| ConnectedComponents),
            WorkloadKind::PrDelta => visitor.visit(|_, source| PrDelta::new(source)),
        }
    }
}

/// Admission priority class, highest first. Within a class the service
/// is FIFO (the segmented host queue's order); across classes a ready
/// interactive query always dispatches before a ready batch query.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Priority {
    /// Latency-sensitive foreground queries.
    Interactive,
    /// Default class.
    Standard,
    /// Throughput background work.
    Batch,
}

impl Priority {
    /// All classes, highest priority first.
    pub const ALL: [Priority; 3] = [Priority::Interactive, Priority::Standard, Priority::Batch];

    /// Deficit-round-robin weight: how many dispatch grants the class
    /// receives per scheduler round while backlogged. Interactive gets
    /// 4 of every 7 grants, standard 2, batch 1 — weighted fairness
    /// instead of the starvation a strict-priority drain allows.
    pub fn weight(self) -> u64 {
        match self {
            Priority::Interactive => 4,
            Priority::Standard => 2,
            Priority::Batch => 1,
        }
    }

    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            Priority::Interactive => "interactive",
            Priority::Standard => "standard",
            Priority::Batch => "batch",
        }
    }

    /// Dense index (0 = highest priority).
    pub fn index(self) -> usize {
        match self {
            Priority::Interactive => 0,
            Priority::Standard => 1,
            Priority::Batch => 2,
        }
    }
}

/// One query in an arrival trace. Everything the service needs to
/// admit, execute, and judge the query is recorded here — a trace plus
/// a seed fully determines a run.
#[derive(Clone, Debug, PartialEq)]
pub struct QuerySpec {
    /// Caller-chosen id, echoed in the outcome log. Seeded traces number
    /// their queries `0..`; the service does not require uniqueness.
    pub id: u32,
    /// Workload to run.
    pub kind: WorkloadKind,
    /// Dataset the query reads (shared immutable CSR).
    pub dataset: Dataset,
    /// Per-dataset scale fraction multiplied into the service scale —
    /// keeps the six datasets comparable in simulated size.
    pub rel_scale: f64,
    /// Source salt; the executor maps it to `salt % num_vertices`.
    pub source_salt: u32,
    /// Admission priority class.
    pub priority: Priority,
    /// Submitting tenant (`0..NUM_TENANTS`). Within a priority class
    /// the admission queue round-robins across tenant lanes, so one
    /// chatty tenant cannot starve the others of the class's dispatch
    /// share.
    pub tenant: u32,
    /// Simulated cycle at which the query arrives.
    pub arrival_cycle: u64,
    /// Deadline budget in simulated cycles from arrival. Admission sheds
    /// the query when the projected backlog completion exceeds it.
    pub deadline_cycles: u64,
    /// Faults of each kind (wave kills / CU stalls / memory poisons)
    /// seeded into this query's [`simt::FaultPlan`]; 0 = clean run.
    pub faults: u32,
    /// Per-query watchdog round budget (0 = service default). A tiny
    /// budget turns the query into a deterministic poison query: every
    /// attempt trips `AbortReason::Watchdog` until its retry budget is
    /// exhausted and the service quarantines it.
    pub watchdog_rounds: u64,
}

impl QuerySpec {
    /// Quarantine signature: queries with the same (kind, dataset) hit
    /// the same code paths on the same immutable CSR, so once one of
    /// them exhausts its retry budget the service refuses the family.
    pub fn signature(&self) -> (&'static str, &'static str) {
        (self.kind.label(), self.dataset.spec().name)
    }
}

/// Knobs for [`ArrivalTrace::seeded`].
#[derive(Clone, Debug)]
pub struct TraceParams {
    /// Number of queries to draw.
    pub queries: usize,
    /// Mean inter-arrival gap in simulated cycles; gaps are drawn
    /// uniformly from `[mean/2, 3*mean/2)`.
    pub mean_gap_cycles: u64,
    /// Deadline budgets are drawn uniformly from `[lo, hi)`.
    pub deadline_range: (u64, u64),
    /// Dataset pool with per-dataset relative scale fractions.
    pub datasets: &'static [(Dataset, f64)],
    /// Every `fault_every`-th query carries a seeded fault plan
    /// (0 disables fault exposure).
    pub fault_every: usize,
    /// Faults of each kind drawn for an exposed query.
    pub faults_per_query: u32,
}

/// Number of tenants a seeded trace draws from. Small on purpose: a
/// handful of tenants keeps every (class, tenant) lane populated at
/// realistic trace sizes, which is what the fairness accounting wants
/// to observe.
pub const NUM_TENANTS: u32 = 4;

/// A seeded multi-query arrival trace.
#[derive(Clone, Debug, PartialEq)]
pub struct ArrivalTrace {
    /// Seed the trace was drawn from; also keys per-query fault plans
    /// and backoff jitter streams.
    pub seed: u64,
    /// Queries in arrival order (`arrival_cycle` is nondecreasing).
    pub queries: Vec<QuerySpec>,
}

impl ArrivalTrace {
    /// Draw a trace from `seed`. Identical `(seed, params)` always
    /// produce the identical trace.
    pub fn seeded(seed: u64, params: &TraceParams) -> Self {
        assert!(!params.datasets.is_empty(), "trace needs a dataset pool");
        assert!(
            params.deadline_range.0 < params.deadline_range.1,
            "deadline range must be non-empty"
        );
        let mut rng = SplitMix64::seed_from_u64(seed);
        let mut cycle = 0u64;
        let queries = (0..params.queries)
            .map(|i| {
                let gap_lo = params.mean_gap_cycles / 2;
                let gap_hi = (params.mean_gap_cycles.saturating_mul(3) / 2).max(gap_lo + 1);
                cycle = cycle.saturating_add(rng.range_u64(gap_lo, gap_hi));
                let kind =
                    WorkloadKind::ALL[rng.range_u32(0, WorkloadKind::ALL.len() as u32) as usize];
                let (dataset, rel_scale) =
                    params.datasets[rng.range_u32(0, params.datasets.len() as u32) as usize];
                // 30% interactive / 50% standard / 20% batch.
                let priority = match rng.range_u32(0, 10) {
                    0..=2 => Priority::Interactive,
                    3..=7 => Priority::Standard,
                    _ => Priority::Batch,
                };
                let tenant = rng.range_u32(0, NUM_TENANTS);
                let deadline_cycles =
                    rng.range_u64(params.deadline_range.0, params.deadline_range.1);
                let source_salt = rng.next_u32();
                let faults = if params.fault_every > 0 && (i + 1) % params.fault_every == 0 {
                    params.faults_per_query
                } else {
                    0
                };
                QuerySpec {
                    id: i as u32,
                    kind,
                    dataset,
                    rel_scale,
                    source_salt,
                    priority,
                    tenant,
                    arrival_cycle: cycle,
                    deadline_cycles,
                    faults,
                    watchdog_rounds: 0,
                }
            })
            .collect();
        ArrivalTrace { seed, queries }
    }

    /// The id after the largest, wrapping to 0: ids are caller data and need not be unique.
    fn next_id(&self) -> u32 {
        (self.queries.iter().map(|q| q.id).max()).map_or(0, |id| id.wrapping_add(1))
    }

    /// Cycle of the latest arrival so far.
    fn last_arrival(&self) -> u64 {
        self.queries
            .iter()
            .map(|q| q.arrival_cycle)
            .max()
            .unwrap_or(0)
    }

    /// Append a poison query: a tiny watchdog round budget makes every
    /// attempt abort deterministically, so the query burns its retry
    /// budget and is quarantined with its full recovery log. Returns the
    /// new query's id.
    pub fn push_poison(
        &mut self,
        kind: WorkloadKind,
        dataset: Dataset,
        rel_scale: f64,
        watchdog_rounds: u64,
        gap_cycles: u64,
    ) -> u32 {
        let id = self.next_id();
        self.queries.push(QuerySpec {
            id,
            kind,
            dataset,
            rel_scale,
            source_salt: 0,
            priority: Priority::Standard,
            tenant: 0,
            arrival_cycle: self.last_arrival().saturating_add(gap_cycles),
            // Generous deadline: the point of a poison query is to fail
            // by aborting, not by missing its deadline.
            deadline_cycles: u64::MAX / 4,
            faults: 0,
            watchdog_rounds,
        });
        id
    }

    /// Append a resubmission of query `of`'s signature `gap_cycles`
    /// after the latest arrival. If `of` was quarantined by then, the
    /// resubmission is rejected at admission — the fast-fail path that
    /// keeps a poison family from re-entering the service. Returns the
    /// new query's id.
    ///
    /// # Panics
    /// If `of` does not name a query in the trace.
    pub fn push_resubmission(&mut self, of: u32, gap_cycles: u64) -> u32 {
        let original = self
            .queries
            .iter()
            .find(|q| q.id == of)
            .expect("resubmission of unknown query id")
            .clone();
        let id = self.next_id();
        self.queries.push(QuerySpec {
            id,
            arrival_cycle: self.last_arrival().saturating_add(gap_cycles),
            ..original
        });
        id
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const POOL: &[(Dataset, f64)] = &[(Dataset::RoadNY, 0.1), (Dataset::Synthetic, 0.004)];

    fn params() -> TraceParams {
        TraceParams {
            queries: 20,
            mean_gap_cycles: 10_000,
            deadline_range: (1_000_000, 2_000_000),
            datasets: POOL,
            fault_every: 3,
            faults_per_query: 2,
        }
    }

    #[test]
    fn every_kind_builds_the_workload_its_label_names() {
        struct Name<'a>(&'a Csr);
        impl KindVisitor for Name<'_> {
            type Output = &'static str;
            fn visit<W: PtWorkload>(self, make: impl Fn(&Csr, u32) -> W) -> &'static str {
                make(self.0, 0).name()
            }
        }
        let graph = Dataset::RoadNY.build(0.001);
        for kind in WorkloadKind::ALL {
            assert_eq!(kind.visit(Name(&graph)), kind.label());
        }
    }

    #[test]
    fn same_seed_same_trace() {
        let a = ArrivalTrace::seeded(7, &params());
        let b = ArrivalTrace::seeded(7, &params());
        assert_eq!(a, b);
        let c = ArrivalTrace::seeded(8, &params());
        assert_ne!(a, c);
    }

    #[test]
    fn arrivals_are_nondecreasing_and_gaps_bounded() {
        let trace = ArrivalTrace::seeded(11, &params());
        assert_eq!(trace.queries.len(), 20);
        let mut prev = 0;
        for q in &trace.queries {
            let gap = q.arrival_cycle - prev;
            assert!((5_000..15_000).contains(&gap), "gap {gap}");
            assert!((1_000_000..2_000_000).contains(&q.deadline_cycles));
            prev = q.arrival_cycle;
        }
    }

    #[test]
    fn fault_exposure_hits_every_third_query() {
        let trace = ArrivalTrace::seeded(11, &params());
        for (i, q) in trace.queries.iter().enumerate() {
            assert_eq!(q.faults, if (i + 1) % 3 == 0 { 2 } else { 0 });
        }
    }

    #[test]
    fn tenants_are_drawn_within_bounds() {
        let trace = ArrivalTrace::seeded(11, &params());
        for q in &trace.queries {
            assert!(q.tenant < NUM_TENANTS, "tenant {} out of range", q.tenant);
        }
        // With 20 draws over 4 tenants, at least two distinct tenants
        // appear (a collapsed draw would break the fairness accounting).
        let distinct: std::collections::BTreeSet<u32> =
            trace.queries.iter().map(|q| q.tenant).collect();
        assert!(distinct.len() >= 2, "tenant draw collapsed: {distinct:?}");
    }

    #[test]
    fn poison_at_the_head_of_an_empty_trace() {
        // Degenerate traces come up when experiments hand-build loads:
        // the poison must become query 0 at exactly `gap_cycles`.
        let mut trace = ArrivalTrace {
            seed: 1,
            queries: vec![],
        };
        let id = trace.push_poison(WorkloadKind::Cc, Dataset::Synthetic, 0.004, 3, 7_000);
        assert_eq!(id, 0);
        assert_eq!(trace.queries.len(), 1);
        assert_eq!(trace.queries[0].arrival_cycle, 7_000);
        assert_eq!(trace.queries[0].watchdog_rounds, 3);
        assert_eq!(
            trace.queries[0].faults, 0,
            "poison fails by watchdog, not faults"
        );
    }

    #[test]
    fn poison_at_the_tail_extends_the_latest_arrival() {
        // `last_arrival` is the max over the trace, not the last pushed
        // element — a poison appended after an out-of-order hand edit
        // still lands past every existing arrival.
        let mut trace = ArrivalTrace::seeded(5, &params());
        trace.queries.swap(0, 19); // tail element now arrives earliest
        let tail = trace.queries.iter().map(|q| q.arrival_cycle).max().unwrap();
        let id = trace.push_poison(WorkloadKind::Bfs, Dataset::RoadNY, 0.1, 2, 1_000);
        let p = trace.queries.iter().find(|q| q.id == id).unwrap();
        assert_eq!(p.arrival_cycle, tail + 1_000);
    }

    #[test]
    fn duplicate_poison_signatures_get_distinct_ids() {
        let mut trace = ArrivalTrace {
            seed: 9,
            queries: vec![],
        };
        let a = trace.push_poison(WorkloadKind::Bfs, Dataset::RoadNY, 0.1, 2, 1_000);
        let b = trace.push_poison(WorkloadKind::Bfs, Dataset::RoadNY, 0.1, 2, 1_000);
        assert_ne!(a, b);
        let qa = trace.queries.iter().find(|q| q.id == a).unwrap();
        let qb = trace.queries.iter().find(|q| q.id == b).unwrap();
        assert_eq!(qa.signature(), qb.signature());
        assert!(qb.arrival_cycle > qa.arrival_cycle);
    }

    #[test]
    fn resubmission_chains_preserve_the_original_spec() {
        // A resubmission of a resubmission still carries the original
        // query's kind, dataset, tenant, and fault exposure — only the
        // id and arrival move.
        let mut trace = ArrivalTrace::seeded(3, &params());
        let first = trace.push_resubmission(4, 5_000);
        let second = trace.push_resubmission(first, 5_000);
        let original = trace.queries.iter().find(|q| q.id == 4).unwrap().clone();
        let r = trace.queries.iter().find(|q| q.id == second).unwrap();
        assert_eq!(r.kind, original.kind);
        assert_eq!(r.dataset, original.dataset);
        assert_eq!(r.tenant, original.tenant);
        assert_eq!(r.faults, original.faults);
        assert_eq!(r.signature(), original.signature());
        assert!(r.arrival_cycle > original.arrival_cycle);
    }

    #[test]
    #[should_panic(expected = "resubmission of unknown query id")]
    fn resubmission_of_unknown_id_panics() {
        let mut trace = ArrivalTrace {
            seed: 2,
            queries: vec![],
        };
        let _ = trace.push_resubmission(99, 1_000);
    }

    #[test]
    fn appending_after_the_largest_id_wraps_instead_of_overflowing() {
        let mut trace = ArrivalTrace::seeded(3, &params());
        trace.queries[4].id = u32::MAX;
        let poison = trace.push_poison(WorkloadKind::Bfs, Dataset::RoadNY, 0.1, 2, 5_000);
        assert_eq!(poison, 0);
        let resub = trace.push_resubmission(u32::MAX, 5_000);
        assert_eq!(resub, 0);
        assert_eq!(trace.queries.len(), 22);
    }

    #[test]
    fn poison_and_resubmission_share_a_signature() {
        let mut trace = ArrivalTrace::seeded(3, &params());
        let tail = trace.last_arrival();
        let poison = trace.push_poison(WorkloadKind::Bfs, Dataset::RoadNY, 0.1, 2, 5_000);
        let resub = trace.push_resubmission(poison, 5_000);
        let p = trace.queries.iter().find(|q| q.id == poison).unwrap();
        let r = trace.queries.iter().find(|q| q.id == resub).unwrap();
        assert_eq!(p.signature(), r.signature());
        assert_eq!(p.arrival_cycle, tail + 5_000);
        assert_eq!(r.arrival_cycle, tail + 10_000);
        assert_eq!(p.watchdog_rounds, 2);
    }
}
