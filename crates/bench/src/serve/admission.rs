//! Bounded admission with typed rejection and weighted-fair dispatch.
//!
//! The ready backlog is a [`SegmentedRfAnQueue`] per (priority class,
//! tenant) lane, holding `u32` query tokens (the service's trace
//! indices). Segmented storage never refuses a token, so the only
//! capacity decision is *policy* (why: DESIGN.md *Admission*): a backlog
//! bound checked here on the host and reported as a typed
//! [`AdmissionError`] instead of an abort. The error taxonomy mirrors
//! `simt::AbortReason`: callers match on variants, never on strings, and
//! nothing panics.
//!
//! Dispatch order is **deficit round-robin**, not strict priority: each
//! class holds a grant budget refilled to [`Priority::weight`] when the
//! scheduler's cursor enters it, and spends one grant per dispatched
//! query. While every class is backlogged the dispatch stream is the
//! fixed weighted pattern (4 interactive : 2 standard : 1 batch per
//! round); a class with nothing ready forfeits the visit without
//! consuming anyone else's share, so the scheme degrades to FIFO when
//! only one class is busy and can never starve a backlogged class.
//! Within a class the lanes round-robin across tenants (equal shares,
//! FIFO per lane), so one chatty tenant cannot monopolize its class
//! either. The whole discipline is a pure function of the push/take call
//! sequence — no clocks, no randomness — which keeps the serving replay
//! deterministic.

use std::collections::BTreeMap;
use std::fmt;

use gpu_queue::host::{SegmentedRfAnQueue, SlotTicket};

use super::trace::{Priority, QuerySpec, NUM_TENANTS};

/// Why admission refused a query. Every variant is a normal service
/// outcome, logged and counted — not an error to unwind on.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AdmissionError {
    /// The query describes no runnable launch ([`check_query`]); Phase A
    /// builds it no graph and no plan.
    InvalidQuery {
        /// What is wrong with the query.
        reason: &'static str,
    },
    /// The ready backlog is at its configured bound; admitting one more
    /// query would grow the queue past what the service will promise to
    /// serve. Backpressure, not data loss: the client sees the rejection
    /// at submission time.
    QueueFull {
        /// Backlog size the admission would have produced.
        requested: u64,
        /// Configured backlog bound.
        capacity: u64,
    },
    /// Deadline-based load shedding: the projected completion cycle of
    /// the backlog plus this query already exceeds the query's deadline,
    /// so running it would only waste device time.
    Shedding {
        /// Projected completion cycle had the query been admitted.
        projected_cycle: u64,
        /// The query's absolute deadline cycle (arrival + budget).
        deadline_cycle: u64,
    },
    /// A query with this (workload, dataset) signature previously
    /// exhausted its retry budget and was quarantined; resubmissions are
    /// refused until an operator clears the quarantine.
    Quarantined {
        /// Id of the query whose exhaustion quarantined the signature.
        original: u32,
    },
}

impl fmt::Display for AdmissionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AdmissionError::InvalidQuery { reason } => write!(f, "invalid query: {reason}"),
            AdmissionError::QueueFull {
                requested,
                capacity,
            } => write!(
                f,
                "admission backlog full: {requested} queued against a bound of {capacity}"
            ),
            AdmissionError::Shedding {
                projected_cycle,
                deadline_cycle,
            } => write!(
                f,
                "shed: projected completion at cycle {projected_cycle} past deadline {deadline_cycle}"
            ),
            AdmissionError::Quarantined { original } => {
                write!(f, "signature quarantined by query {original}")
            }
        }
    }
}

/// Whether `query` describes a runnable launch: a finite positive
/// `rel_scale`, and no more faults of a kind than `fault_draws`, the
/// seeded plan's rounds times the launch's waves.
pub fn check_query(query: &QuerySpec, fault_draws: u64) -> Result<(), AdmissionError> {
    let reason = if !(query.rel_scale.is_finite() && query.rel_scale > 0.0) {
        "rel_scale must be finite and positive"
    } else if u64::from(query.faults) > fault_draws {
        "more faults than the fault plan's draw space"
    } else {
        return Ok(());
    };
    Err(AdmissionError::InvalidQuery { reason })
}

/// The service's ready backlog plus its admission policy and
/// weighted-fair dispatch state.
pub struct AdmissionQueue {
    /// One segmented FIFO per (class, tenant) lane, indexed by
    /// [`Priority::index`] then tenant.
    lanes: [[SegmentedRfAnQueue; NUM_TENANTS as usize]; 3],
    /// Host-side occupancy per lane (the policy counter; the queues
    /// themselves are unbounded by construction).
    queued: [[u64; NUM_TENANTS as usize]; 3],
    /// Backlog bound across all lanes.
    capacity: u64,
    /// DRR class the cursor currently grants from.
    cursor: usize,
    /// Grants left for the cursor class before it yields.
    grant: u64,
    /// Next tenant lane to serve per class (round-robin).
    tenant_cursor: [usize; 3],
    /// Quarantined signatures → the query that earned the quarantine.
    quarantined: BTreeMap<(&'static str, &'static str), u32>,
    /// Segmented-enqueue failures observed (must stay 0: the segmented
    /// path cannot reject a non-sentinel token — the chaos suite pins
    /// this).
    enqueue_errors: u64,
}

impl AdmissionQueue {
    /// Segment capacity for the backlog rings. Small on purpose: a
    /// serving backlog of a few dozen queries should still exercise the
    /// segment-chaining path, not fit in one segment.
    const SEG_CAP: usize = 8;

    /// An empty backlog with the given bound.
    pub fn new(capacity: u64) -> Self {
        AdmissionQueue {
            lanes: std::array::from_fn(|_| {
                std::array::from_fn(|_| SegmentedRfAnQueue::new(Self::SEG_CAP))
            }),
            queued: [[0; NUM_TENANTS as usize]; 3],
            capacity,
            // The cursor parks on the last class with an empty grant, so
            // the first busy period starts a fresh round at the highest
            // weight.
            cursor: 2,
            grant: 0,
            tenant_cursor: [0; 3],
            quarantined: BTreeMap::new(),
            enqueue_errors: 0,
        }
    }

    /// Admission decision for `query`, given the projected completion
    /// cycle the service computed for it. Checks are ordered cheapest
    /// rejection first: quarantine (the query will never succeed), then
    /// backpressure, then shedding.
    pub fn check(&self, query: &QuerySpec, projected_cycle: u64) -> Result<(), AdmissionError> {
        if let Some(&original) = self.quarantined.get(&query.signature()) {
            return Err(AdmissionError::Quarantined { original });
        }
        let total = self.backlog();
        if total >= self.capacity {
            return Err(AdmissionError::QueueFull {
                requested: total + 1,
                capacity: self.capacity,
            });
        }
        let deadline_cycle = query.arrival_cycle.saturating_add(query.deadline_cycles);
        if projected_cycle > deadline_cycle {
            return Err(AdmissionError::Shedding {
                projected_cycle,
                deadline_cycle,
            });
        }
        Ok(())
    }

    /// Enqueue an admitted (or retry-ready) query token into its
    /// (class, tenant) lane.
    pub fn push(&mut self, priority: Priority, tenant: u32, id: u32) {
        let class = priority.index();
        let lane = (tenant % NUM_TENANTS) as usize;
        match self.lanes[class][lane].try_enqueue_batch(&[id]) {
            Ok(_) => self.queued[class][lane] += 1,
            // Unreachable for real tokens (only the sentinel token is
            // refused), but counted rather than unwrapped: a nonzero
            // count is a bug the chaos suite will surface.
            Err(_) => self.enqueue_errors += 1,
        }
    }

    /// Queries waiting in `class`, across its tenant lanes.
    fn class_backlog(&self, class: usize) -> u64 {
        self.queued[class].iter().sum()
    }

    /// Dequeue the next query token under weighted deficit round-robin
    /// (see module docs): the cursor class spends one grant per take
    /// and yields to the next class when its grant budget or backlog is
    /// spent; tenant lanes within the class round-robin. `None` when
    /// the backlog is empty.
    pub fn take_next(&mut self) -> Option<(Priority, u32)> {
        if self.backlog() == 0 {
            // End of a busy period: park the cursor so the next one
            // starts a fresh weighted round at the highest class.
            self.cursor = 2;
            self.grant = 0;
            return None;
        }
        loop {
            if self.grant > 0 && self.class_backlog(self.cursor) > 0 {
                self.grant -= 1;
                return Some(self.take_from_class(self.cursor));
            }
            self.cursor = (self.cursor + 1) % 3;
            self.grant = Priority::ALL[self.cursor].weight();
        }
    }

    /// Dequeue from `class`'s next non-empty tenant lane (round-robin).
    /// The class backlog must be non-zero.
    fn take_from_class(&mut self, class: usize) -> (Priority, u32) {
        let lanes = NUM_TENANTS as usize;
        for offset in 0..lanes {
            let lane = (self.tenant_cursor[class] + offset) % lanes;
            if self.queued[class][lane] == 0 {
                continue;
            }
            self.tenant_cursor[class] = (lane + 1) % lanes;
            // Serial dequeue protocol: every queued id was published
            // before this reserve, so the take cannot miss.
            let slot = self.lanes[class][lane].reserve(1).start;
            match self.lanes[class][lane].try_take(SlotTicket(slot)) {
                Some(id) => {
                    self.queued[class][lane] -= 1;
                    return (Priority::ALL[class], id);
                }
                None => self.enqueue_errors += 1,
            }
        }
        unreachable!("take_from_class called on an empty class");
    }

    /// Total queries waiting across all lanes.
    pub fn backlog(&self) -> u64 {
        self.queued.iter().flatten().sum()
    }

    /// Quarantine a signature on behalf of query `id`.
    pub fn quarantine(&mut self, signature: (&'static str, &'static str), id: u32) {
        self.quarantined.entry(signature).or_insert(id);
    }

    /// Segmented-enqueue failures observed (0 in any correct run).
    pub fn enqueue_errors(&self) -> u64 {
        self.enqueue_errors
    }

    /// Segments allocated fresh across the (class, tenant) lane rings —
    /// proof in the serve tables that the backlog really is
    /// segment-chained.
    pub fn fresh_segments(&self) -> u64 {
        self.lanes.iter().flatten().map(|q| q.fresh_allocs()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serve::trace::WorkloadKind;
    use ptq_graph::Dataset;

    fn query(id: u32, priority: Priority) -> QuerySpec {
        QuerySpec {
            id,
            kind: WorkloadKind::Bfs,
            dataset: Dataset::RoadNY,
            rel_scale: 0.1,
            source_salt: 0,
            priority,
            tenant: 0,
            arrival_cycle: 100,
            deadline_cycles: 1_000,
            faults: 0,
            watchdog_rounds: 0,
        }
    }

    #[test]
    fn drr_grants_follow_class_weights_while_all_backlogged() {
        // With every class saturated, dispatch must be the fixed
        // weighted round: 4 interactive, 2 standard, 1 batch.
        let mut q = AdmissionQueue::new(64);
        for id in 0..8 {
            q.push(Priority::Interactive, 0, id);
            q.push(Priority::Standard, 0, 100 + id);
            q.push(Priority::Batch, 0, 200 + id);
        }
        let classes: Vec<Priority> = (0..14).map(|_| q.take_next().unwrap().0).collect();
        use Priority::*;
        assert_eq!(
            classes,
            vec![
                Interactive,
                Interactive,
                Interactive,
                Interactive,
                Standard,
                Standard,
                Batch,
                Interactive,
                Interactive,
                Interactive,
                Interactive,
                Standard,
                Standard,
                Batch,
            ]
        );
        assert_eq!(q.enqueue_errors(), 0);
    }

    #[test]
    fn lone_backlogged_class_drains_fifo_without_idle_grants() {
        // Empty classes forfeit their visits: a batch-only backlog
        // drains back-to-back, in FIFO order, with no starvation gaps.
        let mut q = AdmissionQueue::new(64);
        for id in 0..6 {
            q.push(Priority::Batch, 0, id);
        }
        for id in 0..6 {
            assert_eq!(q.take_next(), Some((Priority::Batch, id)));
        }
        assert_eq!(q.take_next(), None);
    }

    #[test]
    fn batch_class_cannot_be_starved_by_interactive_floods() {
        // The strict-priority drain this DRR replaced would never reach
        // the batch query while interactive work kept arriving; the
        // weighted round reaches it within one full cycle (7 grants).
        let mut q = AdmissionQueue::new(u64::MAX);
        q.push(Priority::Batch, 0, 999);
        for id in 0..100 {
            q.push(Priority::Interactive, 0, id);
        }
        let mut took_batch_at = None;
        for k in 0..10 {
            let (class, id) = q.take_next().unwrap();
            if class == Priority::Batch {
                assert_eq!(id, 999);
                took_batch_at = Some(k);
                break;
            }
            // Keep the interactive flood saturated while we wait.
            q.push(Priority::Interactive, 0, 500 + k);
        }
        assert!(
            took_batch_at.is_some(),
            "batch query starved through a full weighted round"
        );
    }

    #[test]
    fn tenant_lanes_round_robin_within_a_class() {
        let mut q = AdmissionQueue::new(64);
        // Tenant 0 is chatty (3 queries); tenants 1 and 2 have one each.
        q.push(Priority::Standard, 0, 10);
        q.push(Priority::Standard, 0, 11);
        q.push(Priority::Standard, 0, 12);
        q.push(Priority::Standard, 1, 20);
        q.push(Priority::Standard, 2, 30);
        let ids: Vec<u32> = (0..5).map(|_| q.take_next().unwrap().1).collect();
        // Round-robin across lanes, FIFO within: the chatty tenant gets
        // exactly its share, not the head of the line.
        assert_eq!(ids, vec![10, 20, 30, 11, 12]);
    }

    #[test]
    fn busy_period_reset_restarts_the_weighted_round() {
        let mut q = AdmissionQueue::new(64);
        q.push(Priority::Batch, 0, 1);
        assert_eq!(q.take_next(), Some((Priority::Batch, 1)));
        assert_eq!(q.take_next(), None);
        // A fresh busy period starts its round at interactive again.
        q.push(Priority::Interactive, 0, 2);
        q.push(Priority::Batch, 0, 3);
        assert_eq!(q.take_next(), Some((Priority::Interactive, 2)));
    }

    #[test]
    fn backlog_bound_is_a_typed_queue_full() {
        let mut q = AdmissionQueue::new(2);
        q.push(Priority::Standard, 0, 0);
        q.push(Priority::Standard, 1, 1);
        let err = q.check(&query(2, Priority::Standard), 0).unwrap_err();
        assert_eq!(
            err,
            AdmissionError::QueueFull {
                requested: 3,
                capacity: 2
            }
        );
        // Draining reopens admission.
        q.take_next();
        assert!(q.check(&query(2, Priority::Standard), 0).is_ok());
    }

    #[test]
    fn shapeless_queries_are_a_typed_invalid_query() {
        let mut spec = query(0, Priority::Standard);
        assert!(check_query(&spec, 256).is_ok());
        for rel_scale in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            spec.rel_scale = rel_scale;
            assert!(
                matches!(
                    check_query(&spec, 256),
                    Err(AdmissionError::InvalidQuery { .. })
                ),
                "rel_scale {rel_scale}"
            );
        }
        spec.rel_scale = 0.1;
        spec.faults = 256;
        assert!(check_query(&spec, 256).is_ok());
        spec.faults = 257;
        assert!(matches!(
            check_query(&spec, 256),
            Err(AdmissionError::InvalidQuery { .. })
        ));
    }

    #[test]
    fn projection_past_deadline_sheds() {
        let q = AdmissionQueue::new(8);
        let spec = query(0, Priority::Standard); // deadline cycle 1_100
        assert!(q.check(&spec, 1_100).is_ok());
        assert_eq!(
            q.check(&spec, 1_101).unwrap_err(),
            AdmissionError::Shedding {
                projected_cycle: 1_101,
                deadline_cycle: 1_100
            }
        );
    }

    #[test]
    fn quarantine_rejects_the_signature_not_the_world() {
        let mut q = AdmissionQueue::new(8);
        let poisoned = query(7, Priority::Standard);
        q.quarantine(poisoned.signature(), 7);
        assert_eq!(
            q.check(&poisoned, 0).unwrap_err(),
            AdmissionError::Quarantined { original: 7 }
        );
        // A different signature sails through.
        let mut other = query(8, Priority::Standard);
        other.kind = WorkloadKind::Cc;
        assert!(q.check(&other, 0).is_ok());
        assert_eq!(q.quarantined.len(), 1);
    }

    #[test]
    fn deep_backlog_chains_segments_without_errors() {
        let mut q = AdmissionQueue::new(1_000);
        for id in 0..100 {
            q.push(Priority::Batch, 0, id);
        }
        assert!(q.fresh_segments() > 3, "backlog should span segments");
        for id in 0..100 {
            assert_eq!(q.take_next(), Some((Priority::Batch, id)));
        }
        assert_eq!(q.enqueue_errors(), 0);
    }
}
