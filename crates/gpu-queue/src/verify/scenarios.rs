//! Explorer scenarios for the host queue family.
//!
//! A scenario instantiates a fresh queue per schedule and drives the
//! production operation machines (`Put`, `Pop`), the stepwise poll
//! (`take_step`) and the single-access `claim` of [`crate::host::Queue`] —
//! the explorer interleaves the *same* steps the public blocking methods
//! run to completion; nothing of an operation's control flow is restated
//! here. On segmented storage a token access is two steps — resolve the
//! ticket's segment in the directory, then touch the slot — so installs
//! and retirements interleave between them.
//! There is one pair of thread programs per reservation discipline, generic
//! over the storage, and one spec per discipline that the storage
//! parameterises; batch width is scenario data, so a width-1 operation
//! records like any other:
//!
//! * **CAS** operations are intervals (`PushBatch`/`PopBatch`), checked
//!   against [`FifoSpec`]. A consumer that claimed a slot gates on
//!   [`Program::ready`] until the owning producer publishes (the producer
//!   is always runnable, so this cannot deadlock).
//! * **AFA** operations decompose into their atomic points — the `Rear`
//!   reservation, each segment install, each per-slot publish, the `Front`
//!   reservation, each poll (`None`s included) and each segment retirement
//!   — checked against [`TicketSpec`], bounded or segmented. The consumer
//!   never blocks: reservations may outrun data by design, so it polls each
//!   ticket under a bounded budget.
//!
//! Every completed schedule's history is checked against its core's
//! sequential spec ([`Explored`]); a non-linearizable history panics with
//! the history.

use super::explorer::{explore, explore_random, Program};
use super::history::{check_linearizable, FifoSpec, History, Op, Recorder, SeqSpec, TicketSpec};
use crate::host::queue::{Event, Pop, Put, Resolved, Step};
use crate::host::{Afa, Bounded, Cas, Queue, Segmented, Storage};
use std::collections::{BTreeSet, VecDeque};

/// What a scenario run observed across all explored schedules.
#[derive(Clone, Debug, Default)]
pub struct ScenarioReport {
    /// Schedules executed (distinct ones for random sampling).
    pub schedules: usize,
    /// Whole schedule space enumerated (DFS only).
    pub exhausted: bool,
    /// Longest schedule (steps).
    pub max_depth: usize,
    /// Distinct execution states visited (DFS only; see
    /// [`ExploreStats::states`](super::explorer::ExploreStats::states)).
    pub states: usize,
    /// Histories checked for linearizability (all of them passed, or the
    /// run panicked).
    pub histories_checked: usize,
    /// Distinct delivered-token multisets (sorted) across schedules.
    pub delivered: BTreeSet<Vec<u32>>,
    /// Distinct rejected-operation counts (full-queue outcomes) across
    /// schedules.
    pub rejections: BTreeSet<usize>,
    /// `TryTake` hits on a ticket an earlier poll of the same schedule
    /// missed — the retry path — summed over schedules.
    pub retried_hits: usize,
}

fn digest(h: &History, report: &mut ScenarioReport) {
    let mut delivered = Vec::new();
    let mut rejected = 0usize;
    let mut missed = BTreeSet::new();
    for c in &h.ops {
        match &c.op {
            Op::PopBatch { taken, .. } => delivered.extend(taken.iter().copied()),
            Op::TryTake { slot, result } => match result {
                Some(v) => {
                    delivered.push(*v);
                    report.retried_hits += usize::from(missed.contains(slot));
                }
                None => drop(missed.insert(*slot)),
            },
            Op::PushBatch { ok: false, .. } | Op::EnqueueBatch { ok: false, .. } => rejected += 1,
            _ => {}
        }
    }
    delivered.sort_unstable();
    report.delivered.insert(delivered);
    report.rejections.insert(rejected);
    report.histories_checked += 1;
}

type Programs<Q> = Vec<Box<dyn Program<Q>>>;

// ------------------------------------------------------- CAS discipline --

struct CasProducer {
    thread: usize,
    batches: Vec<Vec<u32>>,
    next: usize,
    /// The enqueue in flight and the time of its first step.
    op: Option<(Put<Cas>, u64)>,
}

impl<S: Storage> Program<Queue<Cas, S>> for CasProducer {
    fn done(&self) -> bool {
        self.next >= self.batches.len()
    }

    fn step(&mut self, q: &Queue<Cas, S>, rec: &mut Recorder) {
        let tokens = &self.batches[self.next];
        let (put, start) = (self.op).get_or_insert_with(|| (Put::new(tokens), rec.now()));
        if let Step::Done(result) = put.step(q, tokens, |_| {}) {
            let (tokens, ok) = (tokens.clone(), result.is_ok());
            rec.record(self.thread, *start, Op::PushBatch { tokens, ok });
            self.next += 1;
            self.op = None;
        }
    }
}

struct CasConsumer {
    thread: usize,
    pops_left: usize,
    max: usize,
    /// The dequeue in flight, the time of its first step, its tokens.
    op: Option<(Pop<Cas>, u64, Vec<u32>)>,
}

impl<S: Storage> Program<Queue<Cas, S>> for CasConsumer {
    fn done(&self) -> bool {
        self.pops_left == 0
    }

    fn ready(&self, q: &Queue<Cas, S>) -> bool {
        // A claimed-but-unpublished slot blocks (the owning producer's
        // remaining steps install and publish it, so progress is
        // guaranteed).
        let waits_on = self.op.as_ref().and_then(|(pop, ..)| pop.waits_on());
        waits_on.is_none_or(|slot| q.storage().ready(slot))
    }

    fn step(&mut self, q: &Queue<Cas, S>, rec: &mut Recorder) {
        let (pop, start, taken) =
            (self.op).get_or_insert_with(|| (Pop::new(self.max), rec.now(), Vec::new()));
        if let Step::Done(_) = pop.step(q, |token| taken.push(token)) {
            let (max, taken) = (self.max, std::mem::take(taken));
            rec.record(self.thread, *start, Op::PopBatch { max, taken });
            self.pops_left -= 1;
            self.op = None;
        }
    }
}

// ------------------------------------------------------- AFA discipline --

struct AfaProducer {
    thread: usize,
    batches: Vec<Vec<u32>>,
    next: usize,
    op: Option<Put<Afa>>,
}

impl<S: Storage> Program<Queue<Afa, S>> for AfaProducer {
    fn done(&self) -> bool {
        self.next >= self.batches.len()
    }

    fn step(&mut self, q: &Queue<Afa, S>, rec: &mut Recorder) {
        let tokens = &self.batches[self.next];
        let put = self.op.get_or_insert_with(|| Put::new(tokens));
        // Each access is its own linearization point: the one AFA that
        // reserves the whole region (overflow included — `Rear` stays
        // advanced), each directory store, each slot's release store.
        let see = |event| {
            let op = match event {
                Event::Claimed { base, ok } => Op::EnqueueBatch {
                    base,
                    tokens: tokens.clone(),
                    ok,
                },
                Event::Installed { seg } => Op::InstallSegment { seg },
                Event::Published { slot, token } => Op::Publish { slot, token },
            };
            rec.atomic(self.thread, op);
        };
        if let Step::Done(_) = put.step(q, tokens, see) {
            self.next += 1;
            self.op = None;
        }
    }
}

struct AfaConsumer {
    thread: usize,
    reserve_n: u64,
    polls_left: usize,
    reserved: bool,
    pending: VecDeque<u64>,
    /// The front ticket's segment, between the two steps of its poll.
    at: Resolved,
}

impl<S: Storage> Program<Queue<Afa, S>> for AfaConsumer {
    fn done(&self) -> bool {
        self.reserved && (self.polls_left == 0 || self.pending.is_empty())
    }

    fn step(&mut self, q: &Queue<Afa, S>, rec: &mut Recorder) {
        if !self.reserved {
            let tickets = q.claim(self.reserve_n);
            let (n, base) = (self.reserve_n, tickets.start);
            rec.atomic(self.thread, Op::Reserve { n, base });
            self.pending.extend(tickets);
            self.reserved = true;
            return;
        }
        let &slot = self.pending.front().expect("done() gates empty");
        let Step::Done(taken) = q.take_step(&mut self.at, slot) else {
            return;
        };
        self.pending.pop_front();
        let result = taken.token;
        rec.atomic(self.thread, Op::TryTake { slot, result });
        if let Some(seg) = taken.retired {
            // The pickup that empties a segment also retires it — both
            // effects happen in the same indivisible step, so the two
            // ops share one instant and the checker orders take-first.
            rec.atomic(self.thread, Op::RecycleSegment { seg });
        }
        if result.is_none() {
            self.pending.push_back(slot);
        }
        self.polls_left -= 1;
    }
}

// ------------------------------------------------------------ scenarios --

/// Which core of the family a [`Scenario`] explores, and with it the
/// sequential spec its histories are checked against. Batch width is the
/// scenario's data, not a row: BASE and SEG-RF are the `An` and `SegRfAn`
/// cores driven at width 1.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Explored {
    /// `Queue<Cas, Bounded>`, against [`FifoSpec`].
    An,
    /// `Queue<Afa, Bounded>`, against a bounded [`TicketSpec`].
    RfAn,
    /// `Queue<Afa, Segmented>`, against a segmented [`TicketSpec`].
    SegRfAn,
    /// `Queue<Cas, Segmented>`, against an unbounded [`FifoSpec`].
    SegAn,
}

/// Producer and consumer threads against one queue of the family.
#[derive(Clone, Debug)]
pub struct Scenario {
    /// The core under test.
    pub variant: Explored,
    /// Lifetime capacity (bounded variants) or slots per segment
    /// (segmented ones; small values force boundary straddles).
    pub size: usize,
    /// Batches per producer thread.
    pub producers: Vec<Vec<Vec<u32>>>,
    /// Per consumer thread — CAS: `(pop attempts, max per pop)`; AFA:
    /// `(slots reserved by its one reservation, poll budget)`.
    pub consumers: Vec<(usize, usize)>,
}

enum Search {
    Dfs { budget: usize },
    Random { samples: usize, seed: u64 },
}

impl Scenario {
    fn cas<S: Storage>(&self) -> (Queue<Cas, S>, Programs<Queue<Cas, S>>) {
        let mut programs: Programs<Queue<Cas, S>> = Vec::new();
        for (thread, batches) in self.producers.iter().enumerate() {
            programs.push(Box::new(CasProducer {
                thread,
                batches: batches.clone(),
                next: 0,
                op: None,
            }));
        }
        for (j, &(pops_left, max)) in self.consumers.iter().enumerate() {
            programs.push(Box::new(CasConsumer {
                thread: self.producers.len() + j,
                pops_left,
                max,
                op: None,
            }));
        }
        (Queue::new(self.size), programs)
    }

    fn afa<S: Storage>(&self) -> (Queue<Afa, S>, Programs<Queue<Afa, S>>) {
        let mut programs: Programs<Queue<Afa, S>> = Vec::new();
        for (thread, batches) in self.producers.iter().enumerate() {
            programs.push(Box::new(AfaProducer {
                thread,
                batches: batches.clone(),
                next: 0,
                op: None,
            }));
        }
        for (j, &(reserve_n, polls_left)) in self.consumers.iter().enumerate() {
            programs.push(Box::new(AfaConsumer {
                thread: self.producers.len() + j,
                reserve_n: reserve_n as u64,
                polls_left,
                reserved: false,
                pending: VecDeque::new(),
                at: Resolved::default(),
            }));
        }
        (Queue::new(self.size), programs)
    }

    fn check<Q, M, Spec>(&self, search: Search, mk: M, spec: Spec) -> ScenarioReport
    where
        M: FnMut() -> (Q, Programs<Q>),
        Spec: SeqSpec,
    {
        let mut report = ScenarioReport::default();
        let check = |h: &History, _q: &Q| {
            assert!(
                check_linearizable(h, spec.clone()),
                "{:?} history not linearizable: {h:?}",
                self.variant
            );
            digest(h, &mut report);
        };
        match search {
            Search::Dfs { budget } => {
                let stats = explore(mk, budget, check);
                report.schedules = stats.schedules;
                report.exhausted = stats.exhausted;
                report.max_depth = stats.max_depth;
                report.states = stats.states;
            }
            Search::Random { samples, seed } => {
                report.schedules = explore_random(mk, samples, seed, check);
            }
        }
        report
    }

    fn search(&self, how: Search) -> ScenarioReport {
        let n = self.size;
        match self.variant {
            Explored::An => self.check(how, || self.cas::<Bounded>(), FifoSpec::new(n)),
            Explored::RfAn => self.check(how, || self.afa::<Bounded>(), TicketSpec::bounded(n)),
            Explored::SegRfAn => {
                self.check(how, || self.afa::<Segmented>(), TicketSpec::segmented(n))
            }
            Explored::SegAn => {
                self.check(how, || self.cas::<Segmented>(), FifoSpec::new(usize::MAX))
            }
        }
    }

    /// DFS over at most `budget` schedules, checking every history.
    pub fn run(&self, budget: usize) -> ScenarioReport {
        self.search(Search::Dfs { budget })
    }

    /// Seeded random sampling; `schedules` counts distinct ones.
    pub fn run_random(&self, samples: usize, seed: u64) -> ScenarioReport {
        self.search(Search::Random { samples, seed })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Width-1 batches, one per token (how BASE and SEG-RF use the core).
    fn singly(tokens: &[u32]) -> Vec<Vec<u32>> {
        tokens.iter().map(|&t| vec![t]).collect()
    }

    #[test]
    fn base_two_producers_one_consumer_exhaustive() {
        let s = Scenario {
            variant: Explored::An,
            size: 4,
            producers: vec![singly(&[1]), singly(&[2])],
            consumers: vec![(2, 1)],
        };
        let r = s.run(100_000);
        assert!(r.exhausted, "small scenario should enumerate fully");
        assert!(r.schedules > 10);
        assert_eq!(r.histories_checked, r.schedules);
        // Depending on the interleaving the consumer sees 0, 1, or 2
        // tokens — but never invents or duplicates one.
        for d in &r.delivered {
            assert!(d.len() <= 2);
        }
        assert_eq!(r.rejections, BTreeSet::from([0]));
    }

    #[test]
    fn base_overflow_rejects_deterministically() {
        // Capacity 2, two producers of two tokens each: exactly two pushes
        // are rejected in every schedule.
        let s = Scenario {
            variant: Explored::An,
            size: 2,
            producers: vec![singly(&[1, 2]), singly(&[3, 4])],
            consumers: vec![],
        };
        let r = s.run(100_000);
        assert!(r.exhausted);
        assert_eq!(r.rejections, BTreeSet::from([2]));
    }

    #[test]
    fn an_batches_are_all_or_nothing_under_every_schedule() {
        let s = Scenario {
            variant: Explored::An,
            size: 3,
            producers: vec![vec![vec![1]], vec![vec![2, 3]]],
            consumers: vec![(1, 4)],
        };
        let r = s.run(100_000);
        assert!(r.exhausted);
        assert_eq!(r.rejections, BTreeSet::from([0]));
    }

    #[test]
    fn rfan_every_schedule_linearizes() {
        let s = Scenario {
            variant: Explored::RfAn,
            size: 4,
            producers: vec![vec![vec![1, 2]], vec![vec![3]]],
            consumers: vec![(2, 4)],
        };
        let r = s.run(100_000);
        assert!(r.exhausted);
        assert_eq!(r.rejections, BTreeSet::from([0]));
        // No schedule delivers a token twice.
        for d in &r.delivered {
            let mut dd = d.clone();
            dd.dedup();
            assert_eq!(dd.len(), d.len(), "double delivery in {d:?}");
        }
    }

    #[test]
    fn rfan_overflow_aborts_exactly_one_batch() {
        // Capacity 2, two 2-token batches racing: whichever reserves
        // second overflows — exactly one rejection in every schedule.
        let s = Scenario {
            variant: Explored::RfAn,
            size: 2,
            producers: vec![vec![vec![1, 2]], vec![vec![3, 4]]],
            consumers: vec![],
        };
        let r = s.run(100_000);
        assert!(r.exhausted);
        assert_eq!(r.rejections, BTreeSet::from([1]));
    }

    #[test]
    fn segmented_boundary_batch_every_schedule_linearizes() {
        // seg_cap 2, one 3-token batch: the reservation straddles the
        // segment boundary, so the producer installs two segments and
        // the consumer can drain (and recycle) the first mid-run.
        let s = Scenario {
            variant: Explored::SegRfAn,
            size: 2,
            producers: vec![vec![vec![1, 2, 3]]],
            consumers: vec![(3, 6)],
        };
        let r = s.run(1_000_000);
        assert!(r.exhausted, "small scenario should enumerate fully");
        assert_eq!(r.histories_checked, r.schedules);
        assert!(r.retried_hits > 0, "no poll missed and then hit");
        // Segmented enqueues never reject.
        assert_eq!(r.rejections, BTreeSet::from([0]));
        for d in &r.delivered {
            let mut dd = d.clone();
            dd.dedup();
            assert_eq!(dd.len(), d.len(), "double delivery in {d:?}");
        }
    }

    /// Two producers race installations while a consumer drains and
    /// recycles segments underneath them (seg_cap 1: every token is its
    /// own segment, maximizing install/recycle interleavings).
    fn append_vs_drain(polls: usize) -> Scenario {
        Scenario {
            variant: Explored::SegRfAn,
            size: 1,
            producers: vec![vec![vec![1]], vec![vec![2]]],
            consumers: vec![(2, polls)],
        }
    }

    #[test]
    fn segmented_append_vs_drain_race_linearizes() {
        // With resolve its own step, four polls are 10 M schedules — the
        // ignored test below. Here: every schedule of one poll per ticket,
        // then sampled ones of the four, where a miss has its retry.
        let r = append_vs_drain(2).run(1_000_000);
        assert!(r.exhausted);
        assert_eq!(r.rejections, BTreeSet::from([0]));
        // Some schedule delivers both tokens.
        assert!(r.delivered.contains(&vec![1, 2]));
        let r = append_vs_drain(4).run_random(20_000, 0x5EED_0416);
        assert!(r.schedules > 10_000, "{} samples", r.schedules);
        assert_eq!(r.rejections, BTreeSet::from([0]));
        assert!(r.retried_hits > 1_000, "{} retries hit", r.retried_hits);
    }

    #[test]
    #[ignore = "9 971 848 schedules, a minute in a release build: CI's release-suites job runs it"]
    fn segmented_append_vs_drain_race_with_retries_linearizes_exhaustively() {
        let r = append_vs_drain(4).run(20_000_000);
        assert!(r.exhausted);
        assert_eq!(r.rejections, BTreeSet::from([0]));
        assert!(r.delivered.contains(&vec![1, 2]));
        assert!(r.retried_hits > 0);
    }

    #[test]
    fn resolve_between_a_retire_and_the_reinstall_of_its_ring_entry() {
        // seg_cap 1 and — in unit tests the directory starts at one entry
        // — segments 0 and 1 share ring entry 0 of the only level: ticket
        // 1's consumer resolves it after segment 0's retirement cleared
        // the tag and before segment 1's install rewrites it.
        let s = Scenario {
            variant: Explored::SegRfAn,
            size: 1,
            producers: vec![singly(&[1, 2])],
            consumers: vec![(1, 2), (1, 2)],
        };
        let (q, mut programs) = s.afa::<Segmented>();
        let mut rec = Recorder::default();
        // The producer publishes 1 and reserves ticket 1; both consumers
        // reserve; the first drains and retires segment 0; the second
        // resolves ticket 1; the producer installs segment 1 and publishes
        // 2; the second consumer polls again.
        let schedule = [(0, 6), (1, 1), (2, 1), (1, 2), (2, 1), (0, 4), (2, 2)];
        for (program, steps) in schedule {
            for _ in 0..steps {
                programs[program].step(&q, &mut rec);
                rec.advance();
            }
        }
        assert!(programs.iter().all(|p| p.done()));
        let h = rec.into_history();
        let at = |op: Op| h.ops.iter().position(|c| c.op == op).expect("recorded");
        let miss = at(Op::TryTake {
            slot: 1,
            result: None,
        });
        assert!(at(Op::RecycleSegment { seg: 0 }) < miss);
        assert!(miss < at(Op::InstallSegment { seg: 1 }));
        let hit = Op::TryTake {
            slot: 1,
            result: Some(2),
        };
        assert!(at(Op::InstallSegment { seg: 1 }) < at(hit));
        assert!(check_linearizable(&h, TicketSpec::segmented(1)), "{h:?}");
        // One storage, one ring entry: the reuse the tag guards.
        assert_eq!(q.fresh_allocs(), 1);
        let one_install = Queue::<Afa, Segmented>::new(1);
        one_install.put(&[1]).unwrap();
        assert_eq!(q.meta_bytes(), one_install.meta_bytes(), "a level grew");
        // The neighbourhood: the same three threads under sampled
        // schedules (their whole space is past a unit test's budget).
        let r = s.run_random(5_000, 0x5EED_0016);
        assert!(r.schedules > 1_000, "only {} distinct samples", r.schedules);
        assert!(r.delivered.contains(&vec![1, 2]));
    }

    #[test]
    fn segmented_an_never_rejects_and_conserves_tokens() {
        // CAS reservation over segmented storage: the straddling batch
        // installs two segments and nothing is ever rejected.
        let s = Scenario {
            variant: Explored::SegAn,
            size: 2,
            producers: vec![vec![vec![1, 2, 3]]],
            consumers: vec![(2, 2)],
        };
        let r = s.run(100_000);
        assert!(r.exhausted);
        assert_eq!(r.rejections, BTreeSet::from([0]));
        assert!(r.delivered.contains(&vec![1, 2, 3]));
    }

    #[test]
    fn random_sampling_matches_dfs_verdicts() {
        let s = Scenario {
            variant: Explored::An,
            size: 4,
            producers: vec![singly(&[1]), singly(&[2])],
            consumers: vec![(2, 1)],
        };
        let r = s.run_random(200, 0xDEADBEEF);
        assert!(r.schedules > 1);
        assert_eq!(r.histories_checked, 200);
    }
}
