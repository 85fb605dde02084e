//! Engine tests of the park wake classes (see the `ctx` module docs).
//!
//! Every scenario runs twice — the poller registering its watches, and a
//! twin that polls every round — and the two reports must agree field for
//! field: that is the parking contract. The replay counts then pin the
//! exact round a wave woke in, which is where the rotation matters: with
//! two waves the visit order is `[0, 1]` in even rounds and `[1, 0]` in
//! odd ones, the scripted wave is wave 0 and the poller is wave 1, so a
//! write in an even round lands *before* the poller's position and a
//! write in an odd round *after* it.

use crate::{
    AbortReason, Buffer, Engine, FaultKind, FaultPlan, GpuConfig, Launch, RunReport, SimError,
    WaveCtx, WaveInfo, WaveKernel, WaveStatus,
};

/// `Front` of the two-word queue state the empty pollers watch.
const FRONT: usize = 0;
/// `Rear` of that state.
const REAR: usize = 1;
/// The counter word the non-zero pollers watch.
const COUNTER: usize = 2;

#[derive(Clone, Copy)]
enum Op {
    Write(usize, u32),
    Add(usize, u32),
}

/// What the poller (wave 1) does each cycle.
#[derive(Clone, Copy, PartialEq)]
enum Poll {
    /// Exit when `COUNTER` reads zero; watch it as "still non-zero".
    NonZero,
    /// As `NonZero`, but reading the counter round-stale and watching its
    /// exact stale value — wakes on changes that do not matter.
    NonZeroExact,
    /// Exit when `COUNTER` reads NON-zero, yet (wrongly) register the
    /// non-zero class on the zero it saw.
    MisusedNonZero,
    /// An AN-shaped dequeue: empty poll remembers `Front`'s version; a
    /// non-empty one charges the retry storm since then and takes all.
    Empty,
    /// A sentinel-shaped dequeue holding this ticket: exit once stale
    /// `Rear` has passed it; watch "ticket not yet issued".
    Ticket(u32),
}

enum Wave {
    /// One list of ops per work cycle, then exit. Never parks, so cycle
    /// `i` runs in round `i`.
    Script { cycles: Vec<Vec<Op>>, at: usize },
    Poller {
        poll: Poll,
        park: bool,
        front_seen: Option<u64>,
    },
}

struct Kernel {
    buf: Buffer,
    wave: Wave,
}

impl WaveKernel for Kernel {
    fn work_cycle(&mut self, ctx: &mut WaveCtx<'_>) -> WaveStatus {
        let buf = self.buf;
        match &mut self.wave {
            Wave::Script { cycles, at } => {
                ctx.charge_alu(1);
                for op in &cycles[*at] {
                    match *op {
                        Op::Write(i, v) => ctx.global_write(buf, i, v),
                        Op::Add(i, d) => {
                            ctx.atomic_add(buf, i, d);
                        }
                    }
                }
                *at += 1;
                if *at == cycles.len() {
                    WaveStatus::Done
                } else {
                    WaveStatus::Active
                }
            }
            Wave::Poller {
                poll: Poll::Empty,
                park,
                front_seen,
            } => {
                if let Some(v) = ctx.parked_front_version() {
                    *front_seen = Some(v);
                }
                let version = ctx.atomic_version(buf, FRONT);
                let delta = front_seen.map_or(0, |seen| version - seen);
                let front = ctx.global_read(buf, FRONT);
                let rear = ctx.global_read_stale(buf, REAR);
                if rear <= front {
                    ctx.count_queue_empty_retries(1);
                    *front_seen = Some(version);
                    if *park {
                        ctx.park_while_empty(buf, REAR, FRONT);
                    }
                    return WaveStatus::Active;
                }
                ctx.charge_cas_retry_storm(delta);
                ctx.atomic_cas(buf, FRONT, front, rear);
                WaveStatus::Done
            }
            Wave::Poller {
                poll: Poll::Ticket(ticket),
                park,
                ..
            } => {
                // Decided host-side, charged as the cached slot poll.
                ctx.charge_cached_access(1);
                if ctx.observe_stale(buf, REAR) > *ticket {
                    return WaveStatus::Done;
                }
                if *park {
                    ctx.park_while_at_most(buf, REAR, *ticket);
                }
                WaveStatus::Active
            }
            Wave::Poller { poll, park, .. } => {
                let zero = 0
                    == if *poll == Poll::NonZeroExact {
                        ctx.global_read_stale(buf, COUNTER)
                    } else {
                        ctx.global_read(buf, COUNTER)
                    };
                if zero != (*poll == Poll::MisusedNonZero) {
                    return WaveStatus::Done;
                }
                if *park {
                    match poll {
                        Poll::NonZeroExact => ctx.park_until_changed(buf, COUNTER),
                        _ => ctx.park_while_nonzero(buf, COUNTER),
                    }
                }
                WaveStatus::Active
            }
        }
    }
}

/// Runs wave 0 = `script`, wave 1 = `poll`er over `[Front, Rear, Counter]`
/// = `init`, with and without parking.
fn run_pair(
    init: [u32; 3],
    script: &[&[Op]],
    poll: Poll,
    plan: &FaultPlan,
) -> [Result<RunReport, SimError>; 2] {
    [true, false].map(|park| {
        let mut e = Engine::new(GpuConfig::test_tiny());
        let buf = e.memory_mut().alloc_init("state", &init);
        e.run_group(
            Launch::workgroups(2).with_max_rounds(64),
            &[2],
            plan,
            |_, info: WaveInfo| Kernel {
                buf,
                wave: if info.wave_id == 0 {
                    Wave::Script {
                        cycles: script.iter().map(|c| c.to_vec()).collect(),
                        at: 0,
                    }
                } else {
                    Wave::Poller {
                        poll,
                        park,
                        front_seen: None,
                    }
                },
            },
        )
        .map(|mut reports| reports.remove(0))
    })
}

/// The parked report, after checking it against the never-parked twin.
fn exact(init: [u32; 3], script: &[&[Op]], poll: Poll) -> RunReport {
    let [parked, polled] = run_pair(init, script, poll, &FaultPlan::EMPTY);
    let (parked, polled) = (parked.unwrap(), polled.unwrap());
    assert_eq!(parked.metrics, polled.metrics);
    assert_eq!(parked.per_cu_cycles, polled.per_cu_cycles);
    assert_eq!(parked.seconds, polled.seconds);
    assert_eq!(polled.profile.park_events, 0, "the twin never parks");
    parked
}

#[test]
fn nonzero_wakes_the_round_an_earlier_writer_zeroes_it() {
    // Round 4 is even: wave 0 writes before wave 1's position, so the
    // poller executes in rounds 0 (parks) and 4 (exits): 3 replays.
    let report = exact(
        [0, 0, 5],
        &[&[], &[], &[], &[], &[Op::Write(COUNTER, 0)], &[]],
        Poll::NonZero,
    );
    assert_eq!(report.profile.park_events, 1);
    assert_eq!(report.profile.park_replay_cycles, 3);
    assert_eq!(report.metrics.rounds, 6);
}

#[test]
fn nonzero_wakes_the_round_after_a_later_writer_zeroes_it() {
    // Round 5 is odd: the poller's position comes first and still sees
    // 5, so round 5 is a replay too and the exit is in round 6.
    let report = exact(
        [0, 0, 5],
        &[&[], &[], &[], &[], &[], &[Op::Write(COUNTER, 0)]],
        Poll::NonZero,
    );
    assert_eq!(report.profile.park_events, 1);
    assert_eq!(report.profile.park_replay_cycles, 5);
    assert_eq!(report.metrics.rounds, 7);
}

#[test]
fn nonzero_survives_nonzero_changes_where_an_exact_watch_wakes() {
    let script: &[&[Op]] = &[
        &[],
        &[Op::Write(COUNTER, 3)],
        &[Op::Add(COUNTER, 4)],
        &[],
        &[],
        &[],
        &[Op::Write(COUNTER, 0)],
    ];
    let class = exact([0, 0, 5], script, Poll::NonZero);
    assert_eq!(class.profile.park_events, 1, "5 -> 3 -> 7 never woke it");
    assert_eq!(class.profile.spurious_wakes, 0);
    assert_eq!(class.profile.park_replay_cycles, 5);

    // The same script under an exact-value watch (on a stale read, so the
    // exit is one round later): two needless wakes, each re-parking on
    // the identical cycle.
    let value = exact([0, 0, 5], script, Poll::NonZeroExact);
    assert_eq!(value.metrics.rounds, class.metrics.rounds + 1);
    assert_eq!(value.profile.park_events, 3);
    assert_eq!(value.profile.spurious_wakes, 2);
}

#[test]
fn class_watch_outside_its_class_degrades_to_an_exact_watch() {
    // The poller waits for the counter to become non-zero but registers
    // the non-zero class on the zero it read: that must neither park
    // forever nor wake every round.
    let report = exact(
        [0, 0, 0],
        &[&[], &[], &[], &[], &[Op::Write(COUNTER, 9)], &[]],
        Poll::MisusedNonZero,
    );
    assert_eq!(report.profile.park_events, 1);
    assert_eq!(report.profile.park_replay_cycles, 3);
}

#[test]
fn empty_holds_while_both_ends_advance_and_wakes_when_rear_passes_front() {
    let report = exact(
        [0, 0, 0],
        &[
            &[],
            &[],
            // A token comes and goes within one round: Front mutates,
            // the stale Rear never passes it.
            &[Op::Add(REAR, 1), Op::Add(FRONT, 1)],
            &[],
            &[],
            &[Op::Add(REAR, 2)],
            &[],
        ],
        Poll::Empty,
    );
    // Executed in round 0 (parks) and round 6 (stale Rear 3 > Front 1).
    assert_eq!(report.profile.park_events, 1);
    assert_eq!(report.profile.park_replay_cycles, 5);
    assert_eq!(report.metrics.cas_attempts, 1);
    assert_eq!(report.metrics.cas_failures, 0, "no mutation since round 5");
}

#[test]
fn empty_stays_parked_when_an_earlier_wave_takes_the_token_first() {
    let report = exact(
        [0, 0, 0],
        &[
            &[],
            &[],
            &[],
            &[],
            &[],
            &[Op::Add(REAR, 1)],
            // Round 6 is even: Front catches up before the poller's
            // position, so the queue is empty again when it looks.
            &[Op::Add(FRONT, 1)],
            &[],
            &[],
            &[Op::Add(REAR, 3)],
            // Round 10: one of the three is taken first; two remain.
            &[Op::Add(FRONT, 1)],
        ],
        Poll::Empty,
    );
    assert_eq!(report.profile.park_events, 1);
    assert_eq!(report.profile.park_replay_cycles, 9);
    // The storm counts Front's mutations since the poller's position in
    // round 9 — one — not the two since it parked: the version hand-back.
    assert_eq!(report.metrics.cas_attempts, 2);
    assert_eq!(report.metrics.cas_failures, 1);
}

#[test]
fn empty_wakes_in_an_odd_round_before_a_later_wave_takes_the_token() {
    // Same shape, one round earlier: in round 5 the poller comes first
    // and sees the token wave 0 is about to take.
    let report = exact(
        [0, 0, 0],
        &[
            &[],
            &[],
            &[],
            &[],
            &[Op::Add(REAR, 1)],
            &[Op::Add(FRONT, 1)],
        ],
        Poll::Empty,
    );
    assert_eq!(report.profile.park_replay_cycles, 4);
    assert_eq!(report.metrics.cas_attempts, 1);
}

#[test]
fn at_most_sleeps_through_rear_reaching_the_ticket_and_wakes_once_it_passes() {
    let report = exact(
        [0, 0, 0],
        &[
            &[],
            &[Op::Add(REAR, 2)],
            // Rear = 3 = the ticket: slots 0..=2 filled, slot 3 not yet.
            &[Op::Add(REAR, 1)],
            &[],
            // Round 4: passes the ticket, stale-visible from round 5.
            &[Op::Add(REAR, 2)],
            &[],
        ],
        Poll::Ticket(3),
    );
    assert_eq!(report.profile.park_events, 1);
    assert_eq!(report.profile.spurious_wakes, 0);
    // Executed in round 0 (parks) and round 5 (exits): 4 replays.
    assert_eq!(report.profile.park_replay_cycles, 4);
    assert_eq!(report.metrics.rounds, 6);
}

#[test]
fn arming_a_poison_on_a_watched_word_faults_the_parked_wave_in_that_round() {
    let plan = FaultPlan::new().poison(3, "state", COUNTER);
    let idle: &[Op] = &[];
    let [parked, polled] = run_pair([0, 0, 5], &[idle; 8], Poll::NonZero, &plan);
    assert_eq!(parked.as_ref().unwrap_err(), polled.as_ref().unwrap_err());
    assert_eq!(
        parked.unwrap_err(),
        SimError::KernelAbort {
            reason: AbortReason::InjectedFault {
                kind: FaultKind::MemPoison,
                wave: 1,
                round: 3,
            },
            round: 3,
        }
    );
}
