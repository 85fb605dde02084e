//! Deterministic interleaving explorer for the host queues.
//!
//! A scenario is a set of [`Program`]s (threads) sharing a queue. Each
//! program exposes single *steps* — one shared-memory access per step,
//! taken by the host core's own operation machines — and the explorer
//! plays scheduler: at every point it picks which runnable program steps
//! next.
//!
//! Two drivers:
//!
//! * [`explore`] — depth-first enumeration of distinct schedules via an
//!   odometer over scheduling choices (loom-style, without the loom
//!   dependency): replay a choice prefix, run first-runnable after it,
//!   record the width of every choice point, then backtrack to the
//!   deepest point with an untried alternative.
//! * [`explore_random`] — uniform random schedules from a seeded
//!   SplitMix64 stream, deduplicated, for cheap extra coverage beyond
//!   the DFS budget (and for the `PTQ_SCHEDULES` deep runs in CI).
//!
//! Every completed schedule yields a [`History`](super::history::History)
//! that the caller checks for linearizability.

use super::history::{History, Recorder};
use std::collections::HashSet;

/// One thread of a scenario: a small state machine over shared state `S`.
pub trait Program<S> {
    /// All work finished?
    fn done(&self) -> bool;
    /// Can this program take a step right now? Blocked programs (e.g. a
    /// consumer spinning on an unpublished slot) return `false` so the
    /// explorer never schedules a no-op step; they become runnable again
    /// once another thread changes the state they wait on.
    fn ready(&self, shared: &S) -> bool {
        let _ = shared;
        true
    }
    /// Executes exactly one shared-memory step, recording any operation
    /// that completed.
    fn step(&mut self, shared: &S, rec: &mut Recorder);
}

/// Statistics from an [`explore`] run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ExploreStats {
    /// Distinct complete schedules executed.
    pub schedules: usize,
    /// `true` when the whole schedule space was enumerated (the budget
    /// was not the reason exploration stopped).
    pub exhausted: bool,
    /// Longest schedule seen (steps).
    pub max_depth: usize,
    /// Distinct execution states visited: nodes of the schedule tree (the
    /// search is stateless, so a state is a distinct choice prefix).
    pub states: usize,
}

/// Runs one schedule to completion. `choose(k, width)` picks the runnable
/// program for step `k` from `width` candidates; the choice index is into
/// the *runnable subset*, in program order. Returns the recorded history,
/// the final shared state, the realized choice vector and the width of
/// every choice point.
///
/// # Panics
/// Panics on deadlock: some program is not done, yet nothing is runnable.
/// The Base/An consumer data-waits cannot deadlock by construction (the
/// producer owning the awaited slot is always runnable), so a deadlock
/// here is a real queue bug — the explorer treats it as fatal.
fn run_one<S, M, C>(mk: M, mut choose: C) -> (History, S, Vec<usize>, Vec<usize>)
where
    M: FnOnce() -> (S, Vec<Box<dyn Program<S>>>),
    C: FnMut(usize, usize) -> usize,
{
    let (shared, mut programs) = mk();
    let mut rec = Recorder::default();
    let mut choices = Vec::new();
    let mut widths = Vec::new();
    loop {
        let runnable: Vec<usize> = (0..programs.len())
            .filter(|&i| !programs[i].done() && programs[i].ready(&shared))
            .collect();
        if runnable.is_empty() {
            assert!(
                programs.iter().all(|p| p.done()),
                "explorer deadlock after choices {choices:?}: no runnable program"
            );
            break;
        }
        let width = runnable.len();
        let pick = choose(choices.len(), width);
        debug_assert!(pick < width);
        choices.push(pick);
        widths.push(width);
        programs[runnable[pick]].step(&shared, &mut rec);
        rec.advance();
    }
    (rec.into_history(), shared, choices, widths)
}

/// Depth-first enumeration of distinct schedules, checking each one.
///
/// `mk` builds a fresh scenario (shared state + programs) per schedule;
/// `check(history, shared)` validates the completed run (typically via
/// [`super::history::check_linearizable`], panicking or asserting on
/// failure). Stops after `budget` schedules or when the space is
/// exhausted, whichever comes first.
pub fn explore<S, M, C>(mut mk: M, budget: usize, mut check: C) -> ExploreStats
where
    M: FnMut() -> (S, Vec<Box<dyn Program<S>>>),
    C: FnMut(&History, &S),
{
    let mut stats = ExploreStats::default();
    // The odometer: forced prefix for the next schedule.
    let mut prefix: Vec<usize> = Vec::new();
    while stats.schedules < budget {
        let p = prefix.clone();
        let (history, shared, choices, widths) =
            run_one(&mut mk, |k, _width| if k < p.len() { p[k] } else { 0 });
        stats.schedules += 1;
        stats.max_depth = stats.max_depth.max(choices.len());
        // The forced prefix, but for its last choice, was visited before.
        stats.states += choices.len() - prefix.len().saturating_sub(1);
        check(&history, &shared);
        // Backtrack: bump the deepest choice with an untried alternative.
        let mut next = None;
        for i in (0..choices.len()).rev() {
            if choices[i] + 1 < widths[i] {
                next = Some(i);
                break;
            }
        }
        match next {
            Some(i) => {
                prefix = choices[..i].to_vec();
                prefix.push(choices[i] + 1);
            }
            None => {
                stats.exhausted = true;
                break;
            }
        }
    }
    stats
}

/// SplitMix64 step — the crate-wide seeded PRNG idiom (std-only).
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Random schedule sampling: `samples` seeded-random schedules, checked
/// like [`explore`]. Returns the number of *distinct* schedules executed
/// (duplicates are run and checked too — cheap — but counted once).
pub fn explore_random<S, M, C>(mut mk: M, samples: usize, seed: u64, mut check: C) -> usize
where
    M: FnMut() -> (S, Vec<Box<dyn Program<S>>>),
    C: FnMut(&History, &S),
{
    let mut rng = seed;
    let mut seen: HashSet<Vec<usize>> = HashSet::new();
    for _ in 0..samples {
        let (history, shared, choices, _widths) = run_one(&mut mk, |_k, width| {
            (splitmix64(&mut rng) % width as u64) as usize
        });
        check(&history, &shared);
        seen.insert(choices);
    }
    seen.len()
}

/// Schedule budget for the DFS explorer: `PTQ_SCHEDULES` when set (the
/// CI `verify-deep` job raises it), else `default`.
pub fn schedule_budget(default: usize) -> usize {
    std::env::var("PTQ_SCHEDULES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::history::Op;
    use std::sync::atomic::{AtomicU32, Ordering};

    /// Toy program: increments a shared counter `steps` times.
    struct Incr {
        left: usize,
    }

    impl Program<AtomicU32> for Incr {
        fn done(&self) -> bool {
            self.left == 0
        }
        fn step(&mut self, shared: &AtomicU32, rec: &mut Recorder) {
            shared.fetch_add(1, Ordering::Relaxed);
            self.left -= 1;
            rec.atomic(0, Op::Push { token: 0, ok: true });
        }
    }

    fn mk(n: usize, steps: usize) -> (AtomicU32, Vec<Box<dyn Program<AtomicU32>>>) {
        let programs: Vec<Box<dyn Program<AtomicU32>>> = (0..n)
            .map(|_| Box::new(Incr { left: steps }) as Box<dyn Program<AtomicU32>>)
            .collect();
        (AtomicU32::new(0), programs)
    }

    #[test]
    fn dfs_enumerates_the_exact_interleaving_count() {
        // 2 threads × 2 steps: C(4,2) = 6 interleavings.
        let mut total = 0;
        let stats = explore(
            || mk(2, 2),
            1_000,
            |h, shared| {
                total += 1;
                assert_eq!(h.ops.len(), 4);
                assert_eq!(shared.load(Ordering::Relaxed), 4);
            },
        );
        assert_eq!(stats.schedules, 6);
        assert_eq!(total, 6);
        // The schedule tree below the root: 2 + 4 + 6 + 6 nodes.
        assert_eq!(stats.states, 18);
        assert!(stats.exhausted);
        assert_eq!(stats.max_depth, 4);
    }

    #[test]
    fn dfs_three_threads_multinomial() {
        // 3 threads × 2 steps: 6!/(2!2!2!) = 90 interleavings.
        let stats = explore(|| mk(3, 2), 10_000, |_, _| {});
        assert_eq!(stats.schedules, 90);
        assert!(stats.exhausted);
    }

    #[test]
    fn dfs_budget_stops_early_without_exhausting() {
        let stats = explore(|| mk(3, 3), 10, |_, _| {});
        assert_eq!(stats.schedules, 10);
        assert!(!stats.exhausted);
    }

    #[test]
    fn random_sampling_is_deterministic_per_seed() {
        let a = explore_random(|| mk(2, 3), 50, 42, |_, _| {});
        let b = explore_random(|| mk(2, 3), 50, 42, |_, _| {});
        assert_eq!(a, b);
        assert!(a > 1, "50 samples of C(6,3)=20 schedules find several");
        let c = explore_random(|| mk(2, 3), 50, 7, |_, _| {});
        // Different seed: almost surely a different (but valid) count.
        assert!(c > 1 && c <= 20);
    }

    #[test]
    fn blocked_programs_are_never_scheduled() {
        /// Consumer that is only ready once the counter is nonzero.
        struct Gated {
            fired: bool,
        }
        impl Program<AtomicU32> for Gated {
            fn done(&self) -> bool {
                self.fired
            }
            fn ready(&self, shared: &AtomicU32) -> bool {
                shared.load(Ordering::Relaxed) > 0
            }
            fn step(&mut self, shared: &AtomicU32, _rec: &mut Recorder) {
                assert!(shared.load(Ordering::Relaxed) > 0, "scheduled while gated");
                self.fired = true;
            }
        }
        let stats = explore(
            || {
                let programs: Vec<Box<dyn Program<AtomicU32>>> =
                    vec![Box::new(Incr { left: 1 }), Box::new(Gated { fired: false })];
                (AtomicU32::new(0), programs)
            },
            100,
            |_, _| {},
        );
        // Only one schedule exists: Incr must go first.
        assert_eq!(stats.schedules, 1);
        assert!(stats.exhausted);
    }

    #[test]
    #[should_panic(expected = "explorer deadlock")]
    fn deadlock_panics_with_context() {
        struct Stuck;
        impl Program<AtomicU32> for Stuck {
            fn done(&self) -> bool {
                false
            }
            fn ready(&self, _shared: &AtomicU32) -> bool {
                false
            }
            fn step(&mut self, _shared: &AtomicU32, _rec: &mut Recorder) {}
        }
        explore(
            || {
                let programs: Vec<Box<dyn Program<AtomicU32>>> = vec![Box::new(Stuck)];
                (AtomicU32::new(0), programs)
            },
            1,
            |_, _| {},
        );
    }

    #[test]
    fn schedule_budget_reads_env() {
        // Not set in the test environment unless CI exports it.
        let d = schedule_budget(123);
        if std::env::var("PTQ_SCHEDULES").is_err() {
            assert_eq!(d, 123);
        }
    }
}
