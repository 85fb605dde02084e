//! Queue-conformance harness: one shared scenario matrix, every host
//! queue variant.
//!
//! The explorer ([`super::scenarios`]) proves linearizability over small
//! exhaustively-interleaved schedules; this harness is the complementary
//! *real-thread* check: each variant sits behind a [`ConformingQueue`]
//! adapter — one per reservation discipline, generic over the storage and
//! parameterized by batch width, plus the `MUTEX` strawman — and is
//! driven through the same seven scenarios —
//!
//! 1. **Single-thread FIFO** — tokens come back in insertion order.
//! 2. **Batch boundary crossing** — multi-token batches land intact (for
//!    segmented variants the batches straddle segment boundaries, so the
//!    run must observe segment appends; bounded variants must observe
//!    none).
//! 3. **MPMC conservation** — racing producers and consumers neither
//!    lose nor duplicate a token; retry-free variants additionally
//!    finish with zero CAS attempts and zero retries.
//! 4. **Overflow behaviour** — bounded variants reject exactly the
//!    overflow (the paper's queue-full abort), segmented variants accept
//!    everything by appending segments.
//! 5. **Reset-reuse** — a drained, reset queue serves a second full
//!    round (for bounded variants this re-arms the *lifetime* capacity).
//! 6. **Sentinel token** — a batch holding the `dna` sentinel is refused
//!    (a panic, or the typed error of the `try_` surface) before anything
//!    is reserved: counters and occupancy are untouched and the queue
//!    still works.
//! 7. **Empty batch** — enqueueing nothing reserves nothing and counts
//!    nothing.
//!
//! A violation panics with the variant label and scenario name; a clean
//! run returns a [`ConformanceReport`] per variant. The suite runs in CI
//! (`release-suites` job) and in `tests/linearizability.rs`.
//!
//! Beside the matrix, [`check_segment_memory_bound`] makes the segmented
//! variants' memory bound executable: metadata and fresh allocations
//! follow live occupancy through a million-token churn, not lifetime
//! enqueues.

use crate::host::{Afa, Cas, MutexQueue, Queue, Reserve, StatsSnapshot, Storage};
use crate::host::{Bounded, Segmented};
use crate::DNA;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Uniform adapter surface the conformance matrix drives. Adapters wrap
/// the production queues without altering their protocols: retry-free
/// dequeues go through real ticket reservation and bounded polling, CAS
/// dequeues through the retrying pop paths.
pub trait ConformingQueue: Send + Sync {
    /// Variant label for failure messages (matches `Variant::label`
    /// where a device twin exists).
    fn label(&self) -> &'static str;

    /// Lifetime token capacity between resets (every bounded variant,
    /// `MUTEX` included, follows the paper's non-wrapping discipline),
    /// or `None` for segmented (unbounded) variants.
    fn capacity_bound(&self) -> Option<usize>;

    /// Whether the variant claims the retry-free property (zero CAS,
    /// zero retry loops) — asserted after the MPMC scenario.
    fn is_retry_free(&self) -> bool;

    /// Whether the `dna` sentinel is reserved (not a valid token).
    fn reserves_sentinel(&self) -> bool {
        true
    }

    /// Offers a batch; returns how many tokens the queue accepted.
    fn enqueue(&self, tokens: &[u32]) -> usize;

    /// Non-blocking dequeue attempt.
    fn dequeue(&self) -> Option<u32>;

    /// Published tokens not yet claimed.
    fn len_hint(&self) -> u64;

    /// Operation counters of the wrapped queue.
    fn stats(&self) -> StatsSnapshot;

    /// Restores the initial empty state (exclusive access).
    fn reset(&mut self);
}

/// Constructs a fresh adapter sized for roughly `capacity` lifetime
/// tokens (segmented variants derive a small per-segment capacity from
/// it so the matrix forces boundary crossings).
pub type QueueFactory = fn(usize) -> Box<dyn ConformingQueue>;

/// What one variant's clean pass through the matrix observed.
#[derive(Clone, Debug)]
pub struct ConformanceReport {
    /// Variant label.
    pub label: &'static str,
    /// Scenario names executed (all passed, or the run panicked).
    pub cases: Vec<&'static str>,
    /// Segment appends observed across the matrix (zero for bounded
    /// variants, non-zero for segmented ones — both asserted).
    pub segment_appends: u64,
}

// ------------------------------------------------------------ adapters --

/// Tokens per queue operation: the whole offer, or one (BASE, SEG-RF).
#[derive(Clone, Copy, PartialEq, Eq)]
enum Width {
    Batch,
    One,
}

impl Width {
    /// Offers `tokens` in operations of this width through `put`, which
    /// reports whether its batch was accepted.
    fn offer(self, tokens: &[u32], put: impl Fn(&[u32]) -> bool) -> usize {
        match self {
            Width::Batch if put(tokens) => tokens.len(),
            Width::Batch => 0,
            Width::One => (tokens.iter())
                .filter(|&t| put(std::slice::from_ref(t)))
                .count(),
        }
    }
}

fn bound_of<S: Storage>(storage: &S) -> Option<usize> {
    (!S::GROWS).then(|| storage.materialized() as usize)
}

/// The CAS discipline: all-or-nothing batch pushes, pops that never pass
/// `Rear`.
struct CasAdapter<S: Storage> {
    label: &'static str,
    width: Width,
    q: Queue<Cas, S>,
}

impl<S: Storage + Send + Sync> ConformingQueue for CasAdapter<S> {
    fn label(&self) -> &'static str {
        self.label
    }
    fn capacity_bound(&self) -> Option<usize> {
        bound_of(self.q.storage())
    }
    fn is_retry_free(&self) -> bool {
        false
    }
    fn enqueue(&self, tokens: &[u32]) -> usize {
        self.width.offer(tokens, |batch| self.q.put(batch).is_ok())
    }
    fn dequeue(&self) -> Option<u32> {
        let mut popped = None;
        self.q.pop(1, |token| popped = Some(token));
        popped
    }
    fn len_hint(&self) -> u64 {
        self.q.len_hint()
    }
    fn stats(&self) -> StatsSnapshot {
        self.q.stats()
    }
    fn reset(&mut self) {
        self.q.reset();
    }
}

/// The AFA discipline. Enqueues use the pre-checked `try_` surface: a
/// visibly over-large batch is refused without burning the `Rear`
/// reservation, so the matrix can keep using a bounded queue after a
/// rejection. Dequeues poll shared tickets: a reserved-but-unserved
/// ticket stays pending (shared, so any thread can poll it — no token is
/// stranded with an idle caller) and a new ticket is reserved only when
/// none is pending.
struct AfaAdapter<S: Storage> {
    label: &'static str,
    width: Width,
    q: Queue<Afa, S>,
    pending: Mutex<VecDeque<u64>>,
}

impl<S: Storage + Send + Sync> ConformingQueue for AfaAdapter<S>
where
    S::Overflow: Into<crate::host::EnqueueError>,
{
    fn label(&self) -> &'static str {
        self.label
    }
    fn capacity_bound(&self) -> Option<usize> {
        bound_of(self.q.storage())
    }
    fn is_retry_free(&self) -> bool {
        true
    }
    fn enqueue(&self, tokens: &[u32]) -> usize {
        (self.width).offer(tokens, |batch| self.q.try_enqueue_batch(batch).is_ok())
    }
    fn dequeue(&self) -> Option<u32> {
        let mut pending = self.pending.lock().unwrap();
        if pending.is_empty() {
            pending.extend(self.q.claim(1));
        }
        let &slot = pending.front().expect("just ensured non-empty");
        let token = self.q.take(slot).token;
        if token.is_some() {
            pending.pop_front();
        }
        token
    }
    fn len_hint(&self) -> u64 {
        self.q.len_hint()
    }
    fn stats(&self) -> StatsSnapshot {
        self.q.stats()
    }
    fn reset(&mut self) {
        self.pending.get_mut().unwrap().clear();
        self.q.reset();
    }
}

struct MutexAdapter {
    q: MutexQueue,
}

impl ConformingQueue for MutexAdapter {
    fn label(&self) -> &'static str {
        "MUTEX"
    }
    fn capacity_bound(&self) -> Option<usize> {
        Some(self.q.capacity())
    }
    fn is_retry_free(&self) -> bool {
        false
    }
    fn reserves_sentinel(&self) -> bool {
        false
    }
    fn enqueue(&self, tokens: &[u32]) -> usize {
        match self.q.push_batch(tokens) {
            Ok(()) => tokens.len(),
            Err(_) => 0,
        }
    }
    fn dequeue(&self) -> Option<u32> {
        let mut out = Vec::with_capacity(1);
        self.q.pop_batch(&mut out, 1);
        out.pop()
    }
    fn len_hint(&self) -> u64 {
        self.q.len() as u64
    }
    fn stats(&self) -> StatsSnapshot {
        self.q.stats()
    }
    fn reset(&mut self) {
        self.q.reset();
    }
}

/// Segment size derived from the nominal capacity: small enough that
/// every matrix scenario crosses segment boundaries.
fn seg_cap_for(capacity: usize) -> usize {
    (capacity / 8).max(2)
}

fn cas<S: Storage + Send + Sync>(
    label: &'static str,
    width: Width,
    size: usize,
) -> Box<dyn ConformingQueue> {
    let q = Queue::new(size);
    Box::new(CasAdapter::<S> { label, width, q })
}

fn afa<S: Storage + Send + Sync>(
    label: &'static str,
    width: Width,
    size: usize,
) -> Box<dyn ConformingQueue>
where
    S::Overflow: Into<crate::host::EnqueueError>,
{
    let (q, pending) = (Queue::new(size), Mutex::default());
    Box::new(AfaAdapter::<S> {
        label,
        width,
        q,
        pending,
    })
}

/// The full roster: every host queue variant, bounded and segmented —
/// each a (discipline, storage, width) row over the one core.
pub fn conformance_suite() -> Vec<QueueFactory> {
    vec![
        |cap| cas::<Bounded>("BASE", Width::One, cap),
        |cap| cas::<Bounded>("AN", Width::Batch, cap),
        |cap| {
            Box::new(MutexAdapter {
                q: MutexQueue::new(cap),
            })
        },
        |cap| afa::<Bounded>("RF/AN", Width::Batch, cap),
        |cap| afa::<Segmented>("SEG-RF/AN", Width::Batch, seg_cap_for(cap)),
        |cap| afa::<Segmented>("SEG-RF", Width::One, seg_cap_for(cap)),
        |cap| cas::<Segmented>("SEG-AN", Width::Batch, seg_cap_for(cap)),
    ]
}

// ------------------------------------------------------------ scenarios --
//
// A case asserts without naming the variant: [`run_conformance`] re-raises
// a violation with the variant label and case name in front.

fn drain_exact(q: &dyn ConformingQueue, n: usize) -> Vec<u32> {
    let mut got = Vec::with_capacity(n);
    let mut misses = 0usize;
    while got.len() < n {
        match q.dequeue() {
            Some(v) => {
                got.push(v);
                misses = 0;
            }
            None => {
                misses += 1;
                let served = got.len();
                assert!(misses < 10_000, "starved after {served} of {n} tokens");
            }
        }
    }
    got
}

fn case_single_thread_fifo(q: &mut dyn ConformingQueue, _capacity: usize) {
    const N: u32 = 40;
    for t in 0..N {
        assert_eq!(q.enqueue(&[t]), 1, "token {t} refused");
    }
    let want: Vec<u32> = (0..N).collect();
    assert_eq!(drain_exact(q, want.len()), want, "out-of-order delivery");
    assert_eq!(q.dequeue(), None, "phantom token");
}

fn case_batch_boundary(q: &mut dyn ConformingQueue, _capacity: usize) {
    let mut offered = Vec::new();
    for len in [7u32, 9, 5, 11, 1, 3] {
        let first = 100 + offered.len() as u32;
        let batch: Vec<u32> = (first..first + len).collect();
        assert_eq!(q.enqueue(&batch), batch.len(), "{len}-token batch refused");
        offered.extend(batch);
    }
    let got = drain_exact(q, offered.len());
    assert_eq!(got, offered, "order or content lost");
    // Segmented batches straddle segment boundaries; a bounded ring has
    // nothing to append.
    let appended = q.stats().segment_appends > 0;
    let segmented = q.capacity_bound().is_none();
    assert_eq!(appended, segmented, "segment appends vs. storage kind");
}

fn case_mpmc_conservation(q: &mut dyn ConformingQueue, _capacity: usize) {
    const PRODUCERS: u32 = 3;
    const CONSUMERS: usize = 3;
    const PER: u32 = 200;
    const TOTAL: usize = (PRODUCERS * PER) as usize;
    let q = &*q;
    let taken = AtomicUsize::new(0);
    let collected: Mutex<Vec<u32>> = Mutex::new(Vec::with_capacity(TOTAL));
    std::thread::scope(|s| {
        for p in 0..PRODUCERS {
            s.spawn(move || {
                let tokens: Vec<u32> = (0..PER).map(|i| (p << 16) | i).collect();
                for chunk in tokens.chunks(17) {
                    assert_eq!(q.enqueue(chunk), chunk.len(), "batch refused");
                }
            });
        }
        for _ in 0..CONSUMERS {
            s.spawn(|| {
                let mut got = Vec::new();
                while taken.load(Ordering::Relaxed) < TOTAL {
                    if let Some(v) = q.dequeue() {
                        got.push(v);
                        taken.fetch_add(1, Ordering::Relaxed);
                    } else {
                        std::thread::yield_now();
                    }
                }
                collected.lock().unwrap().extend(got);
            });
        }
    });
    let mut got = collected.into_inner().unwrap();
    got.sort_unstable();
    let want: Vec<u32> = (0..PRODUCERS)
        .flat_map(|p| (0..PER).map(move |i| (p << 16) | i))
        .collect();
    assert_eq!(got, want, "token conservation violated");
    if q.is_retry_free() {
        let s = q.stats();
        assert_eq!(s.cas_attempts, 0, "retry-free variant issued CAS");
        assert_eq!(s.total_retries(), 0, "retry-free variant retried");
    }
}

fn case_overflow(q: &mut dyn ConformingQueue, capacity: usize) {
    let offered = capacity + capacity / 2;
    let mut accepted = 0usize;
    for chunk in (0..offered as u32).collect::<Vec<_>>().chunks(capacity / 2) {
        accepted += q.enqueue(chunk);
    }
    // Batches are sized to divide the bound, so a bounded variant accepts
    // exactly its capacity — overflow rejects, nothing more (the paper's
    // queue-full abort, minus the abort); a segmented one appends
    // segments and accepts everything.
    let want = q.capacity_bound().unwrap_or(offered);
    assert_eq!(accepted, want, "accepted tokens vs. the capacity bound");
    let got = drain_exact(q, accepted);
    let prefix: Vec<u32> = (0..accepted as u32).collect();
    assert_eq!(got, prefix, "accepted prefix corrupted");
}

fn case_reset_reuse(q: &mut dyn ConformingQueue, capacity: usize) {
    let round: Vec<u32> = (0..capacity as u32).collect();
    assert_eq!(q.enqueue(&round), round.len());
    assert_eq!(drain_exact(q, round.len()), round);
    q.reset();
    // Round 2 re-offers the full lifetime budget: only a real reset
    // (rewound tickets, restored sentinels, re-pooled segments) can
    // serve it.
    let round2: Vec<u32> = (500..500 + capacity as u32).collect();
    let accepted = q.enqueue(&round2);
    assert_eq!(accepted, round2.len(), "lifetime budget not re-armed");
    assert_eq!(drain_exact(q, round2.len()), round2, "stale state leaked");
}

fn case_sentinel_token(q: &mut dyn ConformingQueue, _capacity: usize) {
    assert_eq!(q.enqueue(&[1, 2]), 2);
    let before = (q.stats(), q.len_hint());
    // A panic (the core's sentinel rule) and a refusal (the `try_`
    // surface's typed error) both count as "not accepted".
    let accepted = catch_unwind(AssertUnwindSafe(|| q.enqueue(&[DNA, 3]))).unwrap_or(0);
    if !q.reserves_sentinel() {
        assert_eq!(accepted, 2, "any u32 is a token here");
        return;
    }
    // A width-1 `try_` surface goes on to accept the valid token.
    assert!(accepted <= 1, "stored the sentinel");
    let len = before.1 + accepted as u64;
    assert_eq!(q.len_hint(), len, "a refused token reserved a slot");
    if accepted == 0 {
        assert_eq!(q.stats(), before.0, "a refused batch touched the counters");
    }
    assert_eq!(drain_exact(q, 2 + accepted), [1, 2, 3][..2 + accepted]);
}

fn case_empty_batch(q: &mut dyn ConformingQueue, _capacity: usize) {
    assert_eq!(q.enqueue(&[7]), 1);
    let before = (q.stats(), q.len_hint());
    assert_eq!(q.enqueue(&[]), 0);
    let after = (q.stats(), q.len_hint());
    assert_eq!(after, before, "enqueueing nothing is not a no-op");
    assert_eq!(drain_exact(q, 1), [7]);
}

/// One row of the matrix: name, nominal capacity, body.
type Case = (&'static str, usize, fn(&mut dyn ConformingQueue, usize));

/// The matrix, in the order of the module docs.
const MATRIX: [Case; 7] = [
    ("single-thread-fifo", 64, case_single_thread_fifo),
    ("batch-boundary", 64, case_batch_boundary),
    ("mpmc-conservation", 2048, case_mpmc_conservation),
    ("overflow", 16, case_overflow),
    ("reset-reuse", 32, case_reset_reuse),
    ("sentinel-token", 16, case_sentinel_token),
    ("empty-batch", 16, case_empty_batch),
];

/// The message of a caught violation.
fn why(cause: &(dyn std::any::Any + Send)) -> &str {
    (cause.downcast_ref::<String>().map(String::as_str))
        .or_else(|| cause.downcast_ref::<&str>().copied())
        .unwrap_or("violation")
}

/// Runs one variant through the whole matrix, a fresh queue per case;
/// panics on any violation.
pub fn run_conformance(mk: QueueFactory) -> ConformanceReport {
    let mut report = ConformanceReport {
        label: "",
        cases: Vec::new(),
        segment_appends: 0,
    };
    for (case, capacity, body) in MATRIX {
        let mut q = mk(capacity);
        report.label = q.label();
        if let Err(cause) = catch_unwind(AssertUnwindSafe(|| body(q.as_mut(), capacity))) {
            panic!("[{}] {case}: {}", report.label, why(&cause));
        }
        report.segment_appends += q.stats().segment_appends;
        report.cases.push(case);
    }
    report
}

// --------------------------------------------------------- memory bound --

/// Segments kept live through the churn. A power of two, so a directory
/// that starts at one entry finishes growing within the first `LIVE`
/// installs.
const LIVE: u64 = 8;
/// Tokens moved per configuration.
const CHURN: u64 = 1_000_000;

/// Fills `LIVE` segments, then drains the oldest and installs the next
/// until `CHURN` tokens went through: never more than `LIVE` segments
/// live, FIFO throughout.
fn churn<R: Reserve>(width: Width, seg_cap: usize) {
    let q = Queue::<R, Segmented>::new(seg_cap);
    let per_op = match width {
        Width::Batch => seg_cap,
        Width::One => 1,
    };
    let mut rear = 0u32;
    let mut fill_segment = || {
        let tokens: Vec<u32> = (rear..rear + seg_cap as u32).collect();
        assert_eq!(width.offer(&tokens, |batch| q.put(batch).is_ok()), seg_cap);
        rear += seg_cap as u32;
    };
    (0..LIVE).for_each(|_| fill_segment());
    let (meta, mut front) = (q.meta_bytes(), 0u32);
    assert_eq!(q.fresh_allocs(), LIVE, "one storage per live segment");
    while u64::from(front) < CHURN {
        for _ in 0..seg_cap / per_op {
            q.pop(per_op, |token| {
                assert_eq!(token, front, "out-of-order delivery");
                front += 1;
            });
        }
        fill_segment();
    }
    assert_eq!(q.live_segments(), LIVE);
    assert_eq!(q.meta_bytes(), meta, "metadata grew with lifetime enqueues");
    assert!(q.fresh_allocs() <= LIVE + 1, "storage grew with lifetime");
    assert_eq!(q.stats().segment_appends, u64::from(rear) / seg_cap as u64);
}

/// The memory bound of "Memory Bounds for Concurrent Bounded Queues" as an
/// assertion on all three segmented variants: after a 10⁶-token churn at
/// no more than `k` live segments, metadata bytes equal their value after
/// the first `k` installs and at most `k + 1` storages were ever
/// allocated. Returns the configurations checked; panics on a violation.
pub fn check_segment_memory_bound() -> usize {
    /// A segmented variant: its label and its churn at one `seg_cap`.
    type Variant = (&'static str, fn(usize));
    let variants: [Variant; 3] = [
        ("SEG-RF/AN", |seg_cap| churn::<Afa>(Width::Batch, seg_cap)),
        ("SEG-RF", |seg_cap| churn::<Afa>(Width::One, seg_cap)),
        ("SEG-AN", |seg_cap| churn::<Cas>(Width::Batch, seg_cap)),
    ];
    let mut checked = 0;
    for (label, run) in variants {
        for seg_cap in [2, 3, 64] {
            if let Err(cause) = catch_unwind(|| run(seg_cap)) {
                panic!("[{label}] memory-bound, seg_cap {seg_cap}: {}", why(&cause));
            }
            checked += 1;
        }
    }
    checked
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn segmented_metadata_follows_live_occupancy_not_lifetime() {
        assert_eq!(check_segment_memory_bound(), 9);
    }

    #[test]
    fn every_variant_passes_the_matrix() {
        let mut labels = Vec::new();
        for mk in conformance_suite() {
            let report = run_conformance(mk);
            assert_eq!(report.cases.len(), 7, "{}: matrix incomplete", report.label);
            labels.push(report.label);
        }
        assert_eq!(
            labels,
            vec![
                "BASE",
                "AN",
                "MUTEX",
                "RF/AN",
                "SEG-RF/AN",
                "SEG-RF",
                "SEG-AN"
            ]
        );
    }

    #[test]
    fn segmented_variants_append_and_bounded_never_do() {
        for mk in conformance_suite() {
            let report = run_conformance(mk);
            let segmented = report.label.starts_with("SEG");
            assert_eq!(
                report.segment_appends > 0,
                segmented,
                "{}: segment-append observation mismatch",
                report.label
            );
        }
    }
}
