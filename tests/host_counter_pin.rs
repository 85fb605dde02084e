//! Counter pin for the host queue family: one fixed single-thread script
//! per variant, the full [`StatsSnapshot`] compared against pinned
//! literals. The benchmark's `atomics_per_token` is derived from these
//! counters, so a drift in what any path counts fails here first.
//!
//! The script: reserve/pop ahead of data where the variant allows it, four
//! batches in (3 + 5 + 4 + 4 tokens), drain, then one overflowing enqueue
//! for the bounded variants (capacity 16) or one more batch straddling a
//! segment boundary for the segmented ones (4-slot segments).

use ptq::queue::host::{
    AnQueue, BaseQueue, MutexQueue, RfAnQueue, SegmentedAnQueue, SegmentedRfAnQueue,
    SegmentedRfQueue, SlotTicket, StatsSnapshot,
};

const CAPACITY: usize = 16;
const SEG_CAP: usize = 4;
const BATCHES: [std::ops::Range<u32>; 4] = [0..3, 3..8, 8..12, 12..16];
/// Starts at ticket 16 and crosses the boundary at 20.
const STRADDLE: std::ops::Range<u32> = 100..106;

fn batch(r: &std::ops::Range<u32>) -> Vec<u32> {
    r.clone().collect()
}

fn base() -> StatsSnapshot {
    let q = BaseQueue::new(CAPACITY);
    assert_eq!(q.try_pop(), None);
    for t in BATCHES.iter().flat_map(|r| r.clone()) {
        q.push(t).unwrap();
    }
    let mut got = Vec::new();
    while let Some(v) = q.try_pop() {
        got.push(v);
    }
    assert_eq!(got, (0..16).collect::<Vec<_>>());
    assert!(q.push(99).is_err());
    q.stats()
}

fn an() -> StatsSnapshot {
    let q = AnQueue::new(CAPACITY);
    let mut got = Vec::new();
    assert_eq!(q.pop_batch(&mut got, 4), 0);
    for r in &BATCHES {
        q.push_batch(&batch(r)).unwrap();
    }
    while q.pop_batch(&mut got, 6) > 0 {}
    assert_eq!(got, (0..16).collect::<Vec<_>>());
    assert!(q.push_batch(&[99]).is_err());
    q.stats()
}

fn mutex() -> StatsSnapshot {
    let q = MutexQueue::new(CAPACITY);
    let mut got = Vec::new();
    assert_eq!(q.pop_batch(&mut got, 4), 0);
    for r in &BATCHES {
        q.push_batch(&batch(r)).unwrap();
    }
    while q.pop_batch(&mut got, 6) > 0 {}
    assert_eq!(got, (0..16).collect::<Vec<_>>());
    assert!(q.push_batch(&[99]).is_err());
    q.stats()
}

fn rfan() -> StatsSnapshot {
    let q = RfAnQueue::new(CAPACITY);
    let early = q.reserve(2);
    assert_eq!(q.try_take(SlotTicket(early.start)), None);
    assert_eq!(q.try_take(SlotTicket(early.start + 1)), None);
    for r in &BATCHES {
        q.enqueue_batch(&batch(r)).unwrap();
    }
    let got: Vec<u32> = early
        .chain(q.reserve(14))
        .map(|s| q.try_take(SlotTicket(s)).expect("published"))
        .collect();
    assert_eq!(got, (0..16).collect::<Vec<_>>());
    // A ticket past capacity can never receive data.
    assert_eq!(q.try_take(SlotTicket(q.reserve(1).start)), None);
    assert!(q.enqueue_batch(&[99]).is_err());
    q.stats()
}

fn seg_rfan() -> StatsSnapshot {
    let q = SegmentedRfAnQueue::new(SEG_CAP);
    let early = q.reserve(2);
    assert_eq!(q.try_take(SlotTicket(early.start)), None);
    assert_eq!(q.try_take(SlotTicket(early.start + 1)), None);
    for r in &BATCHES {
        q.enqueue_batch(&batch(r));
    }
    let got: Vec<u32> = early
        .chain(q.reserve(14))
        .map(|s| q.try_take(SlotTicket(s)).expect("published"))
        .collect();
    assert_eq!(got, (0..16).collect::<Vec<_>>());
    q.enqueue_batch(&batch(&STRADDLE));
    assert_eq!(q.fresh_allocs(), 4);
    q.stats()
}

fn seg_rf() -> StatsSnapshot {
    let q = SegmentedRfQueue::new(SEG_CAP);
    let early = q.reserve();
    assert_eq!(q.try_take(early), None);
    for t in BATCHES.iter().flat_map(|r| r.clone()) {
        q.enqueue(t);
    }
    assert_eq!(q.try_take(early), Some(0));
    for want in 1..16 {
        assert_eq!(q.try_take(q.reserve()), Some(want));
    }
    for t in STRADDLE {
        q.enqueue(t);
    }
    q.stats()
}

fn seg_an() -> StatsSnapshot {
    let q = SegmentedAnQueue::new(SEG_CAP);
    let mut got = Vec::new();
    assert_eq!(q.pop_batch(&mut got, 4), 0);
    for r in &BATCHES {
        q.push_batch(&batch(r));
    }
    while q.pop_batch(&mut got, 6) > 0 {}
    assert_eq!(got, (0..16).collect::<Vec<_>>());
    q.push_batch(&batch(&STRADDLE));
    q.stats()
}

/// Variant label, its script, and the counters the script must leave.
type Pin = (&'static str, fn() -> StatsSnapshot, [u64; 6]);

#[test]
fn every_variant_counts_what_it_counted_before_the_rewrite() {
    #[rustfmt::skip]
    let pinned: [Pin; 7] = [
        // label        script    [afa, cas, cas_fail, empty, data_wait, seg_append]
        ("BASE",      base,     [0, 32, 0, 2, 0, 0]),
        ("AN",        an,       [0, 7, 0, 2, 0, 0]),
        ("MUTEX",     mutex,    [0, 0, 0, 2, 0, 0]),
        ("RF/AN",     rfan,     [8, 0, 0, 0, 2, 0]),
        ("SEG-RF/AN", seg_rfan, [7, 0, 0, 0, 2, 6]),
        ("SEG-RF",    seg_rf,   [38, 0, 0, 0, 1, 6]),
        ("SEG-AN",    seg_an,   [0, 8, 0, 2, 0, 6]),
    ];
    for (label, script, [afa, cas, cas_fail, empty, data_wait, seg_append]) in pinned {
        let want = StatsSnapshot {
            afa_ops: afa,
            cas_attempts: cas,
            cas_failures: cas_fail,
            empty_retries: empty,
            data_waits: data_wait,
            segment_appends: seg_append,
        };
        assert_eq!(script(), want, "{label}: counters drifted");
    }
}
