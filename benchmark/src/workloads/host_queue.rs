//! `host_queue_ops`: the seven real-thread host queues moving tokens on
//! one thread — fill a 64 Ki-slot queue in batches, drain it, reset,
//! repeat. Nothing else in the benchmark touches the host queues on a hot
//! path. Closed loop. The contended two-thread pipeline is too noisy on
//! two shared cores for an end-to-end metric; the traced run reports it
//! per layer, labelled.

use crate::harness::{Pass, Workload};
use crate::json::Metrics;
use crate::layers::{
    AnQueue, BaseQueue, MutexQueue, RfAnQueue, SegmentedAnQueue, SegmentedRfAnQueue,
    SegmentedRfQueue, SlotTicket, SplitMix64, StatsSnapshot,
};
use crate::spec::HOST_QUEUES;
use crate::stats::median;
use crate::trace::Recorder;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

/// Slots per fill (the bounded queues' capacity between resets).
const SLOTS: usize = 64 * 1024;
/// Tokens per enqueue / dequeue call where the API takes a batch.
const BATCH: usize = 64;
/// Fills per variant per pass: 16 × 64 Ki = 1 Mi tokens.
const FILLS: usize = 16;
/// Segment size of the segmented family (16 segments per fill).
const SEG_CAP: usize = 4096;
/// Two-thread pipeline runs per variant (one fill each).
const PIPE_RUNS: usize = 9;

/// Span names of the single-thread loops, in [`HOST_QUEUES`] order.
const SPANS: [&str; 7] = [
    "gpu_queue.host.rfan",
    "gpu_queue.host.an",
    "gpu_queue.host.base",
    "gpu_queue.host.mutex",
    "gpu_queue.host.seg-rfan",
    "gpu_queue.host.seg-rf",
    "gpu_queue.host.seg-an",
];

/// Order-insensitive checksum of a token stream: what went in must come
/// out, in any order.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct Checksum {
    count: u64,
    sum: u64,
    xor: u64,
}

impl Checksum {
    fn add(&mut self, token: u32) {
        self.count += 1;
        self.sum = self.sum.wrapping_add(u64::from(token));
        self.xor ^= u64::from(token).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
}

/// A consumer's state between dequeue calls: tickets reserved but not
/// yet filled (retry-free variants dequeue by reserve-then-poll), and
/// the buffer the batch variants pop into.
#[derive(Default)]
struct Consumer {
    tickets: Vec<u64>,
    popped: Vec<u32>,
    out: Checksum,
}

impl Consumer {
    /// Polls the reserved tickets, keeping those whose data has not
    /// arrived. Returns how many tokens did.
    fn poll(&mut self, try_take: impl Fn(SlotTicket) -> Option<u32>) -> usize {
        let before = self.tickets.len();
        let out = &mut self.out;
        self.tickets
            .retain(|&slot| match try_take(SlotTicket(slot)) {
                Some(token) => {
                    out.add(token);
                    false
                }
                None => true,
            });
        before - self.tickets.len()
    }

    /// Folds a popped batch into the checksum.
    fn absorb(&mut self, n: usize) -> usize {
        self.popped.drain(..).for_each(|token| self.out.add(token));
        n
    }
}

/// The enqueue / dequeue surface the seven variants share.
trait HostQueue: Sync {
    /// Tokens per call: [`BATCH`], or 1 where the API is per token.
    const BATCH: usize;
    fn put(&self, tokens: &[u32]);
    /// Takes up to `Self::BATCH` tokens, returning how many arrived.
    fn take(&self, consumer: &mut Consumer) -> usize;
    fn reset(&mut self);
    fn stats(&self) -> StatsSnapshot;
    /// Fresh segment allocations so far (segmented RF/AN only).
    fn fresh_allocs(&self) -> Option<u64> {
        None
    }
}

impl HostQueue for RfAnQueue {
    const BATCH: usize = BATCH;
    fn put(&self, tokens: &[u32]) {
        self.enqueue_batch(tokens).expect("fill fits the queue");
    }
    fn take(&self, consumer: &mut Consumer) -> usize {
        if consumer.tickets.is_empty() {
            consumer.tickets.extend(self.reserve(BATCH));
        }
        consumer.poll(|ticket| self.try_take(ticket))
    }
    fn reset(&mut self) {
        RfAnQueue::reset(self);
    }
    fn stats(&self) -> StatsSnapshot {
        RfAnQueue::stats(self)
    }
}

impl HostQueue for SegmentedRfAnQueue {
    const BATCH: usize = BATCH;
    fn put(&self, tokens: &[u32]) {
        self.enqueue_batch(tokens);
    }
    fn take(&self, consumer: &mut Consumer) -> usize {
        if consumer.tickets.is_empty() {
            consumer.tickets.extend(self.reserve(BATCH as u64));
        }
        consumer.poll(|ticket| self.try_take(ticket))
    }
    fn reset(&mut self) {
        SegmentedRfAnQueue::reset(self);
    }
    fn stats(&self) -> StatsSnapshot {
        SegmentedRfAnQueue::stats(self)
    }
    fn fresh_allocs(&self) -> Option<u64> {
        Some(SegmentedRfAnQueue::fresh_allocs(self))
    }
}

impl HostQueue for SegmentedRfQueue {
    const BATCH: usize = 1;
    fn put(&self, tokens: &[u32]) {
        self.enqueue(tokens[0]);
    }
    fn take(&self, consumer: &mut Consumer) -> usize {
        if consumer.tickets.is_empty() {
            consumer.tickets.push(self.reserve().0);
        }
        consumer.poll(|ticket| self.try_take(ticket))
    }
    fn reset(&mut self) {
        SegmentedRfQueue::reset(self);
    }
    fn stats(&self) -> StatsSnapshot {
        SegmentedRfQueue::stats(self)
    }
}

impl HostQueue for BaseQueue {
    const BATCH: usize = 1;
    fn put(&self, tokens: &[u32]) {
        self.push(tokens[0]).expect("fill fits the queue");
    }
    fn take(&self, consumer: &mut Consumer) -> usize {
        consumer.popped.extend(self.try_pop());
        let n = consumer.popped.len();
        consumer.absorb(n)
    }
    fn reset(&mut self) {
        BaseQueue::reset(self);
    }
    fn stats(&self) -> StatsSnapshot {
        BaseQueue::stats(self)
    }
}

/// The three variants whose API is `push_batch` / `pop_batch`.
macro_rules! batch_queue {
    ($queue:ty, |$q:ident, $tokens:ident| $put:expr) => {
        impl HostQueue for $queue {
            const BATCH: usize = BATCH;
            fn put(&self, $tokens: &[u32]) {
                let $q = self;
                $put;
            }
            fn take(&self, consumer: &mut Consumer) -> usize {
                let n = self.pop_batch(&mut consumer.popped, BATCH);
                consumer.absorb(n)
            }
            fn reset(&mut self) {
                <$queue>::reset(self);
            }
            fn stats(&self) -> StatsSnapshot {
                <$queue>::stats(self)
            }
        }
    };
}
batch_queue!(AnQueue, |q, tokens| q
    .push_batch(tokens)
    .expect("fill fits the queue"));
batch_queue!(MutexQueue, |q, tokens| q
    .push_batch(tokens)
    .expect("fill fits the queue"));
batch_queue!(SegmentedAnQueue, |q, tokens| q.push_batch(tokens));

/// What [`FILLS`] single-thread rounds through one queue produced.
struct Moved {
    out: Checksum,
    atomics: u64,
    retries: u64,
    fresh_allocs: Option<u64>,
}

/// [`FILLS`] fill-drain-reset rounds of `tokens` through `queue` on this
/// thread. Counters are read before each reset clears them.
fn single_thread<Q: HostQueue>(queue: &mut Q, tokens: &[u32]) -> Moved {
    let mut consumer = Consumer::default();
    let (mut atomics, mut retries) = (0, 0);
    for _ in 0..FILLS {
        for chunk in tokens.chunks(Q::BATCH) {
            queue.put(chunk);
        }
        let mut drained = 0;
        while drained < tokens.len() {
            drained += queue.take(&mut consumer);
        }
        let stats = queue.stats();
        atomics += stats.total_atomics();
        retries += stats.total_retries();
        queue.reset();
    }
    Moved {
        out: consumer.out,
        atomics,
        retries,
        fresh_allocs: queue.fresh_allocs(),
    }
}

/// One producer and one consumer thread moving `tokens` through `queue`
/// once. Returns million tokens per second.
fn pipeline<Q: HostQueue>(queue: &mut Q, tokens: &[u32], want: Checksum) -> f64 {
    let go = AtomicBool::new(false);
    let shared = &*queue;
    let wait = || {
        while !go.load(Ordering::Acquire) {
            std::hint::spin_loop();
        }
    };
    let seconds = std::thread::scope(|scope| {
        let producer = scope.spawn(|| {
            wait();
            for chunk in tokens.chunks(Q::BATCH) {
                shared.put(chunk);
            }
        });
        let consumer = scope.spawn(|| {
            let mut consumer = Consumer::default();
            wait();
            // The token count is a multiple of every batch size, so a
            // retry-free consumer never reserves past the last token.
            while (consumer.out.count as usize) < tokens.len() {
                if shared.take(&mut consumer) == 0 {
                    std::thread::yield_now();
                }
            }
            consumer.out
        });
        let begun = Instant::now();
        go.store(true, Ordering::Release);
        producer.join().expect("producer thread");
        let out = consumer.join().expect("consumer thread");
        let seconds = begun.elapsed().as_secs_f64();
        assert_eq!(out, want, "two-thread pipeline lost or invented tokens");
        seconds
    });
    queue.reset();
    tokens.len() as f64 / 1e6 / seconds
}

/// The seven variants, in [`HOST_QUEUES`] order. Built once and reset
/// between fills, so passes after the first measure the queues, not the
/// allocator.
struct Queues {
    rfan: RfAnQueue,
    an: AnQueue,
    base: BaseQueue,
    mutex: MutexQueue,
    seg_rfan: SegmentedRfAnQueue,
    seg_rf: SegmentedRfQueue,
    seg_an: SegmentedAnQueue,
}

/// One fill's worth of seeded tokens, with what must come back out of
/// one fill (a pipeline run) and of a pass's [`FILLS`].
struct Tokens {
    values: Vec<u32>,
    one_fill: Checksum,
    all_fills: Checksum,
}

pub struct HostQueueOps {
    tokens: Tokens,
    queues: Queues,
}

/// Variant `index`'s single-thread measurement and checks.
fn one<Q: HostQueue>(
    rec: &mut Recorder,
    pass: &mut Pass,
    tokens: &Tokens,
    index: usize,
    queue: &mut Q,
) {
    let name = HOST_QUEUES[index];
    pass.attempted += 1;
    let moved = rec.call(SPANS[index], "", || single_thread(queue, &tokens.values));
    let want = tokens.all_fills;
    if moved.out != want {
        pass.fail(format!(
            "{name}: checksum out {:?} != in {want:?}",
            moved.out
        ));
    }
    if name.contains("rf") && moved.retries != 0 {
        pass.fail(format!(
            "{name}: retry-free queue made {} retries",
            moved.retries
        ));
    }
    pass.fingerprint.word(moved.out.sum ^ moved.out.xor);
    pass.fingerprint.word(moved.atomics);
    pass.set(
        format!("gpu_queue.host.{name}.atomics_per_token"),
        moved.atomics as f64 / (FILLS * SLOTS) as f64,
    );
    if let Some(fresh) = moved.fresh_allocs {
        pass.set(format!("gpu_queue.host.{name}.fresh_allocs"), fresh as f64);
    }
}

/// Variant `index`'s two-thread pipeline rate, median of [`PIPE_RUNS`].
fn two_threads<Q: HostQueue>(out: &mut Metrics, tokens: &Tokens, index: usize, queue: &mut Q) {
    let rates: Vec<f64> = (0..PIPE_RUNS)
        .map(|_| pipeline(queue, &tokens.values, tokens.one_fill))
        .collect();
    out.insert(
        format!("gpu_queue.host.{}.mtokens_per_s_2t", HOST_QUEUES[index]),
        median(&rates),
    );
}

impl Workload for HostQueueOps {
    fn build(seed: u64, _rec: &mut Recorder) -> Self {
        // Any token below the `dna` sentinel (`u32::MAX`).
        let mut rng = SplitMix64::seed_from_u64(seed);
        let values: Vec<u32> = (0..SLOTS).map(|_| rng.range_u32(0, u32::MAX)).collect();
        let (mut one_fill, mut all_fills) = (Checksum::default(), Checksum::default());
        values.iter().for_each(|&token| one_fill.add(token));
        for _ in 0..FILLS {
            values.iter().for_each(|&token| all_fills.add(token));
        }
        HostQueueOps {
            tokens: Tokens {
                values,
                one_fill,
                all_fills,
            },
            queues: Queues {
                rfan: RfAnQueue::new(SLOTS),
                an: AnQueue::new(SLOTS),
                base: BaseQueue::new(SLOTS),
                mutex: MutexQueue::new(SLOTS),
                seg_rfan: SegmentedRfAnQueue::new(SEG_CAP),
                seg_rf: SegmentedRfQueue::new(SEG_CAP),
                seg_an: SegmentedAnQueue::new(SEG_CAP),
            },
        }
    }

    fn pass(&mut self, rec: &mut Recorder, _check: bool) -> Pass {
        let mut pass = Pass::default();
        let (tokens, q) = (&self.tokens, &mut self.queues);
        one(rec, &mut pass, tokens, 0, &mut q.rfan);
        one(rec, &mut pass, tokens, 1, &mut q.an);
        one(rec, &mut pass, tokens, 2, &mut q.base);
        one(rec, &mut pass, tokens, 3, &mut q.mutex);
        one(rec, &mut pass, tokens, 4, &mut q.seg_rfan);
        one(rec, &mut pass, tokens, 5, &mut q.seg_rf);
        one(rec, &mut pass, tokens, 6, &mut q.seg_an);
        pass
    }

    fn host_layers(&self, self_s: &Metrics, _total_s: &Metrics, _pass: &Pass, out: &mut Metrics) {
        for (name, span) in HOST_QUEUES.iter().zip(SPANS) {
            if let Some(seconds) = self_s.get(span) {
                out.insert(
                    format!("gpu_queue.host.{name}.ns_per_token_1t"),
                    seconds * 1e9 / (FILLS * SLOTS) as f64,
                );
            }
        }
    }

    fn traced_extras(&mut self, out: &mut Metrics) {
        let (tokens, q) = (&self.tokens, &mut self.queues);
        two_threads(out, tokens, 0, &mut q.rfan);
        two_threads(out, tokens, 1, &mut q.an);
        two_threads(out, tokens, 2, &mut q.base);
        two_threads(out, tokens, 3, &mut q.mutex);
        two_threads(out, tokens, 4, &mut q.seg_rfan);
        two_threads(out, tokens, 5, &mut q.seg_rf);
        two_threads(out, tokens, 6, &mut q.seg_an);
    }
}
