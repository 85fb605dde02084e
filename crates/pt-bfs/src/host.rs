//! Real-thread CPU BFS built on the host queues.
//!
//! The same persistent-worker structure as the device kernel, with OS
//! threads in place of wavefronts: workers pull vertex tokens from a
//! shared queue, claim children with `AtomicU32::fetch_min` on the cost
//! array, and push discoveries back. Termination uses the same
//! outstanding-task counter as the device runner.

use crate::UNVISITED;
use gpu_queue::host::{AnQueue, MutexQueue, RfAnQueue, SlotTicket, StatsSnapshot};
use ptq_graph::Csr;
use std::sync::atomic::{AtomicI64, AtomicU32, Ordering};
use std::time::{Duration, Instant};

/// Which host queue drives the traversal.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HostVariant {
    /// Retry-free, arbitrary-n (the paper's design).
    RfAn,
    /// CAS with batching.
    An,
    /// Traditional per-token CAS.
    Base,
    /// Blocking strawman.
    Mutex,
}

impl HostVariant {
    /// All variants, for sweeps.
    pub const ALL: [HostVariant; 4] = [
        HostVariant::RfAn,
        HostVariant::An,
        HostVariant::Base,
        HostVariant::Mutex,
    ];

    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            HostVariant::RfAn => "RF/AN",
            HostVariant::An => "AN",
            HostVariant::Base => "BASE",
            HostVariant::Mutex => "MUTEX",
        }
    }
}

/// Result of a host BFS run.
#[derive(Clone, Debug)]
pub struct HostBfsResult {
    /// Exact BFS levels.
    pub levels: Vec<u32>,
    /// Wall-clock time of the parallel section.
    pub duration: Duration,
    /// Queue operation counters.
    pub stats: StatsSnapshot,
    /// Vertices reached.
    pub reached: usize,
}

/// Tokens a worker reserves/pops per interaction with the queue.
const BATCH: usize = 8;

/// Runs a multi-threaded BFS over `graph` from `source` using `threads`
/// workers and the chosen queue design. Returns exact BFS levels.
///
/// # Panics
/// Panics if `source` is out of range, `threads == 0`, or the traversal
/// overflows its queue capacity (graph pathologically racy — capacity is
/// provisioned at 4·|V| + slack).
pub fn host_bfs(graph: &Csr, source: u32, threads: usize, variant: HostVariant) -> HostBfsResult {
    assert!(threads > 0, "need at least one worker");
    let n = graph.num_vertices();
    assert!((source as usize) < n, "source out of range");

    let costs: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(UNVISITED)).collect();
    costs[source as usize].store(0, Ordering::Relaxed);
    let pending = AtomicI64::new(1);
    let capacity = 4 * n + threads * BATCH + 64;

    let start;
    let stats;
    match variant {
        HostVariant::RfAn => {
            let q = RfAnQueue::new(capacity);
            q.enqueue(source).expect("seed fits");
            start = Instant::now();
            run_workers(threads, || rfan_worker(&q, graph, &costs, &pending));
            stats = q.stats();
        }
        // One CAS queue, two batch widths: BASE is AN reserving per token.
        HostVariant::An | HostVariant::Base => {
            let width = if variant == HostVariant::An { BATCH } else { 1 };
            let q = AnQueue::new(capacity);
            q.push_batch(&[source]).expect("seed fits");
            start = Instant::now();
            run_workers(threads, || cas_worker(&q, width, graph, &costs, &pending));
            stats = q.stats();
        }
        HostVariant::Mutex => {
            let q = MutexQueue::new(capacity);
            q.push_batch(&[source]).expect("seed fits");
            start = Instant::now();
            run_workers(threads, || mutex_worker(&q, graph, &costs, &pending));
            stats = q.stats();
        }
    }
    let duration = start.elapsed();

    let levels: Vec<u32> = costs.iter().map(|c| c.load(Ordering::Relaxed)).collect();
    let reached = levels.iter().filter(|&&c| c != UNVISITED).count();
    HostBfsResult {
        levels,
        duration,
        stats,
        reached,
    }
}

fn run_workers<F: Fn() + Sync>(threads: usize, worker: F) {
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(&worker);
        }
    });
}

/// Expands `vertex`, claiming children; pushes discoveries into `outbox`.
#[inline]
fn expand(graph: &Csr, costs: &[AtomicU32], vertex: u32, outbox: &mut Vec<u32>) {
    let level = costs[vertex as usize].load(Ordering::Acquire);
    let new_cost = level + 1;
    for &child in graph.neighbors(vertex) {
        let old = costs[child as usize].fetch_min(new_cost, Ordering::AcqRel);
        if old > new_cost {
            outbox.push(child);
        }
    }
}

/// Publishes discoveries and retires completions against the pending
/// counter; ordering (add before publish, sub last) keeps `pending == 0`
/// a sound termination signal.
#[inline]
fn settle(pending: &AtomicI64, completed: i64, outbox: &[u32], publish: impl FnOnce(&[u32])) {
    if !outbox.is_empty() {
        pending.fetch_add(outbox.len() as i64, Ordering::AcqRel);
        publish(outbox);
    }
    if completed > 0 {
        pending.fetch_sub(completed, Ordering::AcqRel);
    }
}

fn rfan_worker(q: &RfAnQueue, graph: &Csr, costs: &[AtomicU32], pending: &AtomicI64) {
    let mut tickets: Vec<u64> = Vec::new();
    let mut outbox = Vec::new();
    loop {
        if pending.load(Ordering::Acquire) == 0 {
            return;
        }
        if tickets.is_empty() {
            tickets.extend(q.reserve(BATCH));
        }
        let mut completed = 0i64;
        tickets.retain(|&slot| match q.try_take(SlotTicket(slot)) {
            Some(vertex) => {
                expand(graph, costs, vertex, &mut outbox);
                completed += 1;
                false
            }
            None => true,
        });
        settle(pending, completed, &outbox, |toks| {
            q.enqueue_batch(toks).expect("capacity provisioned")
        });
        outbox.clear();
        std::hint::spin_loop();
    }
}

/// The CAS-queue worker: up to [`BATCH`] tokens per round, `width` per
/// reservation — one CAS per batch for AN (`width == BATCH`), one per token
/// for BASE (`width == 1`).
fn cas_worker(q: &AnQueue, width: usize, graph: &Csr, costs: &[AtomicU32], pending: &AtomicI64) {
    let mut inbox = Vec::new();
    let mut outbox = Vec::new();
    loop {
        if pending.load(Ordering::Acquire) == 0 {
            return;
        }
        inbox.clear();
        for _ in 0..BATCH / width {
            if q.pop_batch(&mut inbox, width) == 0 {
                break;
            }
        }
        let mut completed = 0i64;
        for &vertex in &inbox {
            expand(graph, costs, vertex, &mut outbox);
            completed += 1;
        }
        settle(pending, completed, &outbox, |toks| {
            for batch in toks.chunks(width) {
                q.push_batch(batch).expect("capacity provisioned");
            }
        });
        outbox.clear();
        std::hint::spin_loop();
    }
}

fn mutex_worker(q: &MutexQueue, graph: &Csr, costs: &[AtomicU32], pending: &AtomicI64) {
    let mut inbox = Vec::new();
    let mut outbox = Vec::new();
    loop {
        if pending.load(Ordering::Acquire) == 0 {
            return;
        }
        inbox.clear();
        q.pop_batch(&mut inbox, BATCH);
        let mut completed = 0i64;
        for &vertex in &inbox {
            expand(graph, costs, vertex, &mut outbox);
            completed += 1;
        }
        settle(pending, completed, &outbox, |toks| {
            q.push_batch(toks).expect("capacity provisioned")
        });
        outbox.clear();
        std::hint::spin_loop();
    }
}

/// Real-thread SSSP on the [`WorkPool`](gpu_queue::host::WorkPool):
/// label-correcting relaxation with `fetch_min` on the distance array,
/// re-enqueueing improved vertices through the retry-free queue.
///
/// Returns exact shortest distances (validated against Dijkstra in the
/// tests). Queue capacity is provisioned for the re-enqueue-heavy
/// workload; pathological weight distributions may exceed it, in which
/// case the run is retried with a doubled pool.
///
/// # Panics
/// Panics on mismatched weights, bad source, or zero threads.
pub fn host_sssp(graph: &Csr, weights: &[u32], source: u32, threads: usize) -> Vec<u32> {
    use gpu_queue::host::WorkPool;

    assert_eq!(weights.len(), graph.num_edges(), "one weight per edge");
    assert!(
        (source as usize) < graph.num_vertices(),
        "source out of range"
    );
    assert!(threads > 0, "need at least one worker");

    let n = graph.num_vertices();
    let dist: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(UNVISITED)).collect();
    let inqueue: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(0)).collect();
    let mut capacity = 8 * n + 64;
    loop {
        dist.iter()
            .for_each(|d| d.store(UNVISITED, Ordering::Relaxed));
        inqueue.iter().for_each(|f| f.store(0, Ordering::Relaxed));
        dist[source as usize].store(0, Ordering::Relaxed);
        inqueue[source as usize].store(1, Ordering::Relaxed);

        let pool = WorkPool::new(capacity);
        let result = pool.run(threads, &[source], |vertex, outbox| {
            inqueue[vertex as usize].store(0, Ordering::Release);
            let d = dist[vertex as usize].load(Ordering::Acquire);
            let start = graph.edge_start(vertex) as usize;
            for (offset, &child) in graph.neighbors(vertex).iter().enumerate() {
                let candidate = d.saturating_add(weights[start + offset]);
                let old = dist[child as usize].fetch_min(candidate, Ordering::AcqRel);
                if old > candidate && inqueue[child as usize].swap(1, Ordering::AcqRel) == 0 {
                    outbox.push(child);
                }
            }
        });
        match result {
            Ok(()) => return dist.iter().map(|d| d.load(Ordering::Relaxed)).collect(),
            Err(_) => capacity *= 2,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ptq_graph::gen::{erdos_renyi, roadmap, synthetic_tree, RoadmapParams};
    use ptq_graph::validate_levels;

    fn check(graph: &Csr, source: u32, threads: usize, variant: HostVariant) {
        let result = host_bfs(graph, source, threads, variant);
        validate_levels(graph, source, &result.levels).unwrap_or_else(|(v, want, got)| {
            panic!("{variant:?}: vertex {v} expected {want}, got {got}")
        });
    }

    #[test]
    fn all_variants_exact_on_tree() {
        let g = synthetic_tree(5_000, 4);
        for v in HostVariant::ALL {
            check(&g, 0, 4, v);
        }
    }

    #[test]
    fn all_variants_exact_on_roadmap() {
        let g = roadmap(RoadmapParams {
            rows: 50,
            cols: 40,
            keep_prob: 0.4,
            seed: 2,
        });
        for v in HostVariant::ALL {
            check(&g, 0, 4, v);
        }
    }

    #[test]
    fn all_variants_exact_on_random_multigraph() {
        let g = erdos_renyi(2_000, 10_000, 4);
        for v in HostVariant::ALL {
            check(&g, 3, 3, v);
        }
    }

    #[test]
    fn single_threaded_works() {
        let g = synthetic_tree(500, 4);
        for v in HostVariant::ALL {
            check(&g, 0, 1, v);
        }
    }

    #[test]
    fn rfan_host_run_never_retries() {
        let g = synthetic_tree(5_000, 4);
        let result = host_bfs(&g, 0, 4, HostVariant::RfAn);
        assert_eq!(result.stats.cas_attempts, 0);
        assert_eq!(result.stats.empty_retries, 0);
        assert_eq!(result.reached, 5_000);
    }

    #[test]
    fn base_host_run_reports_retries_under_contention() {
        let g = synthetic_tree(20_000, 4);
        let result = host_bfs(&g, 0, 8, HostVariant::Base);
        assert!(result.stats.cas_attempts > 0);
        // empty retries are near-certain with 8 threads on a ramp-up
        assert!(result.stats.total_retries() > 0);
    }

    #[test]
    fn host_sssp_matches_dijkstra() {
        use ptq_graph::{random_weights, validate_distances};
        let g = erdos_renyi(1_500, 7_000, 17);
        let w = random_weights(&g, 12, 17);
        let dist = host_sssp(&g, &w, 0, 4);
        validate_distances(&g, &w, 0, &dist)
            .unwrap_or_else(|(v, want, got)| panic!("host sssp: vertex {v} dist {got} != {want}"));
    }

    #[test]
    fn host_sssp_unit_weights_equal_bfs() {
        let g = synthetic_tree(3_000, 4);
        let w = vec![1u32; g.num_edges()];
        let dist = host_sssp(&g, &w, 0, 3);
        let levels = ptq_graph::bfs_levels(&g, 0).levels;
        assert_eq!(dist, levels);
    }

    #[test]
    fn host_sssp_single_thread() {
        use ptq_graph::{random_weights, validate_distances};
        let g = roadmap(RoadmapParams {
            rows: 20,
            cols: 20,
            keep_prob: 0.5,
            seed: 1,
        });
        let w = random_weights(&g, 50, 1);
        let dist = host_sssp(&g, &w, 0, 1);
        validate_distances(&g, &w, 0, &dist).unwrap();
    }

    #[test]
    fn disconnected_source_terminates() {
        let mut b = ptq_graph::CsrBuilder::new(10);
        b.add_edge(5, 6);
        let g = b.build();
        let result = host_bfs(&g, 0, 2, HostVariant::RfAn);
        assert_eq!(result.reached, 1);
    }
}
