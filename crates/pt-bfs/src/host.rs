//! Real-thread CPU BFS built on the host queues.
//!
//! The same persistent-worker structure as the device kernel, with OS
//! threads in place of wavefronts: workers pull vertex tokens from a
//! shared queue, claim children with `AtomicU32::fetch_min` on the cost
//! array, and push discoveries back. Termination uses the same
//! outstanding-task counter as the device runner.

use crate::UNVISITED;
use gpu_queue::host::{AnQueue, MutexQueue, StatsSnapshot, WorkPool};
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
        // `WorkPool::run` is this traversal's worker loop: reserve a
        // batch, poll the owned slots, settle the pool's pending count.
        HostVariant::RfAn => {
            let pool = WorkPool::new(capacity);
            start = Instant::now();
            pool.run(threads, &[source], |vertex, outbox| {
                expand(graph, &costs, vertex, outbox)
            })
            .expect("capacity provisioned");
            stats = pool.stats();
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
    fn disconnected_source_terminates() {
        let mut b = ptq_graph::CsrBuilder::new(10);
        b.add_edge(5, 6);
        let g = b.build();
        let result = host_bfs(&g, 0, 2, HostVariant::RfAn);
        assert_eq!(result.reached, 1);
    }
}
