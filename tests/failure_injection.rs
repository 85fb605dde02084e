//! Failure injection: the error paths a production library must handle
//! gracefully — queue overflow, kernel aborts racing other wavefronts,
//! device faults, and capacity-recovery loops.

use ptq::bfs::{run_bfs, PtConfig};
use ptq::graph::gen::synthetic_tree;
use ptq::graph::validate_levels;
use ptq::queue::device::{Design, DeviceQueue, Lanes, WaveQueue};
use ptq::queue::host::{RfAnQueue, WorkPool};
use ptq::queue::verify::{Explored, Scenario};
use ptq::queue::Variant;
use simt::{
    AbortReason, Buffer, Engine, GpuConfig, Launch, SimError, WaveCtx, WaveKernel, WaveStatus,
};
use std::collections::BTreeSet;

/// A kernel where one wavefront floods the queue beyond capacity while
/// the others behave: the abort must terminate the whole run promptly
/// and deterministically.
struct Flooder {
    queue: DeviceQueue,
    lanes: Lanes,
    is_flooder: bool,
    round: u32,
}

impl WaveKernel for Flooder {
    fn work_cycle(&mut self, ctx: &mut WaveCtx<'_>) -> WaveStatus {
        self.round += 1;
        if self.is_flooder {
            let tokens: Vec<u32> = (0..64).map(|i| self.round * 64 + i).collect();
            let _ = self.queue.enqueue(ctx, &tokens);
        } else {
            self.lanes.request(self.lanes.idle());
            self.queue.acquire(ctx, &mut self.lanes);
            while self.lanes.take_ready().is_some() {}
        }
        WaveStatus::Active
    }
}

#[test]
fn queue_full_abort_terminates_multi_wave_runs() {
    for variant in Variant::ALL {
        let mut engine = Engine::new(GpuConfig::test_tiny());
        let queue = DeviceQueue::setup(engine.memory_mut(), Design::Shared(variant), 128, 1);
        let err = engine
            .run(Launch::workgroups(4).with_max_rounds(10_000), |info| {
                Flooder {
                    queue: queue.wave_queue(info.cu),
                    lanes: Lanes::new(info.wave_size),
                    is_flooder: info.wave_id == 0,
                    round: 0,
                }
            })
            .unwrap_err();
        match err {
            SimError::KernelAbort {
                reason:
                    AbortReason::QueueFull {
                        requested,
                        capacity,
                    },
                ..
            } => {
                assert_eq!(capacity, 128, "{variant:?}: wrong capacity reported");
                assert!(
                    requested >= capacity as u64,
                    "{variant:?}: requested {requested} should exceed capacity"
                );
            }
            other => panic!("{variant:?}: expected structured queue-full abort, got {other}"),
        }
    }
}

/// The BFS runner's capacity-doubling recovery: a tiny initial capacity
/// factor must still converge to a correct traversal.
#[test]
fn bfs_recovers_from_undersized_queue() {
    let graph = synthetic_tree(800, 4);
    let mut config = PtConfig::new(Variant::RfAn, 3);
    config.capacity_factor = 0.2; // ~160 slots: forces several doublings
    let run = run_bfs(&GpuConfig::test_tiny(), &graph, 0, &config).unwrap();
    validate_levels(&graph, 0, &run.values).unwrap();
    // The recovery log classifies every abort structurally.
    assert!(run.recovery.aborts() >= 1, "undersized queue must abort");
    assert!(
        run.recovery
            .attempts
            .iter()
            .all(|a| a.reason.is_queue_full()),
        "every logged abort is a queue-full: {:?}",
        run.recovery.attempts
    );
    assert!(run.recovery.final_capacity_factor > config.capacity_factor);
    assert_eq!(run.recovery.rounds_replayed, run.metrics.rounds);
}

/// A device fault (out-of-bounds access) in one wavefront fails the whole
/// run with the precise fault, not a hang or a corrupted result.
#[test]
fn device_fault_is_reported_not_swallowed() {
    struct Oob {
        buf: Buffer,
        trigger: bool,
        count: u32,
    }
    impl WaveKernel for Oob {
        fn work_cycle(&mut self, ctx: &mut WaveCtx<'_>) -> WaveStatus {
            self.count += 1;
            if self.trigger && self.count == 3 {
                ctx.global_write(self.buf, 1 << 20, 7);
            } else {
                ctx.charge_alu(1);
            }
            if self.count > 100 {
                WaveStatus::Done
            } else {
                WaveStatus::Active
            }
        }
    }
    let mut engine = Engine::new(GpuConfig::test_tiny());
    engine.memory_mut().alloc("buf", 16);
    let buf = engine.memory().buffer("buf");
    let err = engine
        .run(Launch::workgroups(4), |info| Oob {
            buf,
            trigger: info.wave_id == 2,
            count: 0,
        })
        .unwrap_err();
    assert!(
        matches!(err, SimError::OutOfBounds { len: 16, .. }),
        "{err}"
    );
}

/// Host queue overflow mid-stream leaves already-published tokens intact
/// and deliverable.
#[test]
fn host_overflow_preserves_published_tokens() {
    let q = RfAnQueue::new(4);
    q.enqueue_batch(&[1, 2]).unwrap();
    assert!(q.enqueue_batch(&[3, 4, 5]).is_err()); // 2 + 3 > 4
                                                   // The failed batch must not have corrupted anything readable.
    let got: Vec<u32> = q
        .reserve(2)
        .filter_map(|s| q.try_take(ptq::queue::host::SlotTicket(s)))
        .collect();
    assert_eq!(got, vec![1, 2]);
}

/// WorkPool overflow unblocks every worker (no hang) and reports the
/// error; the pool is reusable after reset.
#[test]
fn workpool_overflow_recovers_after_reset() {
    let mut pool = WorkPool::new(8);
    let result = pool.run(4, &[1], |t, out| {
        out.push(t + 1);
        out.push(t + 2);
    });
    assert!(result.is_err(), "exponential fanout must overflow");
    pool.reset();
    let counted = std::sync::atomic::AtomicU64::new(0);
    pool.run(2, &[5, 6], |_, _| {
        counted.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    })
    .unwrap();
    assert_eq!(counted.load(std::sync::atomic::Ordering::Relaxed), 2);
}

/// Queue-full under the interleaving explorer: every schedule of a BASE
/// overflow race (the CAS core at width 1) terminates (the explorer panics
/// on deadlock), rejects a deterministic number of pushes, and never
/// double-delivers.
#[test]
fn explored_base_overflow_aborts_deterministically() {
    let s = Scenario {
        variant: Explored::An,
        size: 2,
        producers: vec![vec![vec![1], vec![2]], vec![vec![3]]],
        consumers: vec![(1, 1)],
    };
    let r = s.run(200_000);
    assert!(r.exhausted, "overflow race should enumerate fully");
    // Three pushes into two lifetime slots: exactly one rejection in
    // EVERY interleaving — which token loses varies, how many never does.
    assert_eq!(r.rejections, BTreeSet::from([1]));
    for d in &r.delivered {
        let mut dd = d.clone();
        dd.dedup();
        assert_eq!(dd.len(), d.len(), "double delivery in {d:?}");
    }
}

/// AN overflow under the explorer: the losing batch is rejected whole in
/// every schedule (all-or-nothing), never partially published.
#[test]
fn explored_an_overflow_rejects_whole_batch() {
    let s = Scenario {
        variant: Explored::An,
        size: 3,
        producers: vec![vec![vec![1]], vec![vec![2, 3]], vec![vec![4, 5]]],
        consumers: vec![],
    };
    let r = s.run(50_000);
    assert!(r.exhausted);
    // 1 + 2 + 2 tokens into 3 slots: exactly one 2-batch loses, whole.
    assert_eq!(r.rejections, BTreeSet::from([1]));
}

/// RF/AN overflow under the explorer: abort semantics — the overshooting
/// batch publishes nothing, `Rear` stays advanced, and every schedule
/// still linearizes (the spec models the abort explicitly).
#[test]
fn explored_rfan_overflow_has_abort_semantics() {
    let s = Scenario {
        variant: Explored::RfAn,
        size: 2,
        producers: vec![vec![vec![1, 2]], vec![vec![3, 4]]],
        consumers: vec![(2, 4)],
    };
    let r = s.run(50_000);
    assert!(r.exhausted);
    // Whichever batch reserves second overflows: exactly one abort.
    assert_eq!(r.rejections, BTreeSet::from([1]));
    for d in &r.delivered {
        assert!(d.len() <= 2, "aborted batch leaked tokens: {d:?}");
        let mut dd = d.clone();
        dd.dedup();
        assert_eq!(dd.len(), d.len(), "double delivery in {d:?}");
    }
}

/// SSSP's capacity-recovery loop: adversarial weights that maximize
/// re-enqueues still converge to exact distances.
#[test]
fn sssp_recovers_under_reenqueue_pressure() {
    use ptq::bfs::{run_workload, Sssp};
    use ptq::graph::{validate_distances, CsrBuilder};

    // A graph designed for label-correction churn: long chain with heavy
    // shortcuts that get improved late.
    let n = 120;
    let mut b = CsrBuilder::new(n);
    for i in 0..n as u32 - 1 {
        b.add_edge(i, i + 1);
    }
    for i in 0..n as u32 - 10 {
        b.add_edge(i, i + 10);
    }
    let g = b.build();
    // Chain edges cost 1, shortcut edges cost 5: shortcuts look good when
    // discovered but get undercut by the chain later — ordering churn.
    let mut weights_aligned = vec![0u32; g.num_edges()];
    for v in 0..n as u32 {
        let start = g.edge_start(v) as usize;
        for (k, &w) in g.neighbors(v).iter().enumerate() {
            weights_aligned[start + k] = if w == v + 1 { 1 } else { 5 };
        }
    }
    let sssp = Sssp::new(0, weights_aligned.clone());
    let config = PtConfig::for_workload(&sssp, Variant::RfAn, 2);
    let run = run_workload(&GpuConfig::test_tiny(), &g, &sssp, &config).unwrap();
    validate_distances(&g, &weights_aligned, 0, &run.values).unwrap();
}
