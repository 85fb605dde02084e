//! Differential fuzzing: all six device schedulers (BASE, AN, RF-only,
//! RF/AN, the segmented SEG-RF/AN queue, and the distributed stealing
//! queue) are run on identical seeded workloads and must deliver
//! identical token multisets — and identical BFS levels on identical
//! graphs. Any divergence means one of the queue designs lost,
//! duplicated, or invented a token.

use ptq::bfs::workload::{ConnectedComponents, PrDelta, PtWorkload, Sssp};
use ptq::bfs::{run_bfs, run_workload, PtConfig};
use ptq::graph::gen::social;
use ptq::graph::gen::SocialParams;
use ptq::graph::{random_weights, Dataset};
use ptq::queue::device::{Design, DeviceQueue, Lanes, WaveQueue};
use ptq::queue::Variant;
use simt::{Buffer, Engine, GpuConfig, Launch, WaveCtx, WaveKernel, WaveStatus};
use std::sync::{Arc, Mutex};

/// SplitMix64 — the crate-wide seeded PRNG idiom.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Children per fanned-out token.
const CHILDREN: u32 = 3;
/// Tokens below this fan out once; derived children (>= 1,000) never do.
const FANOUT_UNTIL: u32 = 600;

/// Producer/consumer kernel: consumes tokens, fans out children for
/// seeds, terminates on a pending-task counter — the same shape as the
/// BFS driver, generic over any [`WaveQueue`].
struct FuzzPump {
    queue: Box<dyn WaveQueue>,
    lanes: Lanes,
    pending: Buffer,
    consumed: Arc<Mutex<Vec<u32>>>,
    outbox: Vec<u32>,
    completed: u32,
}

impl WaveKernel for FuzzPump {
    fn work_cycle(&mut self, ctx: &mut WaveCtx<'_>) -> WaveStatus {
        self.lanes.request(self.lanes.idle());
        self.queue.acquire(ctx, &mut self.lanes);
        while let Some((_lane, tok)) = self.lanes.take_ready() {
            self.consumed.lock().unwrap().push(tok);
            if tok < FANOUT_UNTIL {
                for c in 0..CHILDREN {
                    self.outbox.push(tok * CHILDREN + c + 1_000);
                }
            }
            self.completed += 1;
        }
        if !self.outbox.is_empty() {
            let accepted = self.queue.enqueue(ctx, &self.outbox);
            if accepted > 0 {
                ctx.atomic_add(self.pending, 0, accepted as u32);
                self.outbox.drain(..accepted);
            }
        }
        if self.completed > 0 {
            ctx.atomic_sub(self.pending, 0, self.completed);
            self.completed = 0;
        }
        let pending = ctx.global_read(self.pending, 0);
        if pending == 0 && self.outbox.is_empty() {
            WaveStatus::Done
        } else {
            WaveStatus::Active
        }
    }
}

/// Delivered-token multiset (sorted) for one scheduler. `FuzzPump`
/// re-offers unaccepted tokens next cycle, so the segmented backpressure
/// contract (partial accepts instead of aborts) needs no kernel change —
/// the same pump drives every design.
fn pump(design: Design, seeds: &[u32], wgs: usize, capacity: u32) -> Vec<u32> {
    let gpu = GpuConfig::test_tiny();
    let mut engine = Engine::new(gpu.clone());
    let queue = DeviceQueue::setup(engine.memory_mut(), design, capacity, gpu.num_cus);
    let pending = engine.memory_mut().alloc("pending", 1);
    queue.host_seed(engine.memory_mut(), seeds);
    engine
        .memory_mut()
        .write_u32(pending, 0, seeds.len() as u32);
    let consumed = Arc::new(Mutex::new(Vec::new()));
    engine
        .run(Launch::workgroups(wgs).with_max_rounds(2_000_000), |info| {
            FuzzPump {
                queue: queue.wave_queue(info.cu),
                lanes: Lanes::new(info.wave_size),
                pending,
                consumed: Arc::clone(&consumed),
                outbox: Vec::new(),
                completed: 0,
            }
        })
        .unwrap_or_else(|e| panic!("{design:?} pump failed: {e}"));
    let mut out = consumed.lock().unwrap().clone();
    out.sort_unstable();
    out
}

/// Seeded workload: `count` tokens below `FANOUT_UNTIL * 2` (so roughly
/// half fan out), plus the exact multiset every scheduler must deliver.
fn workload(seed: u64, count: usize) -> (Vec<u32>, Vec<u32>) {
    let mut s = seed;
    let seeds: Vec<u32> = (0..count)
        .map(|_| (splitmix64(&mut s) % u64::from(FANOUT_UNTIL * 2)) as u32)
        .collect();
    let mut expect = seeds.clone();
    for &t in &seeds {
        if t < FANOUT_UNTIL {
            for c in 0..CHILDREN {
                expect.push(t * CHILDREN + c + 1_000);
            }
        }
    }
    expect.sort_unstable();
    (seeds, expect)
}

#[test]
fn all_six_schedulers_deliver_identical_multisets() {
    for (round, &seed) in [0xFEED_0001u64, 0xFEED_0002, 0xFEED_0003]
        .iter()
        .enumerate()
    {
        let count = 24 + round * 40;
        let (seeds, expect) = workload(seed, count);
        let capacity = (expect.len() as u32 + 64).next_power_of_two();
        // Every launch audits: each wavefront queue op validates its
        // variant's atomic budget while we fuzz.
        for design in Design::ALL {
            let got = pump(design, &seeds, 4, capacity);
            assert_eq!(
                got, expect,
                "{design:?} diverged on seed {seed:#x} ({count} seeds)"
            );
        }
    }
}

#[test]
fn all_six_schedulers_agree_on_bfs_levels() {
    // One seeded scale-free graph, six schedulers: identical levels.
    let mut rng = 0xB0B0_CAFEu64;
    let graph = social(SocialParams {
        vertices: 700,
        avg_degree: 7.0,
        alpha: 1.9,
        max_degree: 90,
        seed: splitmix64(&mut rng) % 1_000,
    });
    let gpu = GpuConfig::test_tiny();
    let reference = run_bfs(&gpu, &graph, 0, &PtConfig::new(Variant::Base, 4))
        .unwrap()
        .values;
    for design in Design::ALL {
        let run = run_bfs(&gpu, &graph, 0, &PtConfig::new(design, 4))
            .unwrap_or_else(|e| panic!("{design:?}: {e}"));
        assert_eq!(run.values, reference, "{design:?} BFS levels diverged");
    }
}

/// The six dataset shapes at fuzz scale (roughly 1–2k vertices each).
const FUZZ_SCALE: [(Dataset, f64); 6] = [
    (Dataset::Synthetic, 0.0002),
    (Dataset::GplusCombined, 0.005),
    (Dataset::SocLiveJournal1, 0.0003),
    (Dataset::RoadNY, 0.005),
    (Dataset::RoadLKS, 0.0005),
    (Dataset::RoadUSA, 0.0001),
];

/// Runs `workload` under all six device schedulers (the four
/// monolithic-queue variants, the segmented SEG-RF/AN queue, and the
/// distributed stealing queue) on one graph and checks every run's
/// value array against the sequential oracle — confluence means they
/// must all land on the identical fixed point. Retry-free variants
/// additionally audit zero CAS traffic.
fn all_six_agree_with_oracle<W: PtWorkload>(graph: &ptq::graph::Csr, workload: &W, tag: &str) {
    let gpu = GpuConfig::test_tiny();
    let oracle = workload.reference(graph);
    for design in Design::ALL {
        let config = PtConfig::for_workload(workload, design, 4);
        let run = run_workload(&gpu, graph, workload, &config)
            .unwrap_or_else(|e| panic!("{tag}/{design:?}: {e}"));
        assert_eq!(
            run.values, oracle,
            "{tag}/{design:?}: values diverged from the sequential oracle"
        );
        // Stealing never CASes either, but its failed steal scans count
        // as queue-empty retries.
        let (never_cas, never_spins) = match design {
            Design::Shared(variant) => (variant.is_retry_free(), variant.is_retry_free()),
            Design::PerCu => (true, false),
        };
        if never_cas {
            assert_eq!(run.metrics.cas_attempts, 0, "{tag}/{design:?} issued CAS");
        }
        if never_spins {
            assert_eq!(
                run.metrics.queue_empty_retries, 0,
                "{tag}/{design:?} spun on empty"
            );
        }
    }
}

#[test]
fn connected_components_agree_across_all_six_schedulers() {
    for (dataset, fraction) in FUZZ_SCALE {
        let graph = dataset.build(fraction);
        all_six_agree_with_oracle(&graph, &ConnectedComponents, &format!("cc/{dataset:?}"));
    }
}

#[test]
fn prdelta_agrees_across_all_six_schedulers() {
    for (dataset, fraction) in FUZZ_SCALE {
        let graph = dataset.build(fraction);
        all_six_agree_with_oracle(
            &graph,
            &PrDelta::new(dataset.source()),
            &format!("pr-delta/{dataset:?}"),
        );
    }
}

#[test]
fn sssp_agrees_across_all_six_schedulers() {
    for (dataset, fraction) in FUZZ_SCALE {
        let graph = dataset.build(fraction);
        let weights = random_weights(&graph, 64, 0xA11CE);
        all_six_agree_with_oracle(
            &graph,
            &Sssp::new(dataset.source(), weights),
            &format!("sssp/{dataset:?}"),
        );
    }
}
