//! Randomized property tests on the queue implementations: token
//! conservation, FIFO behaviour, and retry-freedom hold for *arbitrary*
//! workloads, not just the hand-picked unit-test cases.
//!
//! Each property runs as a seeded loop over a `SplitMix64` stream —
//! deterministic across runs and platforms.

use ptq::graph::rng::SplitMix64;
use ptq::queue::device::{bits, LanePhase, Lanes};
use ptq::queue::host::{AnQueue, BaseQueue, RfAnQueue, SlotTicket};
use ptq::queue::DNA;

const CASES: usize = 64;

/// RF/AN, single-threaded: any interleaving of batch enqueues and
/// reservations delivers every token exactly once, in FIFO order.
#[test]
fn rfan_fifo_and_conservation() {
    let mut rng = SplitMix64::seed_from_u64(0xF1F0);
    for case in 0..CASES {
        let num_batches = rng.range_u64(1, 20) as usize;
        let batches: Vec<Vec<u32>> = (0..num_batches)
            .map(|_| {
                let len = rng.range_u64(0, 20) as usize;
                (0..len).map(|_| rng.range_u32(0, DNA - 1)).collect()
            })
            .collect();
        let total: usize = batches.iter().map(Vec::len).sum();
        let q = RfAnQueue::new(total.max(1));
        let mut expected = Vec::new();
        let mut got = Vec::new();
        let mut outstanding: Vec<u64> = Vec::new();
        for batch in &batches {
            q.enqueue_batch(batch).unwrap();
            expected.extend_from_slice(batch);
            // Reserve a few slots after each batch; drain what has data.
            outstanding.extend(q.reserve(batch.len()));
            outstanding.retain(|&s| match q.try_take(SlotTicket(s)) {
                Some(tok) => {
                    got.push(tok);
                    false
                }
                None => true,
            });
        }
        // Drain the tail.
        outstanding.extend(q.reserve(total));
        for s in outstanding {
            if let Some(tok) = q.try_take(SlotTicket(s)) {
                got.push(tok);
            }
        }
        assert_eq!(got, expected, "case {case}: FIFO order and conservation");
        let stats = q.stats();
        assert_eq!(stats.cas_attempts, 0, "case {case}");
        assert_eq!(stats.empty_retries, 0, "case {case}");
    }
}

/// The AN queue conserves tokens for arbitrary push/pop batch shapes.
#[test]
fn an_conservation() {
    let mut rng = SplitMix64::seed_from_u64(0xA9);
    for case in 0..CASES {
        let num_ops = rng.range_u64(1, 40) as usize;
        let ops: Vec<(Vec<u32>, usize)> = (0..num_ops)
            .map(|_| {
                let len = rng.range_u64(0, 12) as usize;
                let batch = (0..len).map(|_| rng.range_u32(0, DNA - 1)).collect();
                (batch, rng.range_u64(0, 16) as usize)
            })
            .collect();
        let total: usize = ops.iter().map(|(b, _)| b.len()).sum();
        let q = AnQueue::new(total.max(1));
        let mut pushed = Vec::new();
        let mut popped = Vec::new();
        for (batch, pop_n) in &ops {
            q.push_batch(batch).unwrap();
            pushed.extend_from_slice(batch);
            q.pop_batch(&mut popped, *pop_n);
        }
        while q.pop_batch(&mut popped, 64) > 0 {}
        assert_eq!(popped, pushed, "case {case}: AN is FIFO single-threaded");
    }
}

/// The BASE queue conserves tokens for arbitrary push/pop sequences.
#[test]
fn base_conservation() {
    let mut rng = SplitMix64::seed_from_u64(0xBA5E);
    for case in 0..CASES {
        let num_ops = rng.range_u64(1, 80) as usize;
        let ops: Vec<(u32, bool)> = (0..num_ops)
            .map(|_| (rng.range_u32(0, DNA - 1), rng.gen_bool(0.5)))
            .collect();
        let q = BaseQueue::new(ops.len());
        let mut pushed = Vec::new();
        let mut popped = Vec::new();
        for &(tok, also_pop) in &ops {
            q.push(tok).unwrap();
            pushed.push(tok);
            if also_pop {
                if let Some(v) = q.try_pop() {
                    popped.push(v);
                }
            }
        }
        while let Some(v) = q.try_pop() {
            popped.push(v);
        }
        assert_eq!(popped, pushed, "case {case}");
    }
}

/// Capacity is a hard bound: any overflowing batch is rejected whole and
/// the queue still functions.
#[test]
fn rfan_capacity_is_exact() {
    let mut rng = SplitMix64::seed_from_u64(0xCAFE);
    for case in 0..CASES {
        let cap = rng.range_u64(1, 40) as usize;
        let extra = rng.range_u64(1, 20) as usize;
        let q = RfAnQueue::new(cap);
        let fits: Vec<u32> = (0..cap as u32).collect();
        q.enqueue_batch(&fits).unwrap();
        let overflow: Vec<u32> = (0..extra as u32).collect();
        assert!(q.enqueue_batch(&overflow).is_err(), "case {case}");
        // Everything already enqueued is still deliverable.
        let tickets = q.reserve(cap);
        let got: Vec<u32> = tickets.filter_map(|s| q.try_take(SlotTicket(s))).collect();
        assert_eq!(got, fits, "case {case}");
    }
}

/// Device-queue property: the simulated pump delivers every token exactly
/// once for arbitrary seeds/fanout/workgroup combinations. (Uses the BFS
/// runner as the pump — it validates levels, which subsumes conservation.)
mod device {
    use ptq::bfs::{run_bfs, PtConfig};
    use ptq::graph::gen::erdos_renyi;
    use ptq::graph::rng::SplitMix64;
    use ptq::graph::validate_levels;
    use ptq::queue::Variant;
    use simt::GpuConfig;

    #[test]
    fn all_variants_exact_on_random_graphs() {
        let mut rng = SplitMix64::seed_from_u64(0xDEC1CE);
        for case in 0..12 {
            let n = rng.range_u64(2, 200) as usize;
            let edge_factor = rng.range_u64(1, 6) as usize;
            let seed = rng.range_u64(0, 1000);
            let wgs = rng.range_u64(1, 5) as usize;
            let graph = erdos_renyi(n, n * edge_factor, seed);
            let source = (seed % n as u64) as u32;
            for variant in Variant::ALL {
                let run = run_bfs(
                    &GpuConfig::test_tiny(),
                    &graph,
                    source,
                    &PtConfig::new(variant, wgs),
                )
                .unwrap();
                assert!(
                    validate_levels(&graph, source, &run.values).is_ok(),
                    "case {case}: {variant:?} wrong on n={n} seed={seed}"
                );
            }
        }
    }
}

/// The columnar [`Lanes`] against the array of enums it replaced: after
/// any sequence of kernel- and queue-side operations every lane's phase
/// agrees with a plain `Vec<LanePhase>` model, the masks are the model's
/// phases and stay inside the wavefront, and the epoch advances exactly
/// when the set of `(lane, monitored ticket)` pairs changes.
#[test]
fn lanes_agree_with_an_array_of_phases() {
    let mut rng = SplitMix64::seed_from_u64(0x1A9E5);
    for case in 0..CASES {
        let width = [1, 4, 7, 63, 64][case % 5];
        let mut lanes = Lanes::new(width);
        type Model = Vec<LanePhase>;
        let mut model: Model = vec![LanePhase::Idle; width];
        let lanes_in = |model: &Model, want: fn(&LanePhase) -> bool| -> u64 {
            let hits = model.iter().enumerate().filter(|(_, p)| want(p));
            hits.map(|(lane, _)| 1u64 << lane).sum()
        };
        let monitored = |model: &Model| -> Vec<(usize, LanePhase)> {
            let lanes = model.iter().copied().enumerate();
            lanes
                .filter(|(_, p)| matches!(p, LanePhase::Monitoring(_)))
                .collect()
        };
        for step in 0..400 {
            let (before, epoch) = (monitored(&model), lanes.epoch());
            let hungry: Vec<usize> = bits(lanes.hungry()).collect();
            let waiting: Vec<usize> = bits(lanes.hungry() | lanes.monitoring()).collect();
            let pick = |rng: &mut SplitMix64, from: &[usize]| {
                (!from.is_empty()).then(|| from[rng.range_u64(0, from.len() as u64) as usize])
            };
            match rng.range_u64(0, 5) {
                0 => {
                    // Any mask at all: bits beyond the wavefront and busy
                    // lanes must be ignored.
                    let mask = rng.next_u64() & rng.next_u64();
                    lanes.request(mask);
                    for (lane, phase) in model.iter_mut().enumerate() {
                        if *phase == LanePhase::Idle && mask & (1 << lane) != 0 {
                            *phase = LanePhase::Hungry;
                        }
                    }
                }
                1 => {
                    if let Some(lane) = pick(&mut rng, &hungry) {
                        let ticket = rng.range_u32(0, 1 << 20);
                        lanes.monitor(lane, ticket);
                        model[lane] = LanePhase::Monitoring(ticket);
                    }
                }
                2 => {
                    let base = rng.range_u32(0, 1 << 20);
                    lanes.monitor_hungry(base);
                    for (&lane, ticket) in hungry.iter().zip(base..) {
                        model[lane] = LanePhase::Monitoring(ticket);
                    }
                }
                3 => {
                    if let Some(lane) = pick(&mut rng, &waiting) {
                        let token = rng.range_u32(0, DNA);
                        lanes.deliver(lane, token);
                        model[lane] = LanePhase::Ready(token);
                    }
                }
                _ => {
                    let first = model.iter().position(|p| matches!(p, LanePhase::Ready(_)));
                    let expect = first.map(|lane| match model[lane] {
                        LanePhase::Ready(token) => (lane, token),
                        _ => unreachable!(),
                    });
                    assert_eq!(lanes.take_ready(), expect, "case {case} step {step}");
                    if let Some(lane) = first {
                        model[lane] = LanePhase::Idle;
                    }
                }
            }
            let label = format!("case {case} step {step}: {lanes:?}");
            for (lane, &phase) in model.iter().enumerate() {
                assert_eq!(lanes.phase(lane), phase, "lane {lane}, {label}");
            }
            let idle = lanes_in(&model, |p| *p == LanePhase::Idle);
            let hungry = lanes_in(&model, |p| *p == LanePhase::Hungry);
            let monitoring = lanes_in(&model, |p| matches!(p, LanePhase::Monitoring(_)));
            assert_eq!(
                (lanes.idle(), lanes.hungry(), lanes.monitoring()),
                (idle, hungry, monitoring),
                "{label}"
            );
            assert_eq!(lanes.all_hungry(), hungry.count_ones() as usize == width);
            assert_eq!(
                lanes.all_monitoring(),
                monitoring.count_ones() as usize == width
            );
            assert_eq!(
                lanes.epoch() != epoch,
                monitored(&model) != before,
                "epoch {epoch} -> {}, {label}",
                lanes.epoch()
            );
        }
    }
}
