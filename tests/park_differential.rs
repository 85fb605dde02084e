//! "Parked == never parked": the wave-parking contract, end to end.
//!
//! A parked wave must be indistinguishable, in every simulated quantity,
//! from one that re-executes its polling cycle every round (see the
//! wave-parking section of `simt::ctx`). The product has no switch to
//! turn parking off — and must not grow one — so this suite builds its
//! own launches around [`NeverPark`], a test-only [`WaveQueue`] adapter
//! that forwards everything to the real queue except the offer to park,
//! and compares each real run with its polling twin: `Metrics`, per-CU
//! cycles, round bounds, simulated seconds and the value array, bit for
//! bit.
//!
//! Covered: all six schedulers × {road NY, synthetic tree, LiveJournal}
//! × {BFS, SSSP} on the test-tiny and Spectre geometries at full
//! occupancy (starved on purpose: most waves idle most of the time), two
//! co-resident launches of which one finishes early, and runs under a
//! fault plan with a CU stall and a memory poison — including a poison
//! on the pending counter every parked wave is watching.

use ptq::bfs::workload::{Bfs, PtWorkload, Sssp, WorkBuffers};
use ptq::bfs::{queue_capacity, PtKernel, CHUNK};
use ptq::graph::{random_weights, Csr, Dataset};
use ptq::queue::device::{Design, DeviceQueue, Lanes, WaveQueue};
use ptq::queue::Variant;
use std::convert::identity;

use simt::{
    AbortReason, DeviceMemory, Engine, FaultKind, FaultPlan, GpuConfig, Launch, RunReport,
    SimError, WaveCtx, WaveInfo,
};

/// The wrapped queue, except that it never offers park watches.
struct NeverPark<Q: WaveQueue>(Q);

impl<Q: WaveQueue> WaveQueue for NeverPark<Q> {
    fn acquire(&mut self, ctx: &mut WaveCtx<'_>, lanes: &mut Lanes) {
        self.0.acquire(ctx, lanes)
    }
    fn enqueue(&mut self, ctx: &mut WaveCtx<'_>, tokens: &[u32]) -> usize {
        self.0.enqueue(ctx, tokens)
    }
    fn register_idle_watches(&self, _: &mut WaveCtx<'_>, _: &Lanes) -> bool {
        false
    }
}

/// Dataset shapes at test scale (about a thousand vertices each).
const DATASETS: [(Dataset, f64); 3] = [
    (Dataset::RoadNY, 0.004),
    (Dataset::Synthetic, 0.0001),
    (Dataset::SocLiveJournal1, 0.0002),
];

/// One launch's device state: what `pt_bfs::runner` sets up before it
/// calls the engine.
struct Device<W> {
    workload: W,
    buffers: WorkBuffers,
    queue: DeviceQueue,
}

impl<W: PtWorkload> Device<W> {
    fn setup(
        mem: &mut DeviceMemory,
        gpu: &GpuConfig,
        graph: &Csr,
        workload: &W,
        design: Design,
    ) -> Self {
        let n = graph.num_vertices();
        let seeds = workload.seeds(n);
        let nodes = mem.map("nodes", graph.shared_row_offsets());
        let edges = mem.map("edges", graph.shared_adjacency());
        let weights = workload.edge_weights().map(|w| mem.map("weights", w));
        let values = mem.alloc_init(workload.value_buffer_name(), &workload.initial_values(n));
        let inqueue = mem.alloc("inqueue", workload.state_len(n));
        for &seed in &seeds {
            mem.write_u32(inqueue, seed as usize, 1);
        }
        let pending = mem.alloc("pending", 1);
        mem.write_u32(pending, 0, seeds.len() as u32);
        // Generous: a queue-full abort would still compare equal, but
        // would compare nothing else.
        let capacity = queue_capacity(n, 4.0 * workload.default_capacity_factor());
        let queue = DeviceQueue::setup(mem, design, capacity, gpu.num_cus);
        queue.host_seed(mem, &seeds);
        Device {
            workload: workload.clone(),
            buffers: WorkBuffers {
                nodes,
                edges,
                weights,
                values,
                inqueue,
                pending,
            },
            queue,
        }
    }

    /// The kernel of the wave `info` describes, on this device's queue
    /// as `wrap` holds it.
    fn kernel<Q: WaveQueue>(&self, info: WaveInfo, wrap: fn(DeviceQueue) -> Q) -> PtKernel<W, Q> {
        let queue = wrap(self.queue.wave_queue(info.cu));
        let workload = self.workload.clone();
        PtKernel::new(queue, workload, self.buffers, info.wave_size, CHUNK)
    }
}

/// Every simulated quantity of one launch.
#[derive(Debug, PartialEq)]
struct Outcome {
    metrics: simt::Metrics,
    per_cu_cycles: Vec<u64>,
    round_bounds: simt::RoundBounds,
    seconds_bits: u64,
    values: Vec<u32>,
}

fn outcome<W>(engine: &Engine, device: &Device<W>, report: &RunReport) -> Outcome {
    Outcome {
        metrics: report.metrics,
        per_cu_cycles: report.per_cu_cycles.clone(),
        round_bounds: report.round_bounds,
        seconds_bits: report.seconds.to_bits(),
        values: engine.memory().read_slice(device.buffers.values).to_vec(),
    }
}

fn launch(gpu: &GpuConfig) -> Launch {
    // Full occupancy: as many idle waves as the device can hold.
    Launch::workgroups(gpu.num_cus * gpu.wgs_per_cu).with_max_rounds(2_000_000)
}

/// One solo launch; returns its outcome (or abort) and park-event count.
fn solo<W: PtWorkload>(
    gpu: &GpuConfig,
    graph: &Csr,
    workload: &W,
    design: Design,
    plan: &FaultPlan,
    park: bool,
) -> (Result<Outcome, SimError>, u64) {
    let mut engine = Engine::new(gpu.clone());
    let device = Device::setup(engine.memory_mut(), gpu, graph, workload, design);
    let launch = launch(gpu);
    let wgs = [launch.num_workgroups];
    let reports = if park {
        engine.run_group(launch, &wgs, plan, |_, info| device.kernel(info, identity))
    } else {
        engine.run_group(launch, &wgs, plan, |_, info| device.kernel(info, NeverPark))
    };
    match reports {
        Ok(reports) => (
            Ok(outcome(&engine, &device, &reports[0])),
            reports[0].profile.park_events,
        ),
        Err(e) => (Err(e), 0),
    }
}

/// Runs the real queue and its polling twin; returns the (equal) result.
fn assert_parked_equals_polled<W: PtWorkload>(
    gpu: &GpuConfig,
    graph: &Csr,
    workload: &W,
    design: Design,
    plan: &FaultPlan,
    label: &str,
) -> Result<Outcome, SimError> {
    let (parked, park_events) = solo(gpu, graph, workload, design, plan, true);
    let (polled, twin_events) = solo(gpu, graph, workload, design, plan, false);
    assert_eq!(parked, polled, "{label}: parked run differs from polling");
    assert_eq!(twin_events, 0, "{label}: the twin must never park");
    // (A stealing wave parks only while all its lanes camp on tickets,
    // which a starved run may never reach: its idle lanes scan instead.)
    if parked.is_ok() && matches!(design, Design::Shared(_)) {
        assert!(park_events > 0, "{label}: nothing parked — vacuous");
    }
    parked
}

fn sweep(gpu: &GpuConfig) {
    for (dataset, scale) in DATASETS {
        let graph = dataset.build(scale);
        let source = dataset.source();
        let bfs = Bfs::new(source);
        let sssp = Sssp::new(source, random_weights(&graph, 64, 0xA11CE));
        for design in Design::ALL {
            let label = format!("{}/{dataset:?}/{design:?}", gpu.name);
            let run = assert_parked_equals_polled(
                gpu,
                &graph,
                &bfs,
                design,
                &FaultPlan::EMPTY,
                &format!("bfs/{label}"),
            )
            .expect("bfs run failed");
            bfs.validate(&graph, &run.values)
                .unwrap_or_else(|e| panic!("bfs/{label}: wrong level {e:?}"));
            let run = assert_parked_equals_polled(
                gpu,
                &graph,
                &sssp,
                design,
                &FaultPlan::EMPTY,
                &format!("sssp/{label}"),
            )
            .expect("sssp run failed");
            sssp.validate(&graph, &run.values)
                .unwrap_or_else(|e| panic!("sssp/{label}: wrong distance {e:?}"));
        }
    }
}

#[test]
fn parked_equals_never_parked_on_test_tiny() {
    sweep(&GpuConfig::test_tiny());
}

#[test]
fn parked_equals_never_parked_on_spectre() {
    sweep(&GpuConfig::spectre());
}

#[test]
fn parked_equals_never_parked_for_coresident_launches() {
    // Launch 0 (a small tree) retires long before launch 1 (a road
    // graph); their waves share the rotation, the CUs and the floors.
    let gpu = GpuConfig::test_tiny();
    let short = Dataset::Synthetic.build(0.00002);
    let long = Dataset::RoadNY.build(0.004);
    let graphs = [&short, &long];
    let sources = [Dataset::Synthetic.source(), Dataset::RoadNY.source()];
    for design in Design::ALL {
        let run = |park: bool| {
            let mut engine = Engine::new(gpu.clone());
            let devices: Vec<Device<Bfs>> = (0..2)
                .map(|l| {
                    engine.memory_mut().set_alloc_prefix(&format!("q{l}:"));
                    Device::setup(
                        engine.memory_mut(),
                        &gpu,
                        graphs[l],
                        &Bfs::new(sources[l]),
                        design,
                    )
                })
                .collect();
            engine.memory_mut().set_alloc_prefix("");
            let launch = Launch::workgroups(2).with_max_rounds(2_000_000);
            let plan = &FaultPlan::EMPTY;
            let reports = if park {
                engine.run_group(launch, &[2, 2], plan, |l, info| {
                    devices[l].kernel(info, identity)
                })
            } else {
                engine.run_group(launch, &[2, 2], plan, |l, info| {
                    devices[l].kernel(info, NeverPark)
                })
            }
            .expect("co-resident run failed");
            let parks: u64 = reports.iter().map(|r| r.profile.park_events).sum();
            let outcomes: Vec<Outcome> = reports
                .iter()
                .zip(&devices)
                .map(|(report, device)| outcome(&engine, device, report))
                .collect();
            (outcomes, parks)
        };
        let (parked, park_events) = run(true);
        let (polled, twin_events) = run(false);
        assert_eq!(parked, polled, "{design:?}: co-resident runs differ");
        assert_eq!(twin_events, 0, "{design:?}");
        if matches!(design, Design::Shared(_)) {
            assert!(park_events > 0, "{design:?}: nothing parked — vacuous");
        }
        assert!(
            parked[0].metrics.rounds < parked[1].metrics.rounds,
            "{design:?}: the short launch should retire first"
        );
    }
}

#[test]
fn parked_equals_never_parked_under_a_stall_and_a_poison() {
    // Spectre: 2 048 lanes on a ~1k-vertex road graph, so at any round
    // most waves — usually including the rotation's first — are parked.
    let gpu = GpuConfig::spectre();
    let graph = Dataset::RoadNY.build(0.004);
    let bfs = Bfs::new(Dataset::RoadNY.source());
    let n = graph.num_vertices();
    let stall = || FaultPlan::new().stall_cu(1, 5, 6, 70);
    for design in Design::ALL {
        let label = format!("{design:?}");
        // Poison armed long after termination: only the stall lands.
        let clean =
            assert_parked_equals_polled(&gpu, &graph, &bfs, design, &FaultPlan::EMPTY, &label)
                .expect("clean run");
        let plan = stall().poison(10_000_000, "costs", 0);
        let stalled = assert_parked_equals_polled(&gpu, &graph, &bfs, design, &plan, &label)
            .expect("stalled run");
        assert_eq!(stalled.metrics.injected_stall_cycles, 6 * 70, "{label}");
        assert_eq!(stalled.values, clean.values, "{label}");

        // A poisoned value word: whichever wave claims that vertex first
        // aborts, in the same round, parked neighbours or not.
        let plan = stall().poison(8, "costs", n / 2);
        let err = assert_parked_equals_polled(&gpu, &graph, &bfs, design, &plan, &label)
            .expect_err("the poisoned vertex is reachable");
        assert!(
            matches!(
                err,
                SimError::KernelAbort {
                    reason: AbortReason::InjectedFault {
                        kind: FaultKind::MemPoison,
                        ..
                    },
                    ..
                }
            ),
            "{label}: {err}"
        );

        // A poisoned pending counter: every wave reads it every cycle, so
        // the first wave of that round's rotation aborts — also when it
        // is parked on that very word (several rounds, so that some of
        // them catch the rotation's first wave parked).
        for armed in (9..40).step_by(3) {
            let plan = stall().poison(armed, "pending", 0);
            let err = assert_parked_equals_polled(&gpu, &graph, &bfs, design, &plan, &label)
                .expect_err("pending is read every cycle");
            match err {
                SimError::KernelAbort { round, .. } => assert_eq!(round, armed, "{label}"),
                other => panic!("{label}: expected an injected abort, got {other}"),
            }
        }
    }

    // Poisoned queue words the data-arrival poll reads while nothing has
    // arrived in them: a monitored slot, and a directory word of the
    // segmented queue. The wave whose lane watches the word faults in the
    // round the poison arms, parked or not — the literals are what the
    // slot-reading poll this queue family started with reported.
    let pinned = [
        (Variant::RfAn, "workqueue.slots", 700, 8, 10),
        (Variant::RfOnly, "workqueue.slots", 700, 8, 10),
        (Variant::SegRfAn, "workqueue.slots", 700, 8, 10),
        // Round 8's rotation starts at wave 8, whose tickets are in
        // segment 0; by round 20 only wave 2 still holds one.
        (Variant::SegRfAn, "workqueue.dir", 0, 8, 8),
        (Variant::SegRfAn, "workqueue.dir", 0, 20, 2),
    ];
    for (variant, buffer, index, armed, wave) in pinned {
        let label = format!("{variant:?}/{buffer}[{index}]@{armed}");
        let plan = stall().poison(armed, buffer, index);
        let design = Design::Shared(variant);
        let err = assert_parked_equals_polled(&gpu, &graph, &bfs, design, &plan, &label)
            .expect_err("the poisoned queue word is being polled");
        let reason = AbortReason::InjectedFault {
            kind: FaultKind::MemPoison,
            wave,
            round: armed,
        };
        let round = armed;
        assert_eq!(err, SimError::KernelAbort { reason, round }, "{label}");
    }
}
