//! `bfs_saturated` and `bfs_starved`: the paper's persistent-thread BFS
//! on both GPUs, once where tokens far outnumber threads and once where
//! threads far outnumber tokens. Closed loop, one client.

use super::traced_dataset;
use crate::harness::{
    account, engine_host_layers, par2_speedup, run_phases, validate, variant_key, Pass, SimTotals,
    Workload,
};
use crate::json::Metrics;
use crate::layers::{
    bfs_levels, run_bfs, run_bfs_stealing, Bfs, Csr, Dataset, GpuConfig, PtConfig, Run, SimError,
    Variant,
};
use crate::stats::geomean;
use crate::trace::Recorder;

/// A device scheduler: one of the queue variants, or work stealing.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Scheduler {
    Queue(Variant),
    Stealing,
}

impl Scheduler {
    fn key(self) -> &'static str {
        match self {
            Scheduler::Queue(v) => variant_key(v),
            Scheduler::Stealing => "stealing",
        }
    }
}

use Scheduler::{Queue, Stealing};
const PAPER_THREE: [Scheduler; 3] = [
    Queue(Variant::Base),
    Queue(Variant::An),
    Queue(Variant::RfAn),
];
const PAPER_AND_SEG: [Scheduler; 4] = [
    Queue(Variant::Base),
    Queue(Variant::An),
    Queue(Variant::RfAn),
    Queue(Variant::SegRfAn),
];
const ALL_SIX: [Scheduler; 6] = [
    Queue(Variant::Base),
    Queue(Variant::An),
    Queue(Variant::RfAn),
    Queue(Variant::SegRfAn),
    Queue(Variant::RfOnly),
    Stealing,
];

/// One dataset of a regime, with the paper's Table 4 speedups over BASE
/// in percent: AN Fiji, RF/AN Fiji, AN Spectre, RF/AN Spectre.
pub struct Input {
    dataset: Dataset,
    scale: f64,
    paper_pct: [f64; 4],
    /// Schedulers run on (Fiji × 224 WGs, Spectre × 32 WGs).
    fiji: &'static [Scheduler],
    spectre: &'static [Scheduler],
}

/// Scales chosen so a pass takes about a second of host time.
const SATURATED: [Input; 2] = [
    Input {
        dataset: Dataset::Synthetic,
        scale: 0.05,
        paper_pct: [144.0, 1128.0, 137.0, 210.0],
        fiji: &PAPER_AND_SEG,
        spectre: &ALL_SIX,
    },
    Input {
        dataset: Dataset::SocLiveJournal1,
        scale: 0.003,
        paper_pct: [119.0, 206.0, 101.0, 103.0],
        fiji: &PAPER_THREE,
        spectre: &PAPER_THREE,
    },
];
const STARVED: [Input; 2] = [
    Input {
        dataset: Dataset::RoadNY,
        scale: 0.15,
        paper_pct: [102.0, 138.0, 99.0, 131.0],
        fiji: &PAPER_AND_SEG,
        spectre: &PAPER_AND_SEG,
    },
    Input {
        dataset: Dataset::RoadUSA,
        scale: 0.0012,
        paper_pct: [104.0, 322.0, 101.0, 105.0],
        fiji: &PAPER_AND_SEG,
        spectre: &PAPER_AND_SEG,
    },
];

/// Which of the two regimes a [`BfsRegime`] runs. The queue-op table is
/// read from the cell where the regime's effect is largest.
pub trait Regime {
    const INPUTS: &'static [Input];
    /// (input index, GPU name) of the queue-op table's cell.
    const TABLE_CELL: (usize, &'static str);
}

pub struct Saturated;
impl Regime for Saturated {
    const INPUTS: &'static [Input] = &SATURATED;
    const TABLE_CELL: (usize, &'static str) = (0, "Spectre");
}

pub struct Starved;
impl Regime for Starved {
    const INPUTS: &'static [Input] = &STARVED;
    const TABLE_CELL: (usize, &'static str) = (0, "Fiji");
}

pub struct BfsRegime<R: Regime> {
    graphs: Vec<Csr>,
    gpus: [(GpuConfig, usize); 2],
    _regime: std::marker::PhantomData<R>,
}

fn launch(
    gpu: &GpuConfig,
    wgs: usize,
    graph: &Csr,
    scheduler: Scheduler,
    workers: usize,
) -> Result<Run, SimError> {
    match scheduler {
        Queue(variant) => {
            let mut config = PtConfig::new(variant, wgs);
            config.engine_workers = workers;
            run_bfs(gpu, graph, 0, &config)
        }
        Stealing => run_bfs_stealing(gpu, graph, 0, wgs),
    }
}

impl<R: Regime> Workload for BfsRegime<R> {
    /// BFS from vertex 0 over fixed graphs: nothing here is drawn from
    /// the seed, so every run must compute the pinned fingerprint.
    fn build(_seed: u64, rec: &mut Recorder) -> Self {
        let graphs: Vec<Csr> = R::INPUTS
            .iter()
            .map(|input| traced_dataset(rec, input.dataset, input.scale))
            .collect();
        for (input, graph) in R::INPUTS.iter().zip(&graphs) {
            // The oracle the launches are validated against; built once
            // here so its cost shows up as set-up, like the repo's tools.
            let reached = rec.call("graph.bfs.oracle", input.dataset.spec().name, || {
                bfs_levels(graph, 0).reached
            });
            assert!(
                reached > graph.num_vertices() / 4,
                "source reaches too little"
            );
        }
        BfsRegime {
            graphs,
            gpus: [(GpuConfig::fiji(), 224), (GpuConfig::spectre(), 32)],
            _regime: std::marker::PhantomData,
        }
    }

    fn pass(&mut self, rec: &mut Recorder, check: bool) -> Pass {
        let mut pass = Pass::default();
        let mut totals = SimTotals::default();
        let mut rfan_ms = 0.0;
        let mut speedups = Vec::new();
        let mut paper_errs = Vec::new();
        for (index, (input, graph)) in R::INPUTS.iter().zip(&self.graphs).enumerate() {
            let name = input.dataset.spec().name;
            let vertices = graph.num_vertices() as f64;
            for (g, ((gpu, wgs), schedulers)) in self
                .gpus
                .iter()
                .zip([input.fiji, input.spectre])
                .enumerate()
            {
                let mut seconds = [0.0; 3]; // BASE, AN, RF/AN
                for &scheduler in schedulers {
                    let op = format!("{}/{}/{name}", gpu.name, scheduler.key());
                    pass.attempted += 1;
                    let result = rec.call_with_phases(
                        "pt_bfs.runner.call",
                        &op,
                        || launch(gpu, *wgs, graph, scheduler, 1),
                        run_phases,
                    );
                    let run = match result {
                        Ok(run) => run,
                        Err(e) => {
                            pass.fail(format!("{op}: {e}"));
                            continue;
                        }
                    };
                    let retry_free = matches!(scheduler, Queue(v) if v.is_retry_free());
                    account(&mut pass, &mut totals, &op, retry_free, &run);
                    totals.add_regrows(&run);
                    if check {
                        validate(rec, &mut pass, &op, &Bfs::new(0), graph, &run);
                    }
                    match scheduler {
                        Queue(Variant::Base) => seconds[0] = run.seconds,
                        Queue(Variant::An) => seconds[1] = run.seconds,
                        Queue(Variant::RfAn) => {
                            seconds[2] = run.seconds;
                            rfan_ms += run.seconds * 1e3;
                        }
                        _ => {}
                    }
                    if (index, gpu.name) == R::TABLE_CELL {
                        let m = &run.metrics;
                        let key =
                            |field: &str| format!("gpu_queue.device.{}.{field}", scheduler.key());
                        pass.set(key("sim_ms"), run.seconds * 1e3);
                        pass.set(
                            key("sched_atomics_per_vertex"),
                            m.scheduler_atomics as f64 / vertices,
                        );
                        pass.set(
                            key("retries_per_vertex"),
                            m.total_retries() as f64 / vertices,
                        );
                        pass.set(key("cas_failure_rate"), m.cas_failure_rate());
                        // Host clock, but read from what the runner
                        // reports, so it needs no span.
                        pass.set(
                            key("rounds_per_s"),
                            m.rounds as f64 / run.phases.sim_seconds.max(1e-9),
                        );
                    }
                }
                if seconds.iter().all(|&s| s > 0.0) {
                    speedups.push(seconds[0] / seconds[2]);
                    for (measured, paper) in [
                        (seconds[0] / seconds[1], input.paper_pct[2 * g]),
                        (seconds[0] / seconds[2], input.paper_pct[2 * g + 1]),
                    ] {
                        paper_errs.push((measured * 100.0 / paper - 1.0).abs());
                    }
                }
            }
        }
        totals.emit(&mut pass);
        pass.set("e2e.sim_ms", rfan_ms);
        pass.set("e2e.rfan_speedup", geomean(&speedups));
        pass.set(
            "e2e.paper_err",
            paper_errs.iter().sum::<f64>() / paper_errs.len().max(1) as f64,
        );
        pass.set(
            "graph.csr.bytes",
            self.graphs
                .iter()
                .map(|g| 4.0 * (g.row_offsets().len() + g.adjacency().len()) as f64)
                .sum(),
        );
        pass
    }

    fn host_layers(&self, self_s: &Metrics, _total_s: &Metrics, pass: &Pass, out: &mut Metrics) {
        engine_host_layers(self_s, pass, out);
    }

    fn traced_extras(&mut self, out: &mut Metrics) {
        // RF/AN on Fiji over the regime's first dataset: the widest
        // launch here, where a second plan thread has most to shard.
        let (gpu, wgs) = &self.gpus[0];
        let graph = &self.graphs[0];
        let speedup = par2_speedup(|workers| {
            launch(gpu, *wgs, graph, Queue(Variant::RfAn), workers).expect("traced RF/AN launch")
        });
        out.insert("simt.engine.par2_speedup".into(), speedup);
    }
}
