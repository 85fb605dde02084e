//! `workload_mix`: the four irregular workloads on the RF/AN and
//! segmented queues, each once clean through `run_workload` and once
//! under a seeded fault plan through `run_recoverable`. The same kernel,
//! queue and runner layers as BFS, used differently — so a gain for BFS
//! that costs another workload shows. Closed loop, one client.

use super::traced_dataset;
use crate::harness::{
    account, engine_host_layers, par2_speedup, run_phases, validate, variant_key, Pass, SimTotals,
    Workload,
};
use crate::json::Metrics;
use crate::layers::{
    random_weights, run_recoverable, run_workload, Bfs, ConnectedComponents, Csr, Dataset,
    FaultPlan, FaultSpec, GpuConfig, PrDelta, PtConfig, PtWorkload, RecoveryPolicy, Sssp, Variant,
};
use crate::spec::{DEFAULT_SEED, KINDS};
use crate::trace::Recorder;

/// Scales chosen so a pass takes about a second of host time.
const INPUTS: [(Dataset, f64); 2] = [(Dataset::SocLiveJournal1, 0.003), (Dataset::RoadNY, 0.03)];
const VARIANTS: [Variant; 2] = [Variant::RfAn, Variant::SegRfAn];
const WORKGROUPS: usize = 32;

pub struct Mix {
    gpu: GpuConfig,
    /// Each graph with its SSSP instance (seeded edge weights).
    graphs: Vec<(Csr, Sssp)>,
}

/// What the recovery layer adds, summed over a pass.
#[derive(Default)]
struct RecoveryTotals {
    aborts: u64,
    epochs: u64,
    rounds_replayed: u64,
    rounds_lost: u64,
    clean_ms: f64,
    faulted_ms: f64,
}

/// Per-kind simulated results.
#[derive(Default, Clone, Copy)]
struct KindTotals {
    sim_ms: f64,
    sched_atomics: u64,
    vertices: u64,
}

struct Cx<'a> {
    rec: &'a mut Recorder,
    pass: Pass,
    totals: SimTotals,
    recovery: RecoveryTotals,
    kinds: [KindTotals; 4],
    check: bool,
}

impl Mix {
    /// The chaos experiment's fault matrix: two kills, two stalls, two
    /// poisons, all within the first eight rounds so every launch meets
    /// them. Drawn per cell from the default seed whatever the run's
    /// seed: which round a kill lands in decides how much is replayed, and
    /// seeding it moved a pass's work by ±25 %.
    fn fault_plan<W: PtWorkload>(&self, workload: &W, vertices: usize, cell: u64) -> FaultPlan {
        FaultPlan::seeded(
            DEFAULT_SEED ^ cell,
            &FaultSpec {
                wave_kills: 2,
                cu_stalls: 2,
                mem_poisons: 2,
                max_round: 8,
                waves: WORKGROUPS * self.gpu.waves_per_wg,
                cus: self.gpu.num_cus,
                max_stall_rounds: 4,
                max_stall_cycles: 200,
                poison_buffer: workload.value_buffer_name().into(),
                poison_words: vertices,
            },
        )
    }

    /// One (kind, variant, dataset) cell: clean, then faulted.
    fn cell<W: PtWorkload>(
        &self,
        cx: &mut Cx<'_>,
        kind: usize,
        variant: Variant,
        (dataset, graph): (Dataset, &Csr),
        workload: &W,
        cell: u64,
    ) {
        let config = PtConfig::for_workload(workload, variant, WORKGROUPS);
        let label = format!(
            "{}/{}/{}",
            KINDS[kind],
            variant_key(variant),
            dataset.spec().name
        );
        let vertices = graph.num_vertices();

        let op = format!("{label}/clean");
        cx.pass.attempted += 1;
        let clean = cx.rec.call_with_phases(
            "pt_bfs.runner.call",
            &op,
            || run_workload(&self.gpu, graph, workload, &config),
            run_phases,
        );
        let clean_ms = match clean {
            Ok(run) => {
                account(
                    &mut cx.pass,
                    &mut cx.totals,
                    &op,
                    variant.is_retry_free(),
                    &run,
                );
                cx.totals.add_regrows(&run);
                if cx.check {
                    validate(cx.rec, &mut cx.pass, &op, workload, graph, &run);
                }
                let k = &mut cx.kinds[kind];
                k.sim_ms += run.seconds * 1e3;
                k.sched_atomics += run.metrics.scheduler_atomics;
                k.vertices += vertices as u64;
                run.seconds * 1e3
            }
            Err(e) => {
                cx.pass.fail(format!("{op}: {e}"));
                return;
            }
        };

        let op = format!("{label}/faulted");
        let plan = self.fault_plan(workload, vertices, cell);
        let policy = RecoveryPolicy {
            max_attempts: 16,
            checkpoint_levels: 4,
            ..RecoveryPolicy::default()
        };
        cx.pass.attempted += 1;
        let faulted = cx.rec.call_with_phases(
            "pt_bfs.recovery.call",
            &op,
            || run_recoverable(&self.gpu, graph, workload, &config, &policy, &plan),
            run_phases,
        );
        match faulted {
            Ok(run) => {
                account(
                    &mut cx.pass,
                    &mut cx.totals,
                    &op,
                    variant.is_retry_free(),
                    &run,
                );
                if cx.check {
                    validate(cx.rec, &mut cx.pass, &op, workload, graph, &run);
                }
                let r = &mut cx.recovery;
                r.aborts += run.recovery.aborts() as u64;
                r.epochs += u64::from(run.recovery.epochs);
                r.rounds_replayed += run.recovery.rounds_replayed;
                r.rounds_lost += run.recovery.rounds_lost;
                r.clean_ms += clean_ms;
                r.faulted_ms += run.seconds * 1e3;
            }
            Err(e) => cx.pass.fail(format!("{op}: {e}")),
        }
    }
}

impl Workload for Mix {
    fn build(seed: u64, rec: &mut Recorder) -> Self {
        let graphs = INPUTS
            .iter()
            .map(|&(dataset, scale)| {
                let graph = traced_dataset(rec, dataset, scale);
                let sssp = Sssp::new(0, random_weights(&graph, 10, seed));
                (graph, sssp)
            })
            .collect();
        Mix {
            gpu: GpuConfig::spectre(),
            graphs,
        }
    }

    fn pass(&mut self, rec: &mut Recorder, check: bool) -> Pass {
        let mut cx = Cx {
            rec,
            pass: Pass::default(),
            totals: SimTotals::default(),
            recovery: RecoveryTotals::default(),
            kinds: [KindTotals::default(); 4],
            check,
        };
        let mut cell = 0;
        for (kind, span) in [
            "pt_bfs.workload.bfs",
            "pt_bfs.workload.sssp",
            "pt_bfs.workload.cc",
            "pt_bfs.workload.prdelta",
        ]
        .into_iter()
        .enumerate()
        {
            let id = cx.rec.enter(span, "");
            for variant in VARIANTS {
                for (&(dataset, _), (graph, sssp)) in INPUTS.iter().zip(&self.graphs) {
                    cell += 1;
                    let on = (dataset, graph);
                    match kind {
                        0 => self.cell(&mut cx, kind, variant, on, &Bfs::new(0), cell),
                        1 => self.cell(&mut cx, kind, variant, on, sssp, cell),
                        2 => self.cell(&mut cx, kind, variant, on, &ConnectedComponents, cell),
                        _ => self.cell(&mut cx, kind, variant, on, &PrDelta::new(0), cell),
                    }
                }
            }
            cx.rec.exit(id);
        }
        let Cx {
            mut pass,
            totals,
            recovery,
            kinds,
            ..
        } = cx;
        totals.emit(&mut pass);
        pass.set(
            "e2e.sim_ms",
            kinds.iter().map(|k| k.sim_ms).sum::<f64>() + recovery.faulted_ms,
        );
        for (name, k) in KINDS.iter().zip(kinds) {
            pass.set(format!("pt_bfs.workload.{name}.sim_ms"), k.sim_ms);
            pass.set(
                format!("pt_bfs.workload.{name}.sched_atomics_per_vertex"),
                k.sched_atomics as f64 / k.vertices.max(1) as f64,
            );
        }
        pass.set("pt_bfs.recovery.aborts", recovery.aborts as f64);
        pass.set("pt_bfs.recovery.epochs", recovery.epochs as f64);
        pass.set(
            "pt_bfs.recovery.rounds_replayed",
            recovery.rounds_replayed as f64,
        );
        pass.set("pt_bfs.recovery.rounds_lost", recovery.rounds_lost as f64);
        pass.set(
            "pt_bfs.recovery.sim_overhead",
            recovery.faulted_ms / recovery.clean_ms.max(f64::MIN_POSITIVE),
        );
        pass
    }

    fn host_layers(&self, self_s: &Metrics, total_s: &Metrics, pass: &Pass, out: &mut Metrics) {
        engine_host_layers(self_s, pass, out);
        for kind in KINDS {
            if let Some(seconds) = total_s.get(&format!("pt_bfs.workload.{kind}")) {
                out.insert(format!("pt_bfs.workload.{kind}.wall_s"), *seconds);
            }
        }
        let (clean, faulted) = (
            total_s.get("pt_bfs.runner.call").copied().unwrap_or(0.0),
            total_s.get("pt_bfs.recovery.call").copied().unwrap_or(0.0),
        );
        if clean > 0.0 {
            out.insert("pt_bfs.recovery.wall_overhead".into(), faulted / clean);
        }
    }

    fn traced_extras(&mut self, out: &mut Metrics) {
        // SSSP on RF/AN over the social graph: the longest launch here.
        let (graph, sssp) = &self.graphs[0];
        let speedup = par2_speedup(|workers| {
            let mut config = PtConfig::for_workload(sssp, Variant::RfAn, WORKGROUPS);
            config.engine_workers = workers;
            run_workload(&self.gpu, graph, sssp, &config).expect("traced SSSP launch")
        });
        out.insert("simt.engine.par2_speedup".into(), speedup);
    }
}
