//! `repro` — regenerates every table and figure of the paper.
//!
//! ```text
//! repro <experiment> [--scale F | --full] [--jobs N] [--out DIR]
//!
//! experiments:
//!   table1 table2 table3 table4 table5 table6
//!   fig1 fig3 fig4 fig5
//!   scaling ablate-matrix ablate-stealing ablate-chunk ablate-occupancy
//!   chaos        seeded fault injection + checkpoint/resume recovery
//!   workloads    all four workloads (BFS/SSSP/CC/PR-delta) vs oracles
//!   giant        streamed vs in-memory construction at giant scale
//!   serve        overload-safe serving core: admission, deadlines,
//!                retry/backoff, quarantine over a seeded arrival trace
//!   verify       machine-checked reproduction verdicts
//!   all          everything above (except verify and giant)
//!
//! options:
//!   --scale F    dataset scale in (0,1]   (default 0.05; giant 1.0)
//!   --full       shorthand for --scale 1.0 (the paper's sizes; slow)
//!   --jobs N     worker-thread cap (default 1; 0 = one per CPU).
//!                The effective count never exceeds the machine's
//!                available parallelism — points are CPU-bound, so
//!                oversubscribing only adds scheduling overhead.
//!   --out DIR    where to write .md/.csv   (default results/)
//! ```
//!
//! Every table is printed to stdout and written as markdown + CSV.
//! Tables are byte-identical at any `--jobs` count. Each run also writes
//! `BENCH_repro.json` (wall-clock per experiment, simulated-round
//! throughput) next to the tables so performance has a trajectory.

use repro_bench::experiments::{
    ablate, chaos, common, fig1, fig3, fig4, fig5, giant, scaling, serve, table12, table34, table5,
    table6, verify, workloads,
};
use repro_bench::{Scale, Sched, Table};
use simt::GpuConfig;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

struct Options {
    scale: Scale,
    out: PathBuf,
    sched: Sched,
}

/// Per-experiment (name, wall-clock seconds, simulated rounds), in
/// execution order.
type Timings = Vec<(String, f64, u64)>;

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let mut experiment: Option<String> = None;
    let mut scale: Option<Scale> = None;
    let mut out = PathBuf::from("results");
    let mut sched = Sched::serial();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--scale" => match args.next().and_then(|v| v.parse::<f64>().ok()) {
                Some(f) if f > 0.0 && f <= 1.0 => scale = Some(Scale::new(f)),
                _ => return usage("--scale needs a number in (0, 1]"),
            },
            "--full" => scale = Some(Scale::FULL),
            "--jobs" => match args.next().and_then(|v| v.parse::<usize>().ok()) {
                Some(0) => sched = Sched::auto(),
                Some(n) => sched = Sched::new(n),
                None => return usage("--jobs needs a non-negative integer"),
            },
            "--out" => match args.next() {
                Some(dir) => out = PathBuf::from(dir),
                None => return usage("--out needs a directory"),
            },
            "--help" | "-h" => return usage(""),
            name if experiment.is_none() && !name.starts_with('-') => {
                experiment = Some(name.to_owned());
            }
            other => return usage(&format!("unknown argument {other:?}")),
        }
    }
    let Some(experiment) = experiment else {
        return usage("missing experiment name");
    };
    // `giant` is pinned at full scale unless overridden — the experiment
    // exists to measure the >=100M-edge regime, where the naive leg's
    // O(E) edge-list materialization actually bites and the memory
    // envelope is worth reporting. Every other experiment keeps the
    // quick default.
    let scale = scale.unwrap_or(if experiment == "giant" {
        Scale::FULL
    } else {
        Scale::DEFAULT
    });
    let opts = Options { scale, out, sched };
    eprintln!(
        "# scale = {} (vertex counts at {:.1}% of the paper's), jobs = {} ({} host cores)",
        opts.scale.fraction(),
        opts.scale.fraction() * 100.0,
        opts.sched.jobs(),
        common::host_cores(),
    );

    let start = Instant::now();
    let mut timings = Timings::new();
    let known = run_experiment(&experiment, &opts, &mut timings);
    if !known {
        return usage(&format!("unknown experiment {experiment:?}"));
    }
    let total = start.elapsed().as_secs_f64();
    if timings.is_empty() {
        timings.push((experiment.clone(), total, common::rounds_simulated()));
    }
    write_bench(&opts, &experiment, total, &timings);
    ExitCode::SUCCESS
}

fn usage(error: &str) -> ExitCode {
    if !error.is_empty() {
        eprintln!("error: {error}\n");
    }
    eprintln!(
        "usage: repro <experiment> [--scale F | --full] [--jobs N] [--out DIR]\n\
         experiments: table1 table2 table3 table4 table5 table6 \
         fig1 fig3 fig4 fig5 scaling ablate-matrix ablate-stealing ablate-chunk \
         ablate-occupancy chaos workloads giant serve verify all"
    );
    if error.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Writes `BENCH_repro.json` into the output directory: total and
/// per-experiment wall-clock plus simulated-round throughput, the
/// process-wide slowest simulation point, and the effective worker
/// count (`--jobs 0` resolves to one per CPU; requests above the
/// available parallelism are clamped to it). The schema is documented
/// in `EXPERIMENTS.md`. Timings naturally vary run to run — every
/// *table* stays byte-identical.
fn write_bench(opts: &Options, command: &str, total: f64, timings: &Timings) {
    let rounds = common::rounds_simulated();
    let per_experiment: Vec<String> = timings
        .iter()
        .map(|(name, secs, exp_rounds)| {
            format!(
                "    {{\"name\": \"{name}\", \"seconds\": {secs:.3}, \
                 \"rounds\": {exp_rounds}, \"rounds_per_second\": {:.0}}}",
                *exp_rounds as f64 / secs.max(1e-9),
            )
        })
        .collect();
    let slowest = match common::slowest_point() {
        Some((name, secs)) => {
            format!("{{\"name\": \"{name}\", \"seconds\": {secs:.3}}}")
        }
        None => "null".to_owned(),
    };
    let recovery = format!(
        "{{\"faults_injected\": {}, \"aborts_recovered\": {}, \"rounds_replayed\": {}}}",
        common::faults_injected(),
        common::aborts_recovered(),
        common::rounds_replayed(),
    );
    let workload_entries: Vec<String> = common::workload_stats()
        .iter()
        .map(|(name, w_rounds, wall, retry_free)| {
            format!(
                "    {{\"name\": \"{name}\", \"rounds\": {w_rounds}, \
                 \"rounds_per_second\": {:.0}, \"retry_free\": {retry_free}}}",
                *w_rounds as f64 / wall.max(1e-9),
            )
        })
        .collect();
    let workloads_json = if workload_entries.is_empty() {
        "[]".to_owned()
    } else {
        format!("[\n{}\n  ]", workload_entries.join(",\n"))
    };
    // Engine-profile aggregate (events summed, footprint gauges maxed
    // across every profiled run) plus the process peak RSS: the memory
    // envelope of the run. Null if nothing recorded a profile.
    let profile = match common::profile_summary() {
        Some((p, runs, recycled)) => format!(
            "{{\"runs\": {runs}, \"arena_recycled_runs\": {recycled}, \
             \"peak_arena_words\": {}, \"peak_meta_bytes\": {}, \
             \"peak_demand_zeroed_words\": {}, \"park_events\": {}, \
             \"park_replay_cycles\": {}, \"spurious_wakes\": {}, \
             \"peak_line_table_bytes\": {}, \
             \"peak_round_lines\": {}, \"peak_rss_bytes\": {}}}",
            p.arena_words,
            p.meta_bytes,
            p.demand_zeroed_words,
            p.park_events,
            p.park_replay_cycles,
            p.spurious_wakes,
            p.line_table_bytes,
            p.peak_round_lines,
            common::peak_rss_bytes(),
        ),
        None => "null".to_owned(),
    };
    // Giant-pipeline wall clock (tuned vs naive construction+setup).
    let giant = match common::giant_bench() {
        Some(g) => format!(
            "{{\"edges\": {}, \"naive_build_seconds\": {:.3}, \
             \"naive_setup_seconds\": {:.3}, \"tuned_build_seconds\": {:.3}, \
             \"tuned_setup_seconds\": {:.3}, \"naive_edges_per_second\": {:.0}, \
             \"tuned_edges_per_second\": {:.0}, \"speedup\": {:.3}}}",
            g.edges,
            g.naive_build_seconds,
            g.naive_setup_seconds,
            g.tuned_build_seconds,
            g.tuned_setup_seconds,
            g.naive_edges_per_second(),
            g.tuned_edges_per_second(),
            g.speedup(),
        ),
        None => "null".to_owned(),
    };
    // Serve legs: everything in this section is simulated (cycles,
    // counts, rates over cycles), so unlike the wall-clock sections it
    // is byte-identical across --jobs — CI
    // extracts and diffs it (serve-smoke).
    // An absent percentile (a leg that completed nothing) emits a JSON
    // null, not a fake 0.
    let opt_cycles = |v: Option<u64>| v.map_or_else(|| "null".to_owned(), |v| v.to_string());
    let serve_entries: Vec<String> = common::serve_bench()
        .iter()
        .map(|b| {
            format!(
                "    {{\"leg\": \"{}\", \"queries\": {}, \"completed\": {}, \
                 \"retried\": {}, \"batched\": {}, \"shed\": {}, \"quarantined\": {}, \
                 \"rejected_queue_full\": {}, \"rejected_quarantined\": {}, \
                 \"p50_latency_cycles\": {}, \"p99_latency_cycles\": {}, \
                 \"makespan_cycles\": {}, \"throughput_qps\": {:.3}, \
                 \"shed_rate\": {:.4}, \"quarantine_rate\": {:.4}}}",
                b.leg,
                b.queries,
                b.completed,
                b.retried,
                b.batched,
                b.shed,
                b.quarantined,
                b.rejected_queue_full,
                b.rejected_quarantined,
                opt_cycles(b.p50_latency_cycles),
                opt_cycles(b.p99_latency_cycles),
                b.makespan_cycles,
                b.throughput_qps,
                b.shed_rate,
                b.quarantine_rate,
            )
        })
        .collect();
    let serve_json = if serve_entries.is_empty() {
        "null".to_owned()
    } else {
        format!("[\n{}\n  ]", serve_entries.join(",\n"))
    };
    // Top-level wall-clock summary: how long the whole invocation took
    // and what parallelism (jobs, host cores) it ran with. CI fails a
    // BENCH artifact that lacks this.
    let wall_clock = format!(
        "{{\"total_seconds\": {total:.3}, \"jobs\": {}, \"host_cores\": {}}}",
        opts.sched.jobs(),
        common::host_cores(),
    );
    let json = format!(
        "{{\n  \"command\": \"{command}\",\n  \"scale\": {},\n  \"jobs\": {},\n  \
         \"wall_clock\": {wall_clock},\n  \
         \"total_seconds\": {total:.3},\n  \"rounds_simulated\": {rounds},\n  \
         \"rounds_per_second\": {:.0},\n  \"slowest_point\": {slowest},\n  \
         \"recovery\": {recovery},\n  \"workloads\": {workloads_json},\n  \
         \"profile\": {profile},\n  \"giant\": {giant},\n  \
         \"serve\": {serve_json},\n  \
         \"experiments\": [\n{}\n  ]\n}}\n",
        opts.scale.fraction(),
        opts.sched.jobs(),
        rounds as f64 / total.max(1e-9),
        per_experiment.join(",\n"),
    );
    if let Err(e) = std::fs::create_dir_all(&opts.out)
        .and_then(|()| std::fs::write(opts.out.join("BENCH_repro.json"), &json))
    {
        eprintln!("warning: could not write BENCH_repro.json: {e}");
        return;
    }
    eprintln!(
        "# {total:.1}s wall, {rounds} rounds simulated -> {}",
        opts.out.join("BENCH_repro.json").display()
    );
}

fn emit(table: &Table, opts: &Options, stem: &str) {
    println!("{}", table.to_markdown());
    if let Err(e) = table.write_to(&opts.out, stem) {
        eprintln!("warning: could not write {stem}: {e}");
    }
}

fn run_experiment(name: &str, opts: &Options, timings: &mut Timings) -> bool {
    let sched = &opts.sched;
    match name {
        "table1" => emit(&table12::table1(opts.scale, sched), opts, "table1"),
        "table2" => emit(&table12::table2(opts.scale, sched), opts, "table2"),
        "table3" | "table4" => {
            let times = table34::measure(opts.scale, sched);
            emit(&table34::table3(&times), opts, "table3");
            emit(&table34::table4(&times), opts, "table4");
        }
        "table5" => {
            let rows = table5::measure(opts.scale, sched);
            emit(&table5::table(&rows), opts, "table5");
        }
        "table6" => {
            let rows = table6::measure(opts.scale, sched);
            emit(&table6::table(&rows), opts, "table6");
        }
        "fig3" => {
            emit(
                &fig3::profile_table(opts.scale, sched),
                opts,
                "fig3_profiles",
            );
            emit(
                &fig3::saturation_table(opts.scale, sched),
                opts,
                "fig3_saturation",
            );
        }
        "fig1" | "fig5" => run_retry_figures(opts),
        "fig4" => run_fig4(opts),
        "verify" => {
            let verdicts = verify::run_checks(opts.scale, sched);
            emit(&verify::table(&verdicts), opts, "verify");
            if verdicts.iter().any(|v| !v.pass) {
                eprintln!("verification FAILED");
                std::process::exit(1);
            }
            eprintln!("verification PASSED: every headline claim reproduces");
        }
        "scaling" => {
            emit(
                &scaling::table(opts.scale, &GpuConfig::fiji(), sched),
                opts,
                "scaling_fiji",
            );
            emit(
                &scaling::table(opts.scale, &GpuConfig::spectre(), sched),
                opts,
                "scaling_spectre",
            );
        }
        "ablate-matrix" => {
            emit(
                &ablate::matrix_table(opts.scale, &GpuConfig::fiji(), sched),
                opts,
                "ablate_matrix_fiji",
            );
        }
        "ablate-stealing" => {
            emit(
                &ablate::stealing_table(opts.scale, &GpuConfig::fiji(), sched),
                opts,
                "ablate_stealing_fiji",
            );
        }
        "ablate-chunk" => {
            emit(
                &ablate::chunk_table(opts.scale, &GpuConfig::fiji(), sched),
                opts,
                "ablate_chunk_fiji",
            );
            emit(
                &ablate::chunk_table(opts.scale, &GpuConfig::spectre(), sched),
                opts,
                "ablate_chunk_spectre",
            );
        }
        "ablate-occupancy" => {
            emit(
                &ablate::occupancy_table(opts.scale, &GpuConfig::fiji(), sched),
                opts,
                "ablate_occupancy_fiji",
            );
        }
        "chaos" => {
            let rows = chaos::measure(opts.scale, sched);
            emit(&chaos::table(&rows), opts, "chaos");
        }
        "workloads" => {
            let rows = workloads::measure(opts.scale, sched);
            emit(&workloads::table(&rows), opts, "workloads");
        }
        "serve" => {
            let results = serve::measure(opts.scale, sched);
            for (leg, log) in &results {
                emit(
                    &log.table(&format!("Serve [{}]: per-query outcomes", leg.name)),
                    opts,
                    &format!("serve_{}", leg.name),
                );
                emit(
                    &log.fairness_table(&format!(
                        "Serve [{}]: per-class tenant fairness (Jain over completion rates)",
                        leg.name
                    )),
                    opts,
                    &format!("serve_fairness_{}", leg.name),
                );
            }
            emit(&serve::summary_table(&results), opts, "serve_summary");
        }
        // Not part of "all": the giant pipeline is serial by design (the
        // eager-zeroing A/B toggle is process-global) and its pinned
        // full-scale default builds a 134M-edge graph twice.
        "giant" => {
            let rows = giant::measure(opts.scale);
            emit(&giant::table(&rows), opts, "giant");
        }
        "all" => {
            for exp in [
                "table1",
                "table2",
                "table3",
                "table5",
                "table6",
                "fig3",
                "fig1",
                "fig4",
                "scaling",
                "ablate-matrix",
                "ablate-stealing",
                "ablate-chunk",
                "ablate-occupancy",
                "chaos",
                "workloads",
                "serve",
            ] {
                eprintln!("== {exp} ==");
                let start = Instant::now();
                let rounds_before = common::rounds_simulated();
                run_experiment(exp, opts, timings);
                timings.push((
                    exp.to_owned(),
                    start.elapsed().as_secs_f64(),
                    common::rounds_simulated() - rounds_before,
                ));
            }
        }
        _ => return false,
    }
    true
}

/// Figures 1 and 5 share their sweeps (BASE failures and BASE/RF-AN
/// atomic ratios over the same workgroup grids).
fn run_retry_figures(opts: &Options) {
    for (gpu, _) in common::platforms() {
        let sweeps: Vec<_> = ptq_graph::Dataset::FIG5_THREE
            .into_iter()
            .map(|dataset| {
                eprintln!("  sweeping {} on {} ...", dataset.spec().name, gpu.name);
                let graph = common::DatasetCache::global().get(dataset, opts.scale);
                let points =
                    common::sweep_dataset(&gpu, &graph, &gpu.workgroup_sweep(), &opts.sched);
                (dataset, points)
            })
            .collect();
        let gpu_l = gpu.name.to_lowercase();
        emit(
            &fig1::panel_table(&gpu, &sweeps),
            opts,
            &format!("fig1_{gpu_l}"),
        );
        emit(
            &fig5::panel_table(&gpu, &sweeps),
            opts,
            &format!("fig5_{gpu_l}"),
        );
        if let Err(e) =
            fig1::panel_chart(&gpu, &sweeps).write_to(&opts.out, &format!("fig1_{gpu_l}"))
        {
            eprintln!("warning: fig1 svg: {e}");
        }
        if let Err(e) =
            fig5::panel_chart(&gpu, &sweeps).write_to(&opts.out, &format!("fig5_{gpu_l}"))
        {
            eprintln!("warning: fig5 svg: {e}");
        }
    }
}

fn run_fig4(opts: &Options) {
    for (gpu, _) in common::platforms() {
        for dataset in ptq_graph::Dataset::MAIN_SIX {
            eprintln!("  fig4 panel: {} / {} ...", gpu.name, dataset.spec().name);
            let points = fig4::sweep_panel(&gpu, dataset, opts.scale, &opts.sched);
            let table = fig4::panel_table(&gpu, dataset, &points);
            let stem = format!(
                "fig4_{}_{}",
                gpu.name.to_lowercase(),
                dataset.spec().name.replace(['.', '-'], "_").to_lowercase()
            );
            emit(&table, opts, &stem);
            if let Err(e) = fig4::panel_chart(&gpu, dataset, &points).write_to(&opts.out, &stem) {
                eprintln!("warning: fig4 svg: {e}");
            }
            if dataset == ptq_graph::Dataset::Synthetic {
                let max = *gpu.workgroup_sweep().last().unwrap();
                eprintln!(
                    "  RF/AN scaling efficiency on synthetic/{}: {:.2} of ideal",
                    gpu.name,
                    fig4::rfan_scaling_efficiency(&points, max)
                );
            }
        }
    }
}
