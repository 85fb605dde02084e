//! `repro` — regenerates every table and figure of the paper.
//!
//! ```text
//! repro <experiment> [--scale F | --full] [--jobs N] [--out DIR]
//!
//! options:
//!   --scale F    dataset scale in (0,1]   (default 0.05)
//!   --full       shorthand for --scale 1.0 (the paper's sizes; slow)
//!   --jobs N     worker-thread cap (default 1; 0 = one per CPU).
//!                The effective count never exceeds the machine's
//!                available parallelism — points are CPU-bound, so
//!                oversubscribing only adds scheduling overhead.
//!   --out DIR    where to write .md/.csv/.svg   (default results/)
//! ```
//!
//! `repro --help` lists the experiments (the `EXPERIMENTS` table below).
//! Every table is printed to stdout and written as markdown + CSV, every
//! figure additionally as SVG. Everything written is simulated, so the
//! whole output directory is byte-identical at any `--jobs` count; host
//! time and memory are measured by `benchmark/`, never here. A failed
//! write does not stop the run but makes the process exit 1.

use repro_bench::experiments::{
    ablate, chaos, common, fig1, fig3, fig4, fig5, giant, scaling, serve, table12, table34, table5,
    table6, verify, workloads,
};
use repro_bench::{Chart, Scale, Sched, Table};
use simt::GpuConfig;
use std::cell::Cell;
use std::path::PathBuf;
use std::process::ExitCode;

struct Options {
    scale: Scale,
    out: PathBuf,
    sched: Sched,
    /// Set by a failed artifact write or a failed `verify` verdict; the
    /// run carries on and the process exits 1 at the end.
    failed: Cell<bool>,
}

/// One runnable experiment. Dispatch, `all` and `--help` all read this
/// one table.
struct Experiment {
    name: &'static str,
    /// A second name for experiments that produce two artifacts from one
    /// measurement (`table4` runs `table3`, `fig5` runs `fig1`).
    alias: Option<&'static str>,
    in_all: bool,
    run: fn(&Options),
}

const fn experiment(
    name: &'static str,
    alias: Option<&'static str>,
    in_all: bool,
    run: fn(&Options),
) -> Experiment {
    Experiment {
        name,
        alias,
        in_all,
        run,
    }
}

const EXPERIMENTS: &[Experiment] = &[
    experiment("table1", None, true, run_table1),
    experiment("table2", None, true, run_table2),
    experiment("table3", Some("table4"), true, run_table34),
    experiment("table5", None, true, run_table5),
    experiment("table6", None, true, run_table6),
    experiment("fig3", None, true, run_fig3),
    experiment("fig1", Some("fig5"), true, run_retry_figures),
    experiment("fig4", None, true, run_fig4),
    experiment("scaling", None, true, run_scaling),
    experiment("ablate-matrix", None, true, run_ablate_matrix),
    experiment("ablate-stealing", None, true, run_ablate_stealing),
    experiment("ablate-chunk", None, true, run_ablate_chunk),
    experiment("ablate-occupancy", None, true, run_ablate_occupancy),
    // Seeded fault injection + checkpoint/resume recovery.
    experiment("chaos", None, true, run_chaos),
    // All four workloads (BFS/SSSP/CC/PR-delta) against their oracles.
    experiment("workloads", None, true, run_workloads),
    // The giant-family scale point (>= 100M edges under --full).
    experiment("giant", None, true, run_giant),
    // The overload-safe serving core over seeded arrival traces.
    experiment("serve", None, true, run_serve),
    // Machine-checked reproduction verdicts; exits 1 on any FAIL.
    experiment("verify", None, false, run_verify),
];

/// The experiments `name` selects, in execution order: one table entry
/// (by name or alias), or every `in_all` entry for `all`.
fn select(name: &str) -> Vec<&'static Experiment> {
    EXPERIMENTS
        .iter()
        .filter(|e| match name {
            "all" => e.in_all,
            _ => e.name == name || e.alias == Some(name),
        })
        .collect()
}

/// Parses the command line (without the program name). `Err` carries the
/// usage error; an empty one is a plain `--help`.
fn parse(
    mut args: impl Iterator<Item = String>,
) -> Result<(Vec<&'static Experiment>, Options), String> {
    let mut name: Option<String> = None;
    let mut scale = Scale::DEFAULT;
    let mut out = PathBuf::from("results");
    let mut sched = Sched::serial();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--scale" => match args.next().and_then(|v| v.parse::<f64>().ok()) {
                Some(f) if f > 0.0 && f <= 1.0 => scale = Scale::new(f),
                _ => return Err("--scale needs a number in (0, 1]".to_owned()),
            },
            "--full" => scale = Scale::FULL,
            "--jobs" => match args.next().and_then(|v| v.parse::<usize>().ok()) {
                Some(0) => sched = Sched::auto(),
                Some(n) => sched = Sched::new(n),
                None => return Err("--jobs needs a non-negative integer".to_owned()),
            },
            "--out" => match args.next() {
                Some(dir) => out = PathBuf::from(dir),
                None => return Err("--out needs a directory".to_owned()),
            },
            "--help" | "-h" => return Err(String::new()),
            arg if name.is_none() && !arg.starts_with('-') => name = Some(arg.to_owned()),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let name = name.ok_or("missing experiment name")?;
    let selected = select(&name);
    if selected.is_empty() {
        return Err(format!("unknown experiment {name:?}"));
    }
    let opts = Options {
        scale,
        out,
        sched,
        failed: Cell::new(false),
    };
    Ok((selected, opts))
}

fn main() -> ExitCode {
    let (selected, opts) = match parse(std::env::args().skip(1)) {
        Ok(parsed) => parsed,
        Err(error) => return usage(&error),
    };
    eprintln!(
        "# scale = {} (vertex counts at {:.1}% of the paper's), jobs = {} ({} host cores)",
        opts.scale.fraction(),
        opts.scale.fraction() * 100.0,
        opts.sched.jobs(),
        Sched::auto().jobs(),
    );
    for exp in &selected {
        if selected.len() > 1 {
            eprintln!("== {} ==", exp.name);
        }
        (exp.run)(&opts);
    }
    if opts.failed.get() {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn usage(error: &str) -> ExitCode {
    if !error.is_empty() {
        eprintln!("error: {error}\n");
    }
    let names: Vec<String> = EXPERIMENTS
        .iter()
        .map(|e| match e.alias {
            Some(alias) => format!("{}|{alias}", e.name),
            None => e.name.to_owned(),
        })
        .collect();
    eprintln!(
        "usage: repro <experiment> [--scale F | --full] [--jobs N] [--out DIR]\n\
         experiments: {} all (= everything but verify)",
        names.join(" ")
    );
    if error.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Prints `table` and writes it as `<stem>.md` + `<stem>.csv`.
fn emit(table: &Table, opts: &Options, stem: &str) {
    println!("{}", table.to_markdown());
    if let Err(e) = table.write_to(&opts.out, stem) {
        eprintln!("error: could not write {stem}.md/.csv: {e}");
        opts.failed.set(true);
    }
}

/// Writes `chart` as `<stem>.svg`.
fn emit_chart(chart: &Chart, opts: &Options, stem: &str) {
    if let Err(e) = chart.write_to(&opts.out, stem) {
        eprintln!("error: could not write {stem}.svg: {e}");
        opts.failed.set(true);
    }
}

fn run_table1(opts: &Options) {
    emit(&table12::table1(opts.scale, &opts.sched), opts, "table1");
}

fn run_table2(opts: &Options) {
    emit(&table12::table2(opts.scale, &opts.sched), opts, "table2");
}

fn run_table34(opts: &Options) {
    let times = table34::measure(opts.scale, &opts.sched);
    emit(&table34::table3(&times), opts, "table3");
    emit(&table34::table4(&times), opts, "table4");
}

fn run_table5(opts: &Options) {
    let rows = table5::measure(opts.scale, &opts.sched);
    emit(&table5::table(&rows), opts, "table5");
}

fn run_table6(opts: &Options) {
    let rows = table6::measure(opts.scale, &opts.sched);
    emit(&table6::table(&rows), opts, "table6");
}

fn run_fig3(opts: &Options) {
    let profiles = fig3::profile_table(opts.scale, &opts.sched);
    emit(&profiles, opts, "fig3_profiles");
    let saturation = fig3::saturation_table(opts.scale, &opts.sched);
    emit(&saturation, opts, "fig3_saturation");
}

fn run_scaling(opts: &Options) {
    for (gpu, _) in common::platforms() {
        let table = scaling::table(opts.scale, &gpu, &opts.sched);
        let stem = format!("scaling_{}", gpu.name.to_lowercase());
        emit(&table, opts, &stem);
    }
}

fn run_ablate_matrix(opts: &Options) {
    let table = ablate::matrix_table(opts.scale, &GpuConfig::fiji(), &opts.sched);
    emit(&table, opts, "ablate_matrix_fiji");
}

fn run_ablate_stealing(opts: &Options) {
    let table = ablate::stealing_table(opts.scale, &GpuConfig::fiji(), &opts.sched);
    emit(&table, opts, "ablate_stealing_fiji");
}

fn run_ablate_chunk(opts: &Options) {
    for (gpu, _) in common::platforms() {
        let table = ablate::chunk_table(opts.scale, &gpu, &opts.sched);
        let stem = format!("ablate_chunk_{}", gpu.name.to_lowercase());
        emit(&table, opts, &stem);
    }
}

fn run_ablate_occupancy(opts: &Options) {
    let table = ablate::occupancy_table(opts.scale, &GpuConfig::fiji(), &opts.sched);
    emit(&table, opts, "ablate_occupancy_fiji");
}

fn run_chaos(opts: &Options) {
    let rows = chaos::measure(opts.scale, &opts.sched);
    emit(&chaos::table(&rows), opts, "chaos");
}

fn run_workloads(opts: &Options) {
    let rows = workloads::measure(opts.scale, &opts.sched);
    emit(&workloads::table(&rows), opts, "workloads");
}

fn run_giant(opts: &Options) {
    emit(&giant::table(&giant::measure(opts.scale)), opts, "giant");
}

fn run_serve(opts: &Options) {
    let results = serve::measure(opts.scale, &opts.sched);
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

fn run_verify(opts: &Options) {
    let verdicts = verify::run_checks(opts.scale, &opts.sched);
    emit(&verify::table(&verdicts), opts, "verify");
    if verdicts.iter().any(|v| !v.pass) {
        eprintln!("verification FAILED");
        opts.failed.set(true);
    } else {
        eprintln!("verification PASSED: every headline claim reproduces");
    }
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
        emit_chart(
            &fig1::panel_chart(&gpu, &sweeps),
            opts,
            &format!("fig1_{gpu_l}"),
        );
        emit_chart(
            &fig5::panel_chart(&gpu, &sweeps),
            opts,
            &format!("fig5_{gpu_l}"),
        );
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
            emit_chart(&fig4::panel_chart(&gpu, dataset, &points), opts, &stem);
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

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> impl Iterator<Item = String> + '_ {
        line.split_whitespace().map(str::to_owned)
    }

    #[test]
    fn all_is_every_experiment_but_verify() {
        let all: Vec<_> = select("all").iter().map(|e| e.name).collect();
        let but_verify: Vec<_> = EXPERIMENTS
            .iter()
            .map(|e| e.name)
            .filter(|&n| n != "verify")
            .collect();
        assert_eq!(all, but_verify);
        assert!(all.contains(&"giant"));
        // Names and aliases are unique and each selects its own entry.
        for e in EXPERIMENTS {
            for name in std::iter::once(e.name).chain(e.alias) {
                let hit = select(name);
                assert_eq!(hit.len(), 1, "{name}");
                assert_eq!(hit[0].name, e.name);
            }
        }
    }

    #[test]
    fn unknown_names_and_arguments_are_usage_errors() {
        let err = |line: &str| parse(args(line)).err().expect(line);
        assert!(err("table7").contains("unknown experiment"));
        assert!(err("").contains("missing experiment"));
        assert!(err("table1 --engine-workers 2").contains("unknown argument"));
        assert!(err("table1 --scale 0").contains("--scale"));
        assert_eq!(err("--help"), "");
        let (selected, opts) = parse(args("giant --jobs 1")).expect("giant parses");
        assert_eq!(selected[0].name, "giant");
        assert_eq!(
            opts.scale,
            Scale::DEFAULT,
            "giant has no default of its own"
        );
    }
}
