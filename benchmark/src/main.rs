//! `ptq-benchmark` — the repo benchmark: six workloads on two clocks.
//!
//! ```text
//! ptq-benchmark --workload W [--seed S] [--seconds N] [--trace 0|1]   one run, one process
//! ptq-benchmark [suite] [--seed S] [--seconds N] [--runs K] [--out F] every workload, untraced then traced
//! ptq-benchmark compare A.jsonl B.jsonl                               two suite files side by side
//! ptq-benchmark spec                                                  print BENCHMARK.json
//! ```
//!
//! A run prints every metric by name and unit, then one JSON object as
//! its last line: `correct`, `attempted`, `failed`, `metrics` — the
//! end-to-end metrics with `--trace 0`, the per-layer ones with
//! `--trace 1`. A failed check makes the exit code non-zero.

mod compare;
mod harness;
mod json;
mod layers;
mod spec;
mod stats;
mod trace;
mod workloads;

use harness::{out_dir, RunOptions};
use json::Json;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;
use workloads::bfs::{BfsRegime, Saturated, Starved};

const USAGE: &str = "usage: ptq-benchmark [--workload W] [--seed S] [--seconds N] [--trace 0|1] \
                     | suite [--runs K] [--out FILE] | compare A B | spec";

/// Parses a seed: decimal, or hex with a `0x` prefix.
fn parse_seed(text: &str) -> Option<u64> {
    match text.strip_prefix("0x").or_else(|| text.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => text.parse().ok(),
    }
}

struct Cli {
    /// The workload of a single run; `None` for the suite.
    workload: Option<&'static spec::WorkloadSpec>,
    seed: u64,
    seconds: f64,
    trace: bool,
    setup_only: bool,
    runs: usize,
    out: Option<String>,
    positional: Vec<String>,
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        seed: spec::DEFAULT_SEED,
        seconds: spec::RUN_SECONDS as f64,
        trace: false,
        setup_only: false,
        runs: 1,
        out: None,
        positional: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        let bad = |flag: &str, v: &str| format!("{flag}: cannot read {v:?}");
        match arg.as_str() {
            "--workload" => {
                let v = value(arg)?;
                let names: Vec<&str> = spec::WORKLOADS.iter().map(|w| w.name).collect();
                let known = spec::workload(&v)
                    .ok_or_else(|| format!("unknown workload {v:?}; one of {names:?}"))?;
                cli.workload = Some(known);
            }
            "--seed" => {
                let v = value(arg)?;
                cli.seed = parse_seed(&v).ok_or_else(|| bad(arg, &v))?;
            }
            "--seconds" => {
                let v = value(arg)?;
                cli.seconds = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| bad(arg, &v))?;
            }
            "--trace" => {
                cli.trace = match value(arg)?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(bad(arg, v)),
                }
            }
            "--runs" => {
                let v = value(arg)?;
                cli.runs = v
                    .parse()
                    .ok()
                    .filter(|&n| n > 0)
                    .ok_or_else(|| bad(arg, &v))?;
            }
            "--out" => cli.out = Some(value(arg)?),
            "--setup-only" => cli.setup_only = true,
            flag if flag.starts_with("--") => return Err(format!("unknown option {flag}")),
            _ => cli.positional.push(arg.clone()),
        }
    }
    Ok(cli)
}

/// One workload in this process.
fn run_one(opts: &RunOptions, started: Instant) -> bool {
    use workloads::{graph_build::GraphBuild, host_queue::HostQueueOps, mix::Mix, serve::Serve};
    match opts.workload.name {
        "bfs_saturated" => harness::run::<BfsRegime<Saturated>>(opts, started),
        "bfs_starved" => harness::run::<BfsRegime<Starved>>(opts, started),
        "workload_mix" => harness::run::<Mix>(opts, started),
        "serve_open_loop" => harness::run::<Serve>(opts, started),
        "graph_build_setup" => harness::run::<GraphBuild>(opts, started),
        "host_queue_ops" => harness::run::<HostQueueOps>(opts, started),
        other => unreachable!("{other} is in the spec and has no implementation"),
    }
}

/// Every workload, each run in a child process of its own (so peak RSS
/// and cold arenas are per workload), untraced then traced, `runs`
/// times. Appends one JSON line per run to the suite file.
fn suite(cli: &Cli) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let dir = out_dir();
    let file = cli
        .out
        .clone()
        .unwrap_or_else(|| dir.join("suite.jsonl").to_string_lossy().into_owned());
    if let Some(parent) = std::path::Path::new(&file).parent() {
        std::fs::create_dir_all(parent).map_err(|e| format!("{}: {e}", parent.display()))?;
    }
    let mut lines = String::new();
    let mut passed = true;
    for run in 0..cli.runs {
        for workload in spec::WORKLOADS.map(|w| w.name) {
            for trace in ["0", "1"] {
                println!(
                    "=== {workload}  run {}/{}  --trace {trace}",
                    run + 1,
                    cli.runs
                );
                let output = Command::new(&exe)
                    .args(["--workload", workload, "--trace", trace])
                    .args(["--seed", &cli.seed.to_string()])
                    .args(["--seconds", &cli.seconds.to_string()])
                    .stdin(Stdio::null())
                    .stderr(Stdio::inherit())
                    .output()
                    .map_err(|e| format!("spawning {workload}: {e}"))?;
                let stdout = String::from_utf8_lossy(&output.stdout);
                let (report, result) = stdout
                    .trim_end()
                    .rsplit_once('\n')
                    .unwrap_or(("", stdout.trim_end()));
                println!("{report}");
                let Ok(Json::Obj(mut members)) = Json::parse(result) else {
                    println!("FAILED: {workload} printed no result ({})", output.status);
                    passed = false;
                    continue;
                };
                passed &= output.status.success();
                members.insert(0, ("trace".into(), Json::Num(f64::from(trace == "1"))));
                members.insert(0, ("seed".into(), Json::Num(cli.seed as f64)));
                members.insert(0, ("workload".into(), Json::Str(workload.into())));
                lines.push_str(&Json::Obj(members).encode());
                lines.push('\n');
            }
        }
    }
    std::fs::write(&file, lines).map_err(|e| format!("{file}: {e}"))?;
    println!(
        "=== suite {}: results in {file}",
        if passed { "passed" } else { "FAILED" }
    );
    Ok(passed)
}

fn main() -> ExitCode {
    let started = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = parse_cli(&args).and_then(|cli| {
        let positional: Vec<&str> = cli.positional.iter().map(String::as_str).collect();
        match (positional.as_slice(), cli.workload) {
            ([], Some(workload)) => {
                let opts = RunOptions {
                    workload,
                    seed: cli.seed,
                    seconds: cli.seconds,
                    trace: cli.trace,
                    setup_only: cli.setup_only,
                };
                Ok(run_one(&opts, started))
            }
            ([] | ["suite"], None) => suite(&cli),
            (["compare", a, b], None) => compare::compare(a, b),
            (["spec"], None) => {
                print!("{}", spec::benchmark_json().pretty());
                Ok(true)
            }
            _ => Err(USAGE.into()),
        }
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(why) => {
            eprintln!("ptq-benchmark: {why}");
            ExitCode::from(2)
        }
    }
}
