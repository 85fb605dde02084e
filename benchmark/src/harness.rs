//! The timing protocol, shared by every workload.
//!
//! One process measures one workload: build inputs and oracles, make one
//! validated warm-up pass (which also fills the thread-local arena
//! pools), then time whole passes until the run's seconds are used up.
//! Every timed pass must reproduce the warm-up pass's fingerprint — a
//! hash of every launch's values and simulated counters — so a number is
//! never reported from a pass that computed something else.
//!
//! Everything timed runs on one thread (`Sched::serial()`,
//! `engine_workers = 1`). A second thread appears only in two labelled
//! per-layer metrics of the traced run.

use crate::json::{Json, Metrics};
use crate::layers::{PtWorkload, Run, Variant};
use crate::spec::{self, Clock, WorkloadSpec};
use crate::stats::{median, quartiles, Fingerprint};
use crate::trace::{seconds_by_name, to_jsonl, Recorder, Span};
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::Instant;

/// What one pass over a workload produced.
#[derive(Debug, Default)]
pub struct Pass {
    /// Hash of every output and simulated counter of the pass.
    pub fingerprint: Fingerprint,
    /// Operations attempted (launches, queries, builds, queue fills).
    pub attempted: u64,
    /// What went wrong, one line each; an operation that returned an
    /// error or diverged from its oracle, or a broken invariant.
    pub failures: Vec<String>,
    /// Exact per-layer metrics read from what the layers returned.
    /// Host seconds come from spans instead (see `Workload::host_layers`).
    pub layers: Metrics,
}

impl Pass {
    pub fn fail(&mut self, what: impl Into<String>) {
        self.failures.push(what.into());
    }

    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.layers.insert(name.into(), value);
    }
}

/// One benchmark workload.
pub trait Workload {
    /// Builds inputs and oracles from the seed. Everything here is
    /// set-up time.
    fn build(seed: u64, rec: &mut Recorder) -> Self
    where
        Self: Sized;

    /// One full pass. With `validate`, every output is also checked
    /// against its oracle (the warm-up pass and the traced run do this).
    fn pass(&mut self, rec: &mut Recorder, validate: bool) -> Pass;

    /// The pass that ends set-up. The default is a full validated pass;
    /// a workload whose pass is long may warm up on part of its input
    /// and return `None`, making its first timed pass the reference.
    fn warm_up(&mut self, rec: &mut Recorder) -> Option<Pass> {
        Some(self.pass(rec, true))
    }

    /// Where a timed pass covers part of the input, so that a run times
    /// many of them: one untimed pass over the whole input, made once
    /// after set-up. Its results are the run's exact results, and its
    /// fingerprint the one held against the pinned one.
    fn whole_input(&mut self, _rec: &mut Recorder) -> Option<Pass> {
        None
    }

    /// Host-clock per-layer metrics of one traced pass beyond the
    /// generic rule (span name `x` → metric `x_s`, summed self time):
    /// ratios and sums a workload derives from its spans' `(self
    /// seconds, total seconds)` by name.
    fn host_layers(&self, _self_s: &Metrics, _total_s: &Metrics, _pass: &Pass, _out: &mut Metrics) {
    }

    /// Measurements only the traced run makes (second thread, extra
    /// launches); host-clock per-layer metrics.
    fn traced_extras(&mut self, _out: &mut Metrics) {}
}

/// Simulated counters and reported phase times summed over the launches
/// of a pass.
#[derive(Clone, Copy, Debug, Default)]
pub struct SimTotals {
    pub launches: u64,
    pub rounds: u64,
    pub work_cycles: u64,
    pub global_atomics: u64,
    pub global_mem_ops: u64,
    pub park_events: u64,
    pub park_replay_cycles: u64,
    pub regrow_attempts: u64,
    pub rounds_lost: u64,
    pub arena_words_peak: u64,
    pub demand_zeroed_words: u64,
    /// Σ `Run.phases.setup_seconds` — host clock, as the runner reports it.
    pub setup_seconds: f64,
}

impl SimTotals {
    pub fn add(&mut self, run: &Run) {
        self.launches += 1;
        self.rounds += run.metrics.rounds;
        self.work_cycles += run.metrics.work_cycles;
        self.global_atomics += run.metrics.global_atomics;
        self.global_mem_ops += run.metrics.global_mem_ops;
        self.park_events += run.profile.park_events;
        self.park_replay_cycles += run.profile.park_replay_cycles;
        self.arena_words_peak = self.arena_words_peak.max(run.profile.arena_words);
        self.demand_zeroed_words += run.profile.demand_zeroed_words;
        self.setup_seconds += run.phases.setup_seconds;
    }

    /// Adds the queue-full regrow log of a plain (`run_workload`) launch.
    pub fn add_regrows(&mut self, run: &Run) {
        self.regrow_attempts += run.recovery.attempts.len() as u64;
        self.rounds_lost += run.recovery.rounds_lost;
    }

    pub fn emit(&self, pass: &mut Pass) {
        pass.set("simt.engine.rounds", self.rounds as f64);
        pass.set("simt.engine.work_cycles", self.work_cycles as f64);
        pass.set("simt.engine.global_atomics", self.global_atomics as f64);
        pass.set("simt.engine.global_mem_ops", self.global_mem_ops as f64);
        pass.set("simt.engine.park_events", self.park_events as f64);
        pass.set(
            "simt.engine.park_replay_cycles",
            self.park_replay_cycles as f64,
        );
        pass.set("simt.memory.arena_words_peak", self.arena_words_peak as f64);
        pass.set(
            "simt.memory.demand_zeroed_words",
            self.demand_zeroed_words as f64,
        );
        pass.set("simt.memory.warm_setup_s", self.setup_seconds);
        pass.set("pt_bfs.runner.launches", self.launches as f64);
        pass.set("pt_bfs.runner.regrow_attempts", self.regrow_attempts as f64);
        pass.set("pt_bfs.runner.rounds_lost", self.rounds_lost as f64);
    }
}

/// Folds a completed launch into the pass: fingerprint, totals, the
/// retry-free claim. Returns the run for the caller's own accounting.
pub fn account(pass: &mut Pass, totals: &mut SimTotals, op: &str, retry_free: bool, run: &Run) {
    let m = &run.metrics;
    pass.fingerprint.words(&run.values);
    for counter in [
        m.rounds,
        m.work_cycles,
        m.makespan_cycles,
        m.global_atomics,
        m.scheduler_atomics,
        m.cas_attempts,
        m.cas_failures,
        m.queue_empty_retries,
        m.global_mem_ops,
        m.lds_atomics,
        run.seconds.to_bits(),
        run.reached as u64,
    ] {
        pass.fingerprint.word(counter);
    }
    totals.add(run);
    if retry_free && m.total_retries() != 0 {
        pass.fail(format!(
            "{op}: retry-free variant made {} retries",
            m.total_retries()
        ));
    }
}

/// The runner's phases as child spans of its call.
pub fn run_phases<E>(result: &Result<Run, E>) -> Vec<(&'static str, f64)> {
    match result {
        Ok(run) => vec![
            ("simt.memory.setup", run.phases.setup_seconds),
            ("simt.engine.sim", run.phases.sim_seconds),
            ("pt_bfs.runner.readback", run.phases.readback_seconds),
        ],
        Err(_) => Vec::new(),
    }
}

/// Checks `run` against the workload's sequential oracle under a
/// `pt_bfs.runner.validate` span.
pub fn validate<W: PtWorkload>(
    rec: &mut Recorder,
    pass: &mut Pass,
    op: &str,
    workload: &W,
    graph: &crate::layers::Csr,
    run: &Run,
) {
    let verdict = rec.call("pt_bfs.runner.validate", op, || {
        workload.validate(graph, &run.values)
    });
    if let Err((vertex, want, got)) = verdict {
        pass.fail(format!(
            "{op}: oracle mismatch at vertex {vertex}: want {want}, got {got}"
        ));
    }
}

/// Derived engine metrics every simulating workload reports from spans.
pub fn engine_host_layers(self_s: &Metrics, pass: &Pass, out: &mut Metrics) {
    let sim_s = self_s.get("simt.engine.sim").copied().unwrap_or(0.0);
    let count = |name: &str| pass.layers.get(name).copied().unwrap_or(0.0);
    if sim_s > 0.0 {
        out.insert(
            "simt.engine.rounds_per_s".into(),
            count("simt.engine.rounds") / sim_s,
        );
        let work_cycles = count("simt.engine.work_cycles");
        if work_cycles > 0.0 {
            out.insert(
                "simt.engine.ns_per_work_cycle".into(),
                sim_s * 1e9 / work_cycles,
            );
        }
    }
    let unattributed = ["pt_bfs.runner.call", "pt_bfs.recovery.call"]
        .iter()
        .filter_map(|name| self_s.get(*name))
        .sum::<f64>();
    out.insert("pt_bfs.runner.unattributed_s".into(), unattributed);
}

/// `sim_s` of one launch at `engine_workers` 1 ÷ 2, values asserted
/// identical (the traced run's only other use of a second thread).
pub fn par2_speedup(mut launch: impl FnMut(usize) -> Run) -> f64 {
    let serial = launch(1);
    let parallel = launch(2);
    assert_eq!(
        serial.values, parallel.values,
        "engine_workers changed a launch's values"
    );
    assert_eq!(
        serial.metrics, parallel.metrics,
        "engine_workers changed counters"
    );
    serial.phases.sim_seconds / parallel.phases.sim_seconds.max(1e-9)
}

/// Short label of a scheduler variant, as used in metric names.
pub fn variant_key(variant: Variant) -> &'static str {
    match variant {
        Variant::Base => "base",
        Variant::An => "an",
        Variant::RfAn => "rfan",
        Variant::RfOnly => "rfonly",
        Variant::SegRfAn => "segrfan",
    }
}

/// Command-line options of one workload run.
#[derive(Clone, Debug)]
pub struct RunOptions {
    pub workload: &'static WorkloadSpec,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Internal: do the set-up, print its seconds, exit (how the parent
    /// run samples cold set-up more than once).
    pub setup_only: bool,
}

/// Cold set-ups sampled per run: this process's own plus children.
const SETUP_SAMPLES: usize = 5;
/// Fewest timed passes a run reports a median from.
const MIN_PASSES: usize = 3;

fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Where trace and suite files go: `out/` in the directory the package
/// was built from, which `run.sh` builds from on every call.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Samples set-up in a fresh child process, so arenas and page tables
/// are as cold as in this one. The child prints its set-up seconds.
fn child_setup_seconds(opts: &RunOptions) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(exe)
        .args(["--workload", opts.workload.name, "--setup-only"])
        .args(["--seed", &opts.seed.to_string()])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawning the set-up child: {e}"))?;
    if !output.status.success() {
        return Err(format!("set-up child exited with {}", output.status));
    }
    String::from_utf8_lossy(&output.stdout)
        .trim()
        .parse::<f64>()
        .map_err(|e| format!("set-up child printed no time: {e}"))
}

fn print_metric(name: &str, value: f64, note: &str) {
    let m = spec::lookup(name).unwrap_or_else(|| panic!("{name} is not in the spec"));
    let clock = match m.clock {
        Clock::Host => "host",
        Clock::Exact => "exact",
    };
    println!("  {name:<46} {value:>16.6} {:<9} [{clock}] {note}", m.unit);
}

/// The result object's `metrics`: every listed name, as the driver wants
/// them. A metric some other workload measures reads 0 here; that this
/// workload's own are all in `values` is [`unlisted_names`]' business.
fn metrics_json(names: &[spec::MetricSpec], values: &Metrics) -> Json {
    Json::object(names.iter().map(|m| {
        let value = values.get(&m.name).copied().unwrap_or(0.0);
        (
            m.name.clone(),
            Json::object([
                ("value", Json::Num(value)),
                ("unit", Json::Str(m.unit.into())),
            ]),
        )
    }))
}

/// Holds the per-layer names a run produced against the ones the spec
/// gives its workload, so a metric the workload stops measuring is a
/// failure, not a 0. A traced run (`complete`) must produce them all; an
/// untraced one only the exact ones it prints.
fn unlisted_names(workload: &WorkloadSpec, produced: &Metrics, complete: bool) -> Vec<String> {
    let listed = spec::per_layer();
    let mut wrong = Vec::new();
    for m in listed.iter().filter(|m| m.measured_by(workload)) {
        if complete && !produced.contains_key(&m.name) {
            wrong.push(format!("{} was not measured", m.name));
        }
    }
    for name in produced.keys() {
        if !listed
            .iter()
            .any(|m| m.name == *name && m.measured_by(workload))
        {
            let workload = workload.name;
            wrong.push(format!("{name} is not a per-layer metric of {workload}"));
        }
    }
    wrong
}

/// Whether the run's inputs are the ones the workload's fingerprint was
/// pinned on, and what to say when it computed another one.
fn pin_mismatch(opts: &RunOptions, computed: Fingerprint) -> Option<String> {
    let pinned = !opts.workload.seeded || opts.seed == spec::DEFAULT_SEED;
    (pinned && computed.value() != opts.workload.fingerprint).then(|| {
        format!(
            "a pass computes fingerprint {:#018x}, pinned is {:#018x}: outputs or simulated \
             counters changed (`compare` against the parent's suite file shows which)",
            computed.value(),
            opts.workload.fingerprint
        )
    })
}

/// What the timed passes of one run produced.
struct Timed {
    /// Wall seconds of the untraced and of the traced passes.
    untraced: Vec<f64>,
    traced: Vec<f64>,
    /// Host-clock layer metrics of each traced pass.
    traced_layers: Vec<Metrics>,
    /// Spans of the last traced pass, and the share of it the layers'
    /// self times cover (the rest is the harness's own time).
    last_spans: Vec<Span>,
    attributed: f64,
    last_pass: Pass,
    /// Operations attempted and checks failed, warm-up pass included.
    attempted: u64,
    failures: Vec<String>,
    /// Fingerprint of the reference pass, which every other pass matched
    /// or is among the failures.
    reference: Fingerprint,
    /// Device set-up seconds of the warm-up pass, where it set a device
    /// up: the process's first use of device memory, so the cold one.
    cold_setup_s: Option<f64>,
}

/// Times whole passes until the run's seconds are used up (and at least
/// [`MIN_PASSES`] are in), checking each against the reference
/// fingerprint. In a traced run traced and untraced passes alternate, so
/// the price of tracing is measured on the same inputs; both validate,
/// so the difference between them is the tracing alone.
fn timed_passes<W: Workload>(
    workload: &mut W,
    rec: &mut Recorder,
    opts: &RunOptions,
    warm: Option<Pass>,
) -> Timed {
    let mut reference = warm.as_ref().map(|warm| warm.fingerprint);
    let warm = warm.unwrap_or_default();
    let mut t = Timed {
        untraced: Vec::new(),
        traced: Vec::new(),
        traced_layers: Vec::new(),
        last_spans: Vec::new(),
        attributed: 0.0,
        last_pass: Pass::default(),
        attempted: warm.attempted,
        reference: Fingerprint::default(),
        cold_setup_s: warm.layers.get("simt.memory.warm_setup_s").copied(),
        failures: warm.failures,
    };
    let clock = Instant::now();
    loop {
        let counted = if opts.trace { &t.traced } else { &t.untraced };
        if counted.len() >= MIN_PASSES && clock.elapsed().as_secs_f64() >= opts.seconds {
            break;
        }
        let tracing = opts.trace && t.untraced.len() > t.traced.len();
        rec.set_on(tracing);
        let begun = Instant::now();
        let root = rec.enter("harness.pass", opts.workload.name);
        let pass = workload.pass(rec, opts.trace);
        rec.exit(root);
        let wall = begun.elapsed().as_secs_f64();
        t.attempted += pass.attempted;
        t.failures.extend(pass.failures.iter().cloned());
        match reference {
            None => reference = Some(pass.fingerprint),
            Some(expected) if expected != pass.fingerprint => t.failures.push(format!(
                "pass {} computed fingerprint {:#x}, the reference pass {:#x}",
                t.untraced.len() + t.traced.len() + 1,
                pass.fingerprint.value(),
                expected.value()
            )),
            Some(_) => {}
        }
        if tracing {
            let spans = rec.take();
            let (self_s, total_s) = seconds_by_name(&spans);
            // Span name `x` → metric `x_s`, then what the workload derives.
            let mut host: Metrics = self_s
                .iter()
                .map(|(name, seconds)| (format!("{name}_s"), *seconds))
                .filter(|(metric, _)| spec::lookup(metric).is_some())
                .collect();
            workload.host_layers(&self_s, &total_s, &pass, &mut host);
            let root_s = total_s["harness.pass"];
            t.attributed = (root_s - self_s["harness.pass"]) / root_s;
            t.traced_layers.push(host);
            t.traced.push(wall);
            t.last_spans = spans;
        } else {
            t.untraced.push(wall);
        }
        t.last_pass = pass;
    }
    rec.set_on(false);
    t.reference = reference.expect("at least one pass ran");
    t
}

/// The traced run's per-layer metrics: the last pass's exact ones, the
/// per-name median of the traced passes' host-clock ones, `graph.*` from
/// the set-up where no traced pass built a graph, and the extras.
fn layer_metrics<W: Workload>(workload: &mut W, timed: &Timed, setup_spans: &[Span]) -> Metrics {
    let mut layers = timed.last_pass.layers.clone();
    let names: std::collections::BTreeSet<&String> =
        timed.traced_layers.iter().flat_map(|m| m.keys()).collect();
    for name in names {
        let samples: Vec<f64> = timed
            .traced_layers
            .iter()
            .filter_map(|m| m.get(name).copied())
            .collect();
        layers.insert(name.clone(), median(&samples));
    }
    let (setup_self, _) = seconds_by_name(setup_spans);
    for (name, seconds) in &setup_self {
        let metric = format!("{name}_s");
        if name.starts_with("graph.") && spec::lookup(&metric).is_some() {
            layers.entry(metric).or_insert(*seconds);
        }
    }
    if let Some(seconds) = timed.cold_setup_s {
        layers.insert("simt.memory.cold_setup_s".into(), seconds);
    }
    workload.traced_extras(&mut layers);
    layers
}

/// Writes the set-up's and the last traced pass's spans as one file.
fn write_spans(workload: &str, setup: Vec<Span>, pass: Vec<Span>) -> Result<PathBuf, String> {
    let dir = out_dir();
    let file = dir.join(format!("trace_{workload}.jsonl"));
    // The pass's parent indices start again at 0: shift them behind the
    // set-up's spans.
    let base = setup.len();
    let mut spans = setup;
    spans.extend(pass.into_iter().map(|mut span| {
        span.parent = span.parent.map(|p| p + base);
        span
    }));
    std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&file, to_jsonl(&spans)))
        .map_err(|e| format!("writing {}: {e}", file.display()))?;
    Ok(file)
}

/// Runs workload `W` under the protocol and prints its metrics; the last
/// line printed is the result object. Returns whether every check passed.
pub fn run<W: Workload>(opts: &RunOptions, started: Instant) -> bool {
    let mut rec = Recorder::new(opts.trace);
    let setup_root = rec.enter("harness.setup", opts.workload.name);
    let mut workload = W::build(opts.seed, &mut rec);
    let warm = workload.warm_up(&mut rec);
    rec.exit(setup_root);
    let own_setup = started.elapsed().as_secs_f64();
    if opts.setup_only {
        println!("{own_setup}");
        return warm.is_none_or(|p| p.failures.is_empty());
    }
    let setup_spans = rec.take();

    rec.set_on(false);
    let whole = workload.whole_input(&mut rec);
    let mut timed = timed_passes(&mut workload, &mut rec, opts, warm);
    let mut computed = timed.reference;
    let results_of = if whole.is_some() {
        "the whole-input pass"
    } else {
        "the last pass"
    };
    if let Some(whole) = whole {
        computed = whole.fingerprint;
        timed.attempted += whole.attempted;
        timed.failures.extend(whole.failures);
        timed.last_pass.layers = whole.layers;
    }
    if let Some(why) = pin_mismatch(opts, computed) {
        timed.failures.push(why);
    }
    // What went wrong so far is operations that failed; a serve pass has
    // its own account of queries refused.
    let ops_failed = timed.failures.len() as f64 / timed.attempted.max(1) as f64;
    timed
        .last_pass
        .layers
        .entry("e2e.fail_share".into())
        .or_insert(ops_failed);

    // Set-up is an end-to-end metric only: the traced run skips the children.
    let mut setups = vec![own_setup];
    while !opts.trace && setups.len() < SETUP_SAMPLES {
        match child_setup_seconds(opts) {
            Ok(seconds) => setups.push(seconds),
            Err(why) => {
                timed.failures.push(why);
                break;
            }
        }
    }

    let (q1, q3) = quartiles(&timed.untraced);
    let mut values = Metrics::new();
    values.insert("setup_s".into(), median(&setups));
    values.insert("wall_s".into(), median(&timed.untraced));
    values.insert("peak_rss_mb".into(), peak_rss_mib());

    println!(
        "workload {}  seed {:#x}  {} s  clocks: host = wall time of this single-threaded process ({} cores available), exact = simulated cycles and counts",
        opts.workload.name,
        opts.seed,
        opts.seconds,
        std::thread::available_parallelism().map_or(1, |n| n.get()),
    );
    println!("end-to-end (untraced passes):");
    print_metric(
        "setup_s",
        values["setup_s"],
        &format!("median of {} cold set-ups {:?}", setups.len(), setups),
    );
    print_metric(
        "wall_s",
        values["wall_s"],
        &format!(
            "median of {} passes, quartiles {q1:.4}..{q3:.4}, min {:.4}",
            timed.untraced.len(),
            timed.untraced.iter().copied().fold(f64::INFINITY, f64::min)
        ),
    );
    print_metric(
        "peak_rss_mb",
        values["peak_rss_mb"],
        "VmHWM of this process",
    );
    println!("simulated results and counts of {results_of}:");
    for (name, value) in &timed.last_pass.layers {
        print_metric(name, *value, "");
    }

    if opts.trace {
        let layers = layer_metrics(&mut workload, &timed, &setup_spans);
        println!(
            "per-layer, host clock (median of {} traced passes):",
            timed.traced.len()
        );
        for (name, value) in &layers {
            let host = spec::lookup(name).is_some_and(|m| m.clock == Clock::Host);
            if host && !timed.last_pass.layers.contains_key(name) {
                print_metric(name, *value, "");
            }
        }
        println!(
            "trace: {} spans in the last traced pass, layers' self times cover {:.2}% of it, trace_overhead_pct {:.2}",
            timed.last_spans.len(),
            timed.attributed * 100.0,
            (median(&timed.traced) / median(&timed.untraced) - 1.0) * 100.0
        );
        let last_spans = std::mem::take(&mut timed.last_spans);
        match write_spans(opts.workload.name, setup_spans, last_spans) {
            Ok(file) => println!("trace: spans written to {}", file.display()),
            Err(why) => timed.failures.push(why),
        }
        timed
            .failures
            .extend(unlisted_names(opts.workload, &layers, true));
        values = layers;
    } else {
        let exact = &timed.last_pass.layers;
        timed
            .failures
            .extend(unlisted_names(opts.workload, exact, false));
    }

    let (attempted, failures) = (timed.attempted.max(1), &timed.failures);
    for failure in failures {
        println!("FAILED: {failure}");
    }
    println!("ops_attempted {attempted}  ops_failed {}", failures.len());
    let names = if opts.trace {
        spec::per_layer()
    } else {
        spec::end_to_end()
    };
    let result = Json::object([
        ("correct", Json::Bool(failures.is_empty())),
        ("attempted", Json::Num(attempted as f64)),
        ("failed", Json::Num(failures.len() as f64)),
        ("metrics", metrics_json(&names, &values)),
    ]);
    println!("{}", result.encode());
    failures.is_empty()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_result_object_carries_exactly_the_listed_names() {
        let mut values = Metrics::new();
        values.insert("wall_s".into(), 1.5);
        values.insert("not.a.metric".into(), 9.0);
        for names in [spec::end_to_end(), spec::per_layer()] {
            let json = metrics_json(&names, &values);
            let members = json.as_object().unwrap();
            let emitted: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
            let listed: Vec<&str> = names.iter().map(|m| m.name.as_str()).collect();
            assert_eq!(emitted, listed);
            for ((_, member), spec) in members.iter().zip(&names) {
                assert_eq!(member.get("unit").and_then(Json::as_str), Some(spec.unit));
                assert!(member.get("value").and_then(Json::as_f64).is_some());
            }
        }
        let e2e = metrics_json(&spec::end_to_end(), &values);
        assert_eq!(
            e2e.get("wall_s")
                .and_then(|m| m.get("value"))
                .and_then(Json::as_f64),
            Some(1.5)
        );
    }

    #[test]
    fn a_run_must_produce_its_workload_s_metrics_and_no_others() {
        let serve = spec::workload("serve_open_loop").unwrap();
        let mut produced: Metrics = spec::per_layer()
            .iter()
            .filter(|m| m.measured_by(serve))
            .map(|m| (m.name.clone(), 1.0))
            .collect();
        assert_eq!(unlisted_names(serve, &produced, true), [] as [String; 0]);
        // One it stops measuring, one that is another workload's.
        produced.remove("e2e.goodput_qps");
        produced.insert("e2e.rfan_speedup".into(), 2.0);
        let wrong = unlisted_names(serve, &produced, true);
        assert_eq!(wrong.len(), 2, "{wrong:?}");
        assert!(wrong[0].starts_with("e2e.goodput_qps was not measured"));
        assert!(wrong[1].starts_with("e2e.rfan_speedup is not a per-layer metric"));
        // An untraced run prints only part of them.
        assert_eq!(unlisted_names(serve, &produced, false).len(), 1);
    }

    #[test]
    fn the_pinned_fingerprint_holds_wherever_the_inputs_are_the_pinned_ones() {
        let opts = |name: &str, seed| RunOptions {
            workload: spec::workload(name).unwrap(),
            seed,
            seconds: 1.0,
            trace: false,
            setup_only: false,
        };
        let other = Fingerprint::default();
        // BFS takes nothing from the seed: pinned at every seed.
        assert!(pin_mismatch(&opts("bfs_starved", 7), other).is_some());
        // SSSP weights come from the seed: pinned at the default one.
        assert!(pin_mismatch(&opts("workload_mix", spec::DEFAULT_SEED), other).is_some());
        assert!(pin_mismatch(&opts("workload_mix", 7), other).is_none());
    }

    #[test]
    fn a_retry_on_a_retry_free_launch_is_a_failure() {
        let graph = crate::layers::Dataset::Synthetic.build(0.00002);
        let config = crate::layers::PtConfig::new(Variant::RfAn, 2);
        let gpu = crate::layers::GpuConfig::spectre();
        let mut run = crate::layers::run_bfs(&gpu, &graph, 0, &config).unwrap();
        let (mut pass, mut totals) = (Pass::default(), SimTotals::default());
        account(&mut pass, &mut totals, "clean", true, &run);
        assert!(pass.failures.is_empty());
        let clean = pass.fingerprint;
        // The same launch with one retry on its books: flagged, and the
        // fingerprint moves with the counter.
        run.metrics.queue_empty_retries = 1;
        let mut again = Pass::default();
        account(&mut again, &mut totals, "retried", true, &run);
        assert_eq!(again.failures.len(), 1);
        assert_ne!(again.fingerprint, clean);
        assert_eq!(totals.launches, 2);
    }
}
