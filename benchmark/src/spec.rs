//! The benchmark's fixed vocabulary: workloads, metrics, units, clocks,
//! bounds. `BENCHMARK.json` at the repo root is generated from these
//! tables (`ptq-benchmark spec`) and a test holds the two together.

use crate::json::Json;

/// Default workload seed (the serve experiment's trace seed).
pub const DEFAULT_SEED: u64 = 0x5E4E;

/// Seconds one run measures for; frozen in `BENCHMARK.json`.
pub const RUN_SECONDS: u64 = 10;

/// Which clock a number is read from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Clock {
    /// Wall time (or memory) of this single-threaded simulator process on
    /// the box it runs on. Noisy: compared by median, spread and bound.
    Host,
    /// Simulated cycles and exact counts. Deterministic: two runs of one
    /// commit with one seed must agree bit for bit.
    Exact,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric of the benchmark.
#[derive(Clone, Debug, PartialEq)]
pub struct MetricSpec {
    pub name: String,
    pub unit: &'static str,
    pub clock: Clock,
    pub better: Better,
    /// Share of the parent's median by which an end-to-end metric may
    /// worsen; `None` for per-layer metrics, which have no bound.
    pub bound: Option<f64>,
    /// The workloads that measure it, as a set of [`WorkloadSpec::bit`]s.
    /// A run must produce exactly its workload's metrics; the result
    /// object, which lists every per-layer name, carries 0 for the rest.
    pub on: u8,
}

impl MetricSpec {
    pub fn measured_by(&self, workload: &WorkloadSpec) -> bool {
        self.on & workload.bit() != 0
    }
}

/// A metric every workload measures; [`on`] narrows that.
fn metric(name: impl Into<String>, unit: &'static str, clock: Clock, better: Better) -> MetricSpec {
    MetricSpec {
        name: name.into(),
        unit,
        clock,
        better,
        bound: None,
        on: ALL,
    }
}

/// `metrics`, measured by the workloads in `set`.
fn on(set: u8, metrics: impl IntoIterator<Item = MetricSpec>) -> impl Iterator<Item = MetricSpec> {
    metrics
        .into_iter()
        .map(move |m| MetricSpec { on: set, ..m })
}

/// One workload of the benchmark.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct WorkloadSpec {
    pub name: &'static str,
    pub why: &'static str,
    /// Whether the seed reaches the workload's inputs. Where it does not,
    /// every run computes the same thing and [`Self::fingerprint`] holds
    /// at every seed; where it does, at [`DEFAULT_SEED`].
    pub seeded: bool,
    /// The pass fingerprint — a hash of every output and every simulated
    /// counter of a pass — of the commit the benchmark was defined on. A
    /// run that computes another one fails: a change to the simulator,
    /// the queues, the runner or the service may make them faster on the
    /// host clock but must leave what they compute alone. A change that
    /// means to move simulated results re-pins these in a change of its
    /// own (the failing run prints the new value).
    pub fingerprint: u64,
}

impl WorkloadSpec {
    /// This workload's bit in [`MetricSpec::on`].
    pub fn bit(&self) -> u8 {
        let index = WORKLOADS.iter().position(|w| w.name == self.name);
        1 << index.expect("a workload of the table")
    }
}

/// The six workloads, in suite order.
pub const WORKLOADS: [WorkloadSpec; 6] = [
    WorkloadSpec {
        name: "bfs_saturated",
        why: "far more tokens than threads: queue-reservation contention sets simulated time, the engine's commit phase sets host time",
        seeded: false,
        fingerprint: 0xe980_4bfc_7806_cc73,
    },
    WorkloadSpec {
        name: "bfs_starved",
        why: "deep narrow road frontiers leave most threads polling an empty queue: empty-retries vs the dna sentinel, and the engine's park/replay path",
        seeded: false,
        fingerprint: 0x7c88_2901_b8ca_a07f,
    },
    WorkloadSpec {
        name: "workload_mix",
        why: "BFS, SSSP, CC and PR-delta, clean and under seeded faults: all-n seeding, re-enqueues, capacity regrow, checkpoint/resume share the kernel, queue and runner",
        seeded: true,
        fingerprint: 0xdf8f_ce88_9214_edf5,
    },
    WorkloadSpec {
        name: "serve_open_loop",
        why: "open-loop arrival trace on a rate ladder: many small launches, admission, batching, retries and quarantine decide latency and goodput",
        seeded: true,
        fingerprint: 0xd31b_6937_5756_17f5,
    },
    WorkloadSpec {
        name: "graph_build_setup",
        why: "no simulation: graph generation, streamed vs in-memory CSR build and device set-up, a few percent of every other pass, are the whole pass here",
        seeded: true,
        fingerprint: 0x8463_f893_12ae_b766,
    },
    WorkloadSpec {
        name: "host_queue_ops",
        why: "real-thread host queues moving tokens on one thread: the only hot path through the seven host variants, guard for the queue-family rewrite",
        seeded: true,
        fingerprint: 0x5231_4441_b152_373d,
    },
];

/// The workload called `name`.
pub fn workload(name: &str) -> Option<&'static WorkloadSpec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

// Sets of workloads, for `MetricSpec::on` (bit = index in `WORKLOADS`).
const SATURATED: u8 = 1 << 0;
const STARVED: u8 = 1 << 1;
const MIX: u8 = 1 << 2;
const SERVE: u8 = 1 << 3;
const BUILD: u8 = 1 << 4;
const HOST_QUEUE: u8 = 1 << 5;
const BFS: u8 = SATURATED | STARVED;
/// The workloads that launch kernels through the runner.
const LAUNCHING: u8 = BFS | MIX;
const ALL: u8 = (1 << WORKLOADS.len()) - 1;

/// The end-to-end metrics: what a user of the simulator waits for and
/// pays, on the host clock, defined for every workload. The two times
/// have the widest bound the contract allows: on the two shared cores
/// this was measured on, the median of ten runs of one binary moved by
/// 22 % between two sets made twenty minutes apart (the README's
/// steadiness section has the numbers). Memory does not drift.
pub fn end_to_end() -> Vec<MetricSpec> {
    let bounded = |name, unit, bound| MetricSpec {
        bound: Some(bound),
        ..metric(name, unit, Clock::Host, Better::Lower)
    };
    vec![
        bounded("setup_s", "s", 0.25),
        bounded("wall_s", "s", 0.25),
        bounded("peak_rss_mb", "MiB", 0.05),
    ]
}

/// Device schedulers of the queue-op table, with the workloads whose
/// table cell runs them.
const DEVICE_SCHEDULERS: [(&str, u8); 6] = [
    ("base", BFS),
    ("an", BFS),
    ("rfan", BFS),
    ("rfonly", SATURATED),
    ("segrfan", BFS),
    ("stealing", SATURATED),
];
/// Host queue variants, in measurement order.
pub const HOST_QUEUES: [&str; 7] = [
    "rfan", "an", "base", "mutex", "seg-rfan", "seg-rf", "seg-an",
];
/// Workload kinds of `workload_mix`.
pub const KINDS: [&str; 4] = ["bfs", "sssp", "cc", "prdelta"];
/// Offered rates of the serve ladder, queries per simulated second.
pub const RUNGS_QPS: [u64; 7] = [360, 900, 1800, 2400, 3000, 3600, 7200];

/// The per-layer metrics, grouped by the repo's modules. The `e2e.*`
/// group holds the simulated-clock results of whole workloads (the
/// paper's headline among them): they are exact, guarded by the pinned
/// fingerprints and compared bit for bit by `ptq-benchmark compare`, and
/// sit here because each is defined on some workloads only, while the
/// driver's end-to-end list must be reported by every workload.
pub fn per_layer() -> Vec<MetricSpec> {
    use Better::{Higher, Lower};
    use Clock::{Exact, Host};
    let mut m = Vec::new();
    m.extend(on(
        LAUNCHING | BUILD,
        [metric("graph.gen.build_s", "s", Host, Lower)],
    ));
    m.extend(on(
        BUILD,
        [
            metric("graph.gen.medges_per_s", "Medges/s", Host, Higher),
            metric("graph.stream.build_s", "s", Host, Lower),
            metric("graph.csr.builder_build_s", "s", Host, Lower),
        ],
    ));
    m.extend(on(
        BFS | BUILD,
        [
            metric("graph.bfs.oracle_s", "s", Host, Lower),
            metric("graph.csr.bytes", "bytes", Exact, Lower),
        ],
    ));
    m.extend(on(
        LAUNCHING,
        [
            metric("simt.engine.sim_s", "s", Host, Lower),
            metric("simt.engine.rounds", "count", Exact, Lower),
            metric("simt.engine.rounds_per_s", "1/s", Host, Higher),
            metric("simt.engine.work_cycles", "count", Exact, Lower),
            metric("simt.engine.ns_per_work_cycle", "ns", Host, Lower),
            metric("simt.engine.park_events", "count", Exact, Higher),
            metric("simt.engine.park_replay_cycles", "count", Exact, Higher),
            metric("simt.engine.global_atomics", "count", Exact, Lower),
            metric("simt.engine.global_mem_ops", "count", Exact, Lower),
            metric("simt.engine.par2_speedup", "x", Host, Higher),
        ],
    ));
    m.extend(on(
        LAUNCHING | BUILD,
        [
            metric("simt.memory.setup_s", "s", Host, Lower),
            metric("simt.memory.cold_setup_s", "s", Host, Lower),
            metric("simt.memory.warm_setup_s", "s", Host, Lower),
            metric("simt.memory.arena_words_peak", "words", Exact, Lower),
            metric("simt.memory.demand_zeroed_words", "words", Exact, Lower),
        ],
    ));
    for (v, cell) in DEVICE_SCHEDULERS {
        let name = |field: &str| format!("gpu_queue.device.{v}.{field}");
        m.extend(on(
            cell,
            [
                metric(name("sim_ms"), "sim-ms", Exact, Lower),
                metric(name("sched_atomics_per_vertex"), "1/vertex", Exact, Lower),
                metric(name("retries_per_vertex"), "1/vertex", Exact, Lower),
                metric(name("cas_failure_rate"), "fraction", Exact, Lower),
                metric(name("rounds_per_s"), "1/s", Host, Higher),
            ],
        ));
    }
    for h in HOST_QUEUES {
        let name = |field: &str| format!("gpu_queue.host.{h}.{field}");
        m.extend(on(
            HOST_QUEUE,
            [
                metric(name("ns_per_token_1t"), "ns", Host, Lower),
                metric(name("atomics_per_token"), "1/token", Exact, Lower),
                metric(name("mtokens_per_s_2t"), "Mtoken/s", Host, Higher),
            ],
        ));
    }
    m.extend(on(
        HOST_QUEUE,
        [metric(
            "gpu_queue.host.seg-rfan.fresh_allocs",
            "count",
            Exact,
            Lower,
        )],
    ));
    m.extend(on(
        LAUNCHING,
        [
            metric("pt_bfs.runner.launches", "count", Exact, Lower),
            metric("pt_bfs.runner.regrow_attempts", "count", Exact, Lower),
            metric("pt_bfs.runner.rounds_lost", "count", Exact, Lower),
            metric("pt_bfs.runner.readback_s", "s", Host, Lower),
            metric("pt_bfs.runner.validate_s", "s", Host, Lower),
            metric("pt_bfs.runner.unattributed_s", "s", Host, Lower),
        ],
    ));
    m.extend(on(
        MIX,
        [
            metric("pt_bfs.recovery.aborts", "count", Exact, Lower),
            metric("pt_bfs.recovery.epochs", "count", Exact, Lower),
            metric("pt_bfs.recovery.rounds_replayed", "count", Exact, Lower),
            metric("pt_bfs.recovery.rounds_lost", "count", Exact, Lower),
            metric("pt_bfs.recovery.sim_overhead", "x", Exact, Lower),
            metric("pt_bfs.recovery.wall_overhead", "x", Host, Lower),
        ],
    ));
    for k in KINDS {
        let name = |field: &str| format!("pt_bfs.workload.{k}.{field}");
        m.extend(on(
            MIX,
            [
                metric(name("wall_s"), "s", Host, Lower),
                metric(name("sim_ms"), "sim-ms", Exact, Lower),
                metric(name("sched_atomics_per_vertex"), "1/vertex", Exact, Lower),
            ],
        ));
    }
    m.extend(on(
        SERVE,
        [
            metric("bench.serve.profile_s", "s", Host, Lower),
            metric("bench.serve.replay_s", "s", Host, Lower),
            metric("bench.serve.profile_rounds", "count", Exact, Lower),
            metric("bench.serve.queries_per_host_s", "1/s", Host, Higher),
            metric("bench.serve.admission_ns_per_op", "ns", Host, Lower),
            metric("bench.serve.batched_share", "fraction", Exact, Higher),
            metric("bench.serve.retried", "count", Exact, Lower),
            metric("bench.serve.jain_min", "fraction", Exact, Higher),
            metric("bench.serve.serial.goodput_qps", "q/sim-s", Exact, Higher),
        ],
    ));
    for r in RUNGS_QPS {
        let name = |field: &str| format!("bench.serve.r{r}.{field}");
        m.extend(on(
            SERVE,
            [
                metric(name("p99_sim_ms"), "sim-ms", Exact, Lower),
                metric(name("fail_share"), "fraction", Exact, Lower),
            ],
        ));
    }
    m.extend(on(
        LAUNCHING | SERVE,
        [metric("e2e.sim_ms", "sim-ms", Exact, Lower)],
    ));
    m.extend(on(
        BFS,
        [
            metric("e2e.rfan_speedup", "x", Exact, Higher),
            metric("e2e.paper_err", "fraction", Exact, Lower),
        ],
    ));
    m.extend(on(
        SERVE,
        [
            metric("e2e.lat_p50_sim_ms", "sim-ms", Exact, Lower),
            metric("e2e.lat_p99_sim_ms", "sim-ms", Exact, Lower),
            metric("e2e.goodput_qps", "q/sim-s", Exact, Higher),
            metric("e2e.max_rate_qps", "q/sim-s", Exact, Higher),
        ],
    ));
    m.push(metric("e2e.fail_share", "fraction", Exact, Lower));
    m
}

/// The spec of `name`, end-to-end or per-layer.
pub fn lookup(name: &str) -> Option<&'static MetricSpec> {
    static ALL: std::sync::OnceLock<Vec<MetricSpec>> = std::sync::OnceLock::new();
    ALL.get_or_init(|| end_to_end().into_iter().chain(per_layer()).collect())
        .iter()
        .find(|m| m.name == name)
}

/// The contents of the root `BENCHMARK.json`.
pub fn benchmark_json() -> Json {
    let entry = |m: &MetricSpec| {
        let mut members = vec![
            ("name", Json::Str(m.name.clone())),
            ("unit", Json::Str(m.unit.into())),
            ("better", Json::Str(m.better.label().into())),
        ];
        if let Some(bound) = m.bound {
            members.push(("bound", Json::Num(bound)));
        }
        Json::object(members)
    };
    let strings =
        |items: &[&str]| Json::Arr(items.iter().map(|s| Json::Str((*s).into())).collect());
    Json::object([
        ("command", strings(&["bash", "benchmark/run.sh"])),
        ("paths", strings(&["benchmark"])),
        ("run_seconds", Json::Num(RUN_SECONDS as f64)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| {
                        Json::object([
                            ("name", Json::Str(w.name.into())),
                            ("why", Json::Str(w.why.into())),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(end_to_end().iter().map(entry).collect()),
        ),
        (
            "per_layer",
            Json::Arr(per_layer().iter().map(entry).collect()),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn name_ok(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn unit_ok(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn every_name_and_unit_fits_the_contract() {
        let e2e = end_to_end();
        let layers = per_layer();
        assert!((1..=16).contains(&e2e.len()), "{} end-to-end", e2e.len());
        assert!(
            (1..=128).contains(&layers.len()),
            "{} per-layer",
            layers.len()
        );
        assert!((2..=8).contains(&WORKLOADS.len()));
        let mut seen = BTreeSet::new();
        for m in e2e.iter().chain(&layers) {
            assert!(name_ok(&m.name), "bad metric name {:?}", m.name);
            assert!(unit_ok(m.unit), "bad unit {:?} on {}", m.unit, m.name);
            assert!(seen.insert(m.name.clone()), "{} listed twice", m.name);
        }
        for WorkloadSpec { name, why, .. } in WORKLOADS {
            assert!(name_ok(name), "bad workload name {name:?}");
            assert!(seen.insert(name.to_owned()), "{name} used twice");
            assert!(
                why.len() <= 200 && !why.contains('\n'),
                "{name}: why too long"
            );
        }
        for m in &e2e {
            let bound = m.bound.expect("end-to-end metrics carry a bound");
            assert!(bound > 0.0 && bound <= 0.25, "{}: bound {bound}", m.name);
        }
        assert!(layers.iter().all(|m| m.bound.is_none()));
        // The set-up metric the driver requires, with the widest bound.
        let setup = &e2e[0];
        assert_eq!(
            (setup.name.as_str(), setup.unit, setup.better),
            ("setup_s", "s", Better::Lower)
        );
        assert!(e2e.iter().all(|m| m.bound <= setup.bound));
        assert!((1..=60).contains(&RUN_SECONDS));
    }

    #[test]
    fn every_metric_is_measured_by_some_workload_of_the_table() {
        let sets = [SATURATED, STARVED, MIX, SERVE, BUILD, HOST_QUEUE];
        for (w, bit) in WORKLOADS.iter().zip(sets) {
            assert_eq!(w.bit(), bit, "{} moved in the table", w.name);
            assert_eq!(workload(w.name), Some(w));
        }
        for m in end_to_end().iter().chain(&per_layer()) {
            assert!(m.on != 0 && m.on & !ALL == 0, "{}: on {:#b}", m.name, m.on);
        }
        // The headline is a BFS result; every workload counts its failures.
        let saturated = &WORKLOADS[0];
        let host_queue = &WORKLOADS[5];
        assert!(lookup("e2e.rfan_speedup").unwrap().measured_by(saturated));
        assert!(!lookup("e2e.rfan_speedup").unwrap().measured_by(host_queue));
        assert!(lookup("e2e.fail_share").unwrap().measured_by(host_queue));
    }

    #[test]
    fn benchmark_json_at_the_root_matches_these_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert!(text.len() <= 64 * 1024, "BENCHMARK.json over 64 KiB");
        let on_disk = Json::parse(&text).expect("BENCHMARK.json parses");
        assert_eq!(
            on_disk,
            benchmark_json(),
            "BENCHMARK.json is stale: regenerate it with `benchmark/run.sh spec > BENCHMARK.json`"
        );
        let keys: Vec<&str> = on_disk
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
    }
}
