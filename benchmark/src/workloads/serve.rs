//! `serve_open_loop`: one seeded arrival trace replayed on a ladder of
//! offered rates, on the serial and the batched serving core. Open loop
//! in simulated time: queries arrive on schedule whether or not earlier
//! ones have finished, and each latency is counted from the cycle the
//! query was due. The replay is a discrete-event simulation, so the load
//! generator is never late — lateness is 0 by construction.

use super::salt;
use crate::harness::{Pass, Workload};
use crate::json::Metrics;
use crate::layers::{
    AdmissionQueue, ArrivalTrace, Dataset, Disposition, ExecutionProfile, GpuConfig, OutcomeLog,
    Priority, Scale, Sched, Service, ServiceConfig, TraceParams, WorkloadKind,
};
use crate::spec::{DEFAULT_SEED, RUNGS_QPS};
use crate::stats::tail_percentile;
use crate::trace::Recorder;
use std::time::Instant;

/// Service scale, chosen so a pass over the whole trace (1 200 profiles +
/// 14 replays) takes about four seconds of host time.
const SCALE: f64 = 0.01;
const QUERIES: usize = 1200;
/// Queries of the trace a timed pass offers, so that a pass takes about
/// a second and a run's median is over ten of them, not three.
const TIMED_QUERIES: usize = 300;
/// Mean arrival gap the trace is drawn with; the ladder rescales it.
const BASE_GAP_CYCLES: u64 = 400_000;
/// Rung the latency metrics are read at, and the overload rung.
const REFERENCE_QPS: u64 = 1800;
const OVERLOAD_QPS: u64 = 7200;
/// The latency limit behind `max_rate_qps`, simulated milliseconds, and
/// the share of offered queries that may fail at a rate that counts.
const P99_LIMIT_SIM_MS: f64 = 4.0;
const FAIL_SHARE_LIMIT: f64 = 0.01;
/// Queries the short warm-up profiles.
const WARM_UP_QUERIES: usize = 96;

/// The serve experiment's six-dataset pool with its relative scales.
const POOL: &[(Dataset, f64)] = &[
    (Dataset::Synthetic, 0.004),
    (Dataset::GplusCombined, 0.1),
    (Dataset::SocLiveJournal1, 0.006),
    (Dataset::RoadNY, 0.1),
    (Dataset::RoadLKS, 0.01),
    (Dataset::RoadUSA, 0.002),
];

/// Mean arrival gap in cycles that offers `qps` on `gpu`.
pub fn gap_cycles(gpu: &GpuConfig, qps: u64) -> u64 {
    (gpu.clock_ghz * 1e9 / qps as f64).round() as u64
}

/// `trace` offered at another rate: every arrival cycle scaled by
/// `gap / base_gap`, nothing else touched.
pub fn rescaled(trace: &ArrivalTrace, gap: u64, base_gap: u64) -> ArrivalTrace {
    let mut rung = trace.clone();
    for query in &mut rung.queries {
        query.arrival_cycle =
            (u128::from(query.arrival_cycle) * u128::from(gap) / u128::from(base_gap)) as u64;
    }
    rung
}

/// A trace and what the ladder makes of it.
struct Offered {
    trace: ArrivalTrace,
    /// One trace per rung, in ladder order.
    rungs: Vec<ArrivalTrace>,
}

impl Offered {
    /// `queries` seeded queries, then one that can only fail (a two-round
    /// watchdog) and a resubmission of it long after its retries ran
    /// dry: the first must be quarantined, the second refused at
    /// admission. `salt` moves when those two arrive.
    fn new(queries: usize, salt: u64, gpu: &GpuConfig) -> Self {
        // The trace is drawn from the default seed whatever the run's
        // seed: anything that reaches the dispatcher — arrival times,
        // kinds, datasets, even source vertices — changes which queries
        // fuse into one launch, and with it a pass's work and peak
        // memory (by ±10 % when tried). The run's seed moves only the
        // tail, by up to 4 095 cycles each.
        let mut trace = ArrivalTrace::seeded(
            DEFAULT_SEED,
            &TraceParams {
                queries,
                mean_gap_cycles: BASE_GAP_CYCLES,
                deadline_range: (4_000_000, 40_000_000),
                datasets: POOL,
                fault_every: 10,
                faults_per_query: 1,
            },
        );
        let poison = trace.push_poison(
            WorkloadKind::Bfs,
            Dataset::RoadNY,
            0.1,
            2,
            1_000_000 + salt % 4096,
        );
        trace.push_resubmission(poison, 80_000_000 + (salt >> 12) % 4096);
        let rungs = RUNGS_QPS
            .iter()
            .map(|&qps| rescaled(&trace, gap_cycles(gpu, qps), BASE_GAP_CYCLES))
            .collect();
        Offered { trace, rungs }
    }
}

pub struct Serve {
    /// The trace the simulated results are read from, offered once a run.
    whole: Offered,
    /// The shorter one the timed passes offer.
    timed: Offered,
    serial: Service,
    batched: Service,
}

/// What one replay reports.
struct Rung {
    completed: u64,
    failed_share: f64,
    p50_ms: Option<f64>,
    p99_ms: Option<(f64, f64)>,
    goodput_qps: f64,
    makespan_ms: f64,
    batched: u64,
    retried: u64,
    jain_min: f64,
}

impl Serve {
    fn gpu(&self) -> &GpuConfig {
        &self.serial.config().gpu
    }

    /// Checks a replay's accounting and reduces it to a [`Rung`].
    fn reduce(&self, pass: &mut Pass, op: &str, trace: &ArrivalTrace, log: &OutcomeLog) -> Rung {
        let gpu = self.gpu();
        let offered = trace.queries.len() as u64;
        let count = |d| log.count(d);
        let completed = count(Disposition::Completed);
        let refused = count(Disposition::Shed)
            + count(Disposition::Quarantined)
            + count(Disposition::RejectedQueueFull)
            + count(Disposition::RejectedQuarantined);
        if log.outcomes.len() as u64 != offered || completed + refused != offered {
            pass.fail(format!(
                "{op}: {completed} completed + {refused} refused != {offered} offered"
            ));
        }
        if log.admission_errors != 0 || log.execution_queue_full != 0 {
            pass.fail(format!(
                "{op}: {} admission errors, {} execution queue-full aborts",
                log.admission_errors, log.execution_queue_full
            ));
        }
        let mut latencies = Vec::with_capacity(completed as usize);
        let mut in_deadline = 0u64;
        for (outcome, query) in log.outcomes.iter().zip(&trace.queries) {
            pass.fingerprint.word(u64::from(outcome.id));
            pass.fingerprint.word(outcome.disposition as u64);
            pass.fingerprint.word(outcome.latency_cycles);
            if outcome.disposition == Disposition::Completed {
                latencies.push(outcome.latency_cycles);
                in_deadline += u64::from(outcome.latency_cycles <= query.deadline_cycles);
            }
        }
        pass.fingerprint.word(log.makespan_cycles);
        latencies.sort_unstable();
        let ms = |cycles: u64| gpu.cycles_to_seconds(cycles) * 1e3;
        Rung {
            completed,
            failed_share: refused as f64 / offered as f64,
            p50_ms: tail_percentile(&latencies, 0.50).map(|(c, _)| ms(c)),
            p99_ms: tail_percentile(&latencies, 0.99).map(|(c, p)| (ms(c), p)),
            goodput_qps: in_deadline as f64 / gpu.cycles_to_seconds(log.makespan_cycles.max(1)),
            makespan_ms: ms(log.makespan_cycles),
            batched: log.batched(),
            retried: log.retried(),
            jain_min: log
                .fairness()
                .iter()
                .map(|class| class.jain_index)
                .fold(1.0, f64::min),
        }
    }

    /// Profiles `offered`'s trace, then replays it on every rung of the
    /// ladder on both cores. Returns the batched core's replay at the
    /// reference rate beside the pass.
    fn offer(&self, rec: &mut Recorder, offered: &Offered) -> (Pass, Rung) {
        let mut pass = Pass::default();
        // `profiles` validates every completed query against its oracle
        // and panics on a divergence, on every pass.
        let profiles: Vec<ExecutionProfile> = rec.call("bench.serve.profile", "", || {
            self.serial.profiles(&offered.trace, &Sched::serial())
        });
        let profile_rounds: u64 = profiles
            .iter()
            .flat_map(|p| p.attempts.iter().map(|a| a.rounds))
            .sum();
        pass.fingerprint.word(profile_rounds);
        pass.set("bench.serve.profile_rounds", profile_rounds as f64);

        let mut max_rate = 0;
        let mut at_reference = None;
        let mut ladder_holds = true;
        for (&qps, rung_trace) in RUNGS_QPS.iter().zip(&offered.rungs) {
            let mut reduced = Vec::with_capacity(2);
            for (core, service) in [("serial", &self.serial), ("batched", &self.batched)] {
                let op = format!("{core}/r{qps}");
                let log = rec.call("bench.serve.replay", &op, || {
                    service.replay(rung_trace, &profiles)
                });
                pass.attempted += rung_trace.queries.len() as u64;
                reduced.push(self.reduce(&mut pass, &op, rung_trace, &log));
            }
            let (serial, batched) = (&reduced[0], &reduced[1]);
            let p99_ms = batched.p99_ms.map_or(f64::INFINITY, |(ms, _)| ms);
            pass.set(
                format!("bench.serve.r{qps}.p99_sim_ms"),
                batched.p99_ms.map_or(0.0, |p| p.0),
            );
            pass.set(
                format!("bench.serve.r{qps}.fail_share"),
                batched.failed_share,
            );
            // The highest rate that holds, with every lower rate holding.
            ladder_holds &= p99_ms <= P99_LIMIT_SIM_MS && batched.failed_share <= FAIL_SHARE_LIMIT;
            if ladder_holds {
                max_rate = qps;
            }
            if qps == REFERENCE_QPS {
                pass.set("e2e.lat_p50_sim_ms", batched.p50_ms.unwrap_or(0.0));
                pass.set("e2e.lat_p99_sim_ms", batched.p99_ms.map_or(0.0, |p| p.0));
                pass.set("e2e.fail_share", batched.failed_share);
                pass.set("e2e.sim_ms", batched.makespan_ms);
                pass.set(
                    "bench.serve.batched_share",
                    batched.batched as f64 / batched.completed.max(1) as f64,
                );
                pass.set("bench.serve.retried", batched.retried as f64);
                pass.set("bench.serve.jain_min", batched.jain_min);
            }
            if qps == OVERLOAD_QPS {
                pass.set("e2e.goodput_qps", batched.goodput_qps);
                pass.set("bench.serve.serial.goodput_qps", serial.goodput_qps);
            }
            if qps == REFERENCE_QPS {
                at_reference = reduced.pop();
            }
        }
        pass.set("e2e.max_rate_qps", max_rate as f64);
        (pass, at_reference.expect("the reference rate is a rung"))
    }
}

impl Workload for Serve {
    fn build(seed: u64, _rec: &mut Recorder) -> Self {
        let serial = Service::new(ServiceConfig::standard(Scale::new(SCALE)));
        let batched = Service::new(ServiceConfig::batched(Scale::new(SCALE)));
        let gpu = &serial.config().gpu;
        Serve {
            whole: Offered::new(QUERIES, salt(seed), gpu),
            timed: Offered::new(TIMED_QUERIES, salt(seed), gpu),
            serial,
            batched,
        }
    }

    /// Set-up ends on a short warm-up, not a whole pass: profiling the
    /// head of the trace builds the six shared graphs, fills the arena
    /// pools, and checks those queries against their oracles. The first
    /// timed pass is the timed passes' reference.
    fn warm_up(&mut self, _rec: &mut Recorder) -> Option<Pass> {
        let mut head = self.timed.trace.clone();
        head.queries.truncate(WARM_UP_QUERIES);
        let profiles = self.serial.profiles(&head, &Sched::serial());
        assert_eq!(profiles.len(), WARM_UP_QUERIES);
        None
    }

    fn pass(&mut self, rec: &mut Recorder, _check: bool) -> Pass {
        let (mut pass, _) = self.offer(rec, &self.timed);
        // Three hundred queries are too few for a p99: the results are
        // the whole trace's.
        pass.layers.clear();
        pass
    }

    fn whole_input(&mut self, rec: &mut Recorder) -> Option<Pass> {
        let (mut pass, batched) = self.offer(rec, &self.whole);
        let percentile = batched.p99_ms.map_or(0.0, |(_, percentile)| percentile);
        if batched.completed < 1190 || percentile < 0.99 {
            pass.fail(format!(
                "reference rate completed {} queries: too few for a p99",
                batched.completed
            ));
        }
        Some(pass)
    }

    fn host_layers(&self, self_s: &Metrics, _total_s: &Metrics, _pass: &Pass, out: &mut Metrics) {
        if let Some(&replay_s) = self_s.get("bench.serve.replay") {
            let replayed = (2 * RUNGS_QPS.len() * self.timed.trace.queries.len()) as f64;
            out.insert("bench.serve.queries_per_host_s".into(), replayed / replay_s);
        }
    }

    fn traced_extras(&mut self, out: &mut Metrics) {
        // The admission queue alone: fill its bound, drain it, repeat.
        const BACKLOG: u32 = 64;
        const ROUNDS: u32 = 2000;
        let mut queue = AdmissionQueue::new(u64::from(BACKLOG));
        let begun = Instant::now();
        let mut taken = 0u64;
        for round in 0..ROUNDS {
            for id in 0..BACKLOG {
                let class = Priority::ALL[(id % 3) as usize];
                queue.push(class, id % 4, round * BACKLOG + id);
            }
            while let Some((_, id)) = queue.take_next() {
                taken += u64::from(std::hint::black_box(id) != u32::MAX);
            }
        }
        assert_eq!(
            taken,
            u64::from(BACKLOG * ROUNDS),
            "admission queue lost a query"
        );
        out.insert(
            "bench.serve.admission_ns_per_op".into(),
            begun.elapsed().as_secs_f64() * 1e9 / (2 * taken) as f64,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_trace() -> ArrivalTrace {
        let mut trace = ArrivalTrace::seeded(
            7,
            &TraceParams {
                queries: 40,
                mean_gap_cycles: BASE_GAP_CYCLES,
                deadline_range: (4_000_000, 40_000_000),
                datasets: POOL,
                fault_every: 10,
                faults_per_query: 1,
            },
        );
        let poison = trace.push_poison(WorkloadKind::Bfs, Dataset::RoadNY, 0.1, 2, 1_000_000);
        trace.push_resubmission(poison, 80_000_000);
        trace
    }

    #[test]
    fn the_ladder_is_the_documented_gaps() {
        let gpu = GpuConfig::spectre();
        let gaps: Vec<u64> = RUNGS_QPS.iter().map(|&qps| gap_cycles(&gpu, qps)).collect();
        assert_eq!(
            gaps,
            [2_000_000, 800_000, 400_000, 300_000, 240_000, 200_000, 100_000]
        );
        assert!(RUNGS_QPS.contains(&REFERENCE_QPS) && RUNGS_QPS.contains(&OVERLOAD_QPS));
    }

    #[test]
    fn rescaling_a_rung_moves_arrival_cycles_and_nothing_else() {
        let trace = small_trace();
        let rung = rescaled(&trace, 100_000, BASE_GAP_CYCLES);
        assert_eq!(rung.seed, trace.seed);
        assert_eq!(rung.queries.len(), trace.queries.len());
        for (scaled, original) in rung.queries.iter().zip(&trace.queries) {
            assert_eq!(scaled.arrival_cycle, original.arrival_cycle / 4);
            let mut restored = scaled.clone();
            restored.arrival_cycle = original.arrival_cycle;
            assert_eq!(
                &restored, original,
                "query {} changed beyond its arrival",
                original.id
            );
        }
        // Arrival order survives, so ids still index the outcome log.
        assert!(rung
            .queries
            .windows(2)
            .all(|w| w[0].arrival_cycle <= w[1].arrival_cycle));
        // The base gap is the identity.
        assert_eq!(rescaled(&trace, BASE_GAP_CYCLES, BASE_GAP_CYCLES), trace);
    }
}
