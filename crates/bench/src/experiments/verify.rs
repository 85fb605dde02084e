//! `repro verify` — machine-checked reproduction verdicts.
//!
//! Runs the minimal set of measurements behind every headline claim of
//! the paper and prints PASS/FAIL verdicts with the measured values, so a
//! reviewer can audit the reproduction in one command instead of reading
//! tables. Tolerances are generous on purpose: the claims are about
//! *shape* (ordering, rough factors, crossovers), not absolute times.

use super::common::{bfs_run, check_run, point, sweep_dataset, DatasetCache};
use crate::report::Table;
use crate::{Scale, Sched};
use gpu_queue::Variant;
use pt_bfs::baseline::{run_chai, run_rodinia};
use pt_bfs::{run_bfs, Bfs, PtConfig, Run};
use ptq_graph::Dataset;
use simt::GpuConfig;

/// One checked claim.
#[derive(Clone, Debug)]
pub struct Verdict {
    /// Short claim identifier.
    pub claim: &'static str,
    /// The paper's stated value.
    pub paper: String,
    /// What we measured.
    pub measured: String,
    /// Whether the shape holds within tolerance.
    pub pass: bool,
}

/// Runs every check at the given scale. Expensive (several minutes at
/// 5% scale): it sweeps the synthetic dataset and runs both baselines.
pub fn run_checks(scale: Scale, sched: &Sched) -> Vec<Verdict> {
    let mut verdicts = Vec::new();
    let fiji = GpuConfig::fiji();
    let spectre = GpuConfig::spectre();

    // --- Tables 3/4: saturating synthetic ratios -----------------------
    let synth = DatasetCache::global().get(Dataset::Synthetic, scale);
    let grid = [
        (&fiji, Variant::Base, 224usize),
        (&fiji, Variant::An, 224),
        (&fiji, Variant::RfAn, 224),
        (&spectre, Variant::Base, 32),
        (&spectre, Variant::RfAn, 32),
    ];
    let runs = sched.par_map(&grid, |_, &(gpu, variant, wgs)| {
        bfs_run(gpu, &synth, variant, wgs)
    });
    let [f_base, f_an, f_rfan, s_base, s_rfan]: [Run; 5] = runs.try_into().unwrap();
    let base_ratio = f_base.seconds / f_rfan.seconds;
    let an_ratio = f_an.seconds / f_rfan.seconds;
    verdicts.push(Verdict {
        claim: "Fiji synthetic: BASE/RF-AN time ratio",
        paper: "11.28x".into(),
        measured: format!("{base_ratio:.2}x"),
        pass: (4.0..40.0).contains(&base_ratio),
    });
    verdicts.push(Verdict {
        claim: "Fiji synthetic: AN/RF-AN time ratio",
        paper: "7.83x".into(),
        measured: format!("{an_ratio:.2}x"),
        pass: (3.0..20.0).contains(&an_ratio) && an_ratio < base_ratio,
    });

    let s_ratio = s_base.seconds / s_rfan.seconds;
    verdicts.push(Verdict {
        claim: "Spectre synthetic: BASE/RF-AN time ratio (smaller than Fiji's)",
        paper: "2.10x".into(),
        measured: format!("{s_ratio:.2}x"),
        pass: s_ratio > 1.2 && s_ratio < base_ratio,
    });

    // --- Retry-freedom --------------------------------------------------
    verdicts.push(Verdict {
        claim: "RF/AN executes zero retries",
        paper: "0 (by design)".into(),
        measured: format!(
            "{} CAS failures, {} empty retries",
            f_rfan.metrics.cas_failures, f_rfan.metrics.queue_empty_retries
        ),
        pass: f_rfan.metrics.total_retries() == 0,
    });

    // --- AuditMode: RF/AN claim discipline on all six main datasets -----
    // Every run is audited in-sim (one AFA per wavefront queue op, zero
    // CAS), checked against the oracle, and the run-level aggregates are
    // re-checked here; a violation surfaces as a FAIL verdict instead of
    // a panic. Measured strings are counts only, so serial and parallel
    // schedulers emit identical tables.
    let audited = sched.par_map(&Dataset::MAIN_SIX, |_, &dataset| {
        let graph = DatasetCache::global().get(dataset, scale);
        let config = PtConfig::new(Variant::RfAn, 56);
        let source = dataset.source();
        let run = run_bfs(&fiji, &graph, source, &config);
        match check_run(run, &graph, &Bfs::new(source)) {
            Ok(run) => (run.metrics.total_retries(), None),
            Err(e) => (0, Some(format!("{}: {e}", dataset.spec().name))),
        }
    });
    let audit_failures: Vec<&String> = audited.iter().filter_map(|(_, e)| e.as_ref()).collect();
    let audit_retries: u64 = audited.iter().map(|(r, _)| r).sum();
    verdicts.push(Verdict {
        claim: "AuditMode: RF/AN passes the per-wavefront atomic audit on all six datasets",
        paper: "1 AFA per wavefront op, 0 retries".into(),
        measured: if audit_failures.is_empty() {
            format!("6/6 audited clean, {audit_retries} retries")
        } else {
            format!(
                "{}/6 clean; first: {}",
                6 - audit_failures.len(),
                audit_failures[0]
            )
        },
        pass: audit_failures.is_empty() && audit_retries == 0,
    });

    // --- Figure 5: scheduler-atomic ratio at max occupancy --------------
    let fig5_ratio =
        f_base.metrics.scheduler_atomics as f64 / f_rfan.metrics.scheduler_atomics.max(1) as f64;
    verdicts.push(Verdict {
        claim: "Fig 5: BASE needs 'over 60x' the scheduler atomics",
        paper: ">60x at 224 WGs".into(),
        measured: format!("{fig5_ratio:.0}x"),
        pass: fig5_ratio > 60.0,
    });

    // --- Figure 1: retries grow with threads ----------------------------
    let small_scale = Scale::new((scale.fraction() * 0.5).max(0.001));
    let small = DatasetCache::global().get(Dataset::Synthetic, small_scale);
    let sweep = sweep_dataset(&fiji, &small, &[1, 16, 224], sched);
    let fail_at = |wgs| point(&sweep, wgs, Variant::Base).metrics.cas_failures;
    let (f1, f224) = (fail_at(1), fail_at(224));
    verdicts.push(Verdict {
        claim: "Fig 1: CAS failures grow with active threads",
        paper: "monotone growth".into(),
        measured: format!("{f1} @1WG -> {f224} @224WG"),
        pass: f224 > f1,
    });

    // --- Figure 4: RF/AN scales, CAS designs fall away ------------------
    let speedup = |variant| point(&sweep, 1, variant).seconds / point(&sweep, 224, variant).seconds;
    let (rfan_speedup, base_speedup) = (speedup(Variant::RfAn), speedup(Variant::Base));
    verdicts.push(Verdict {
        claim: "Fig 4: RF/AN speedup at 224 WGs exceeds BASE's",
        paper: "RF/AN near-ideal, BASE flattens".into(),
        measured: format!("RF/AN {rfan_speedup:.0}x vs BASE {base_speedup:.0}x"),
        pass: rfan_speedup > base_speedup && rfan_speedup > 30.0,
    });

    // --- Table 5: CHAI ---------------------------------------------------
    // A baseline run that fails its oracle check fails its verdicts, the
    // check's message standing in the measured cell.
    let road = DatasetCache::global().get(Dataset::ChaiNYR, scale);
    let chai = check_run(run_chai(&spectre, &road, 0, 32), &road, &Bfs::new(0));
    let chai_rfan = bfs_run(&spectre, &road, Variant::RfAn, 32);
    let chai_speedup = chai.map(|chai| chai.seconds / chai_rfan.seconds);
    verdicts.push(Verdict {
        claim: "Table 5: RF/AN beats CHAI on NYR",
        paper: "2.57x".into(),
        measured: chai_speedup
            .as_ref()
            .map_or_else(String::clone, |s| format!("{s:.2}x")),
        pass: chai_speedup.is_ok_and(|s| (1.3..10.0).contains(&s)),
    });

    // --- Table 6: Rodinia + crossover ------------------------------------
    let g4096 = DatasetCache::global().get(Dataset::RodiniaGraph4096, Scale::FULL);
    let rod_small = check_run(run_rodinia(&fiji, &g4096, 0, 224), &g4096, &Bfs::new(0));
    let rfan_small = bfs_run(&fiji, &g4096, Variant::RfAn, 224);
    let speedup_small = rod_small.map(|rod| rod.seconds / rfan_small.seconds);
    verdicts.push(Verdict {
        claim: "Table 6: RF/AN beats Rodinia on graph4096",
        paper: "28.95x".into(),
        measured: speedup_small
            .as_ref()
            .map_or_else(String::clone, |s| format!("{s:.1}x")),
        pass: speedup_small.as_ref().is_ok_and(|&s| s > 3.0),
    });
    let g1m = DatasetCache::global().get(
        Dataset::RodiniaGraph1M,
        Scale::new(scale.fraction().max(0.25)),
    );
    let rod_big = check_run(run_rodinia(&spectre, &g1m, 0, 32), &g1m, &Bfs::new(0));
    let rfan_big = bfs_run(&spectre, &g1m, Variant::RfAn, 32);
    let speedups = speedup_small.and_then(|small| Ok((small, rod_big?.seconds / rfan_big.seconds)));
    verdicts.push(Verdict {
        claim: "Table 6: Rodinia gap shrinks on the wide 1M-class dataset (Spectre)",
        paper: "30.3x -> 3.41x".into(),
        measured: speedups
            .as_ref()
            .map_or_else(String::clone, |(small, big)| {
                format!("{small:.1}x -> {big:.1}x")
            }),
        pass: speedups.is_ok_and(|(small, big)| big < small && big > 0.8),
    });

    verdicts
}

/// Renders the verdicts as a table.
pub fn table(verdicts: &[Verdict]) -> Table {
    let mut t = Table::new(
        "Reproduction verification: the paper's headline claims, machine-checked",
        &["Claim", "Paper", "Measured", "Verdict"],
    );
    for v in verdicts {
        t.row(vec![
            v.claim.to_owned(),
            v.paper.clone(),
            v.measured.clone(),
            if v.pass { "PASS" } else { "FAIL" }.to_owned(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_claims_pass_at_small_scale() {
        // A reduced-scale end-to-end audit; the full-scale audit is
        // `repro verify --scale 0.05`.
        let verdicts = run_checks(Scale::new(0.02), &Sched::new(4));
        let failed: Vec<&Verdict> = verdicts.iter().filter(|v| !v.pass).collect();
        assert!(
            failed.is_empty(),
            "claims failed: {:#?}",
            failed
                .iter()
                .map(|v| format!("{}: {}", v.claim, v.measured))
                .collect::<Vec<_>>()
        );
        assert_eq!(table(&verdicts).num_rows(), verdicts.len());
    }
}
