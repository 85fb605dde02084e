//! `ptq-benchmark compare <a.jsonl> <b.jsonl>`: two sets of runs, side
//! by side.
//!
//! Each file holds one JSON object per line as the suite writes them
//! (`workload`, `seed`, `trace`, and the run's result object). For every
//! (workload, metric) the tool prints each side's median and quartiles,
//! the change, and a verdict:
//!
//! * exact metrics (simulated cycles, counts) must read the same on both
//!   sides wherever both sides ran the same seeds — any difference is a
//!   behaviour change and fails the comparison;
//! * a host-clock end-to-end metric is `regressed` when `b`'s median is
//!   worse than `a`'s by more than the metric's bound, `unresolved` when
//!   either side's own spread is wider than the bound (unless every run
//!   of `b` reads better than every run of `a`), else `unchanged`;
//! * host-clock per-layer metrics have no bound and are shown for
//!   information.
//!
//! A metric only one side reports (the two files come from different
//! versions of the benchmark) is flagged. The exit code is non-zero on
//! any regression, any exact-metric difference, any one-sided metric, or
//! any run that reported a failed check.

use crate::json::Json;
use crate::spec::{self, Better, Clock};
use crate::stats::{median, quartiles, spread};
use std::collections::BTreeMap;

/// One metric's samples on one side, with the seeds that produced them.
#[derive(Clone, Debug, Default)]
struct Samples {
    values: Vec<f64>,
    seeds: Vec<u64>,
}

/// (workload, metric) → samples, plus how many runs reported a failure.
struct RunSet {
    samples: BTreeMap<(String, String), Samples>,
    incorrect: usize,
}

fn load(path: &str) -> Result<RunSet, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut set = RunSet {
        samples: BTreeMap::new(),
        incorrect: 0,
    };
    for (number, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let at = |what: &str| format!("{path}:{}: {what}", number + 1);
        let run = Json::parse(line).map_err(|e| at(&e))?;
        let workload = run
            .get("workload")
            .and_then(Json::as_str)
            .ok_or_else(|| at("no workload"))?;
        let seed = run
            .get("seed")
            .and_then(Json::as_f64)
            .ok_or_else(|| at("no seed"))? as u64;
        if run.get("correct").and_then(Json::as_bool) != Some(true) {
            set.incorrect += 1;
        }
        let metrics = run
            .get("metrics")
            .and_then(Json::as_object)
            .ok_or_else(|| at("no metrics"))?;
        for (name, metric) in metrics {
            let value = metric
                .get("value")
                .and_then(Json::as_f64)
                .ok_or_else(|| at("metric without a value"))?;
            let entry = set
                .samples
                .entry((workload.to_owned(), name.clone()))
                .or_default();
            entry.values.push(value);
            entry.seeds.push(seed);
        }
    }
    Ok(set)
}

/// What the comparison concluded about one (workload, metric).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Identical,
    Different,
    Unchanged,
    Improved,
    Regressed,
    Unresolved,
    Info,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Identical => "identical",
            Verdict::Different => "DIFFERENT",
            Verdict::Unchanged => "unchanged",
            Verdict::Improved => "improved",
            Verdict::Regressed => "REGRESSED",
            Verdict::Unresolved => "unresolved",
            Verdict::Info => "",
        }
    }

    fn fails(self) -> bool {
        matches!(self, Verdict::Different | Verdict::Regressed)
    }
}

/// How much worse `b`'s median is than `a`'s, as a share of `a`'s
/// (negative when better).
fn worsening(a: f64, b: f64, better: Better) -> f64 {
    let change = (b - a) / a.abs().max(f64::MIN_POSITIVE);
    match better {
        Better::Lower => change,
        Better::Higher => -change,
    }
}

/// The verdict on a bounded host-clock metric.
pub fn judge_host(a: &[f64], b: &[f64], better: Better, bound: f64) -> Verdict {
    let worse = worsening(median(a), median(b), better);
    let every_b_better = match better {
        Better::Lower => b.iter().all(|y| a.iter().all(|x| y < x)),
        Better::Higher => b.iter().all(|y| a.iter().all(|x| y > x)),
    };
    if every_b_better {
        Verdict::Improved
    } else if spread(a).max(spread(b)) > bound {
        Verdict::Unresolved
    } else if worse > bound {
        Verdict::Regressed
    } else {
        Verdict::Unchanged
    }
}

/// The verdict on an exact metric: per seed both sides ran, every value
/// must agree (and each side must agree with itself).
fn judge_exact(a: &Samples, b: &Samples) -> Verdict {
    let by_seed = |s: &Samples| -> Option<BTreeMap<u64, u64>> {
        let mut map = BTreeMap::new();
        for (&seed, value) in s.seeds.iter().zip(&s.values) {
            if *map.entry(seed).or_insert(value.to_bits()) != value.to_bits() {
                return None; // one side disagrees with itself
            }
        }
        Some(map)
    };
    match (by_seed(a), by_seed(b)) {
        (Some(a), Some(b)) => {
            let same = a
                .iter()
                .filter_map(|(seed, va)| b.get(seed).map(|vb| va == vb))
                .all(|agree| agree);
            if same {
                Verdict::Identical
            } else {
                Verdict::Different
            }
        }
        _ => Verdict::Different,
    }
}

/// Runs the comparison and prints the table. Returns whether it passed.
pub fn compare(path_a: &str, path_b: &str) -> Result<bool, String> {
    let (a, b) = (load(path_a)?, load(path_b)?);
    println!("a = {path_a}\nb = {path_b}");
    println!(
        "{:<18} {:<46} {:>13} {:>13} {:>13} {:>13} {:>8} {:>6}  verdict",
        "workload", "metric", "a median", "a q1..q3", "b median", "b q1..q3", "worse%", "bound%"
    );
    let mut passed = a.incorrect == 0 && b.incorrect == 0;
    if !passed {
        println!(
            "FAILED CHECKS: {} runs in a and {} in b reported correct = false",
            a.incorrect, b.incorrect
        );
    }
    let mut tally: BTreeMap<&'static str, usize> = BTreeMap::new();
    for (workload, name) in b.samples.keys().filter(|key| !a.samples.contains_key(key)) {
        println!("{workload:<18} {name:<46} only in b");
        passed = false;
    }
    for (key, sa) in &a.samples {
        let (workload, name) = key;
        let Some(sb) = b.samples.get(key) else {
            println!("{workload:<18} {name:<46} only in a");
            passed = false;
            continue;
        };
        // A result object lists every per-layer name; only the metrics
        // the workload measures are compared, the rest are 0 by rule.
        let Some(metric) = spec::lookup(name)
            .filter(|m| spec::workload(workload).is_some_and(|w| m.measured_by(w)))
        else {
            continue;
        };
        let verdict = match (metric.clock, metric.bound) {
            (Clock::Exact, _) => judge_exact(sa, sb),
            (Clock::Host, Some(bound)) => judge_host(&sa.values, &sb.values, metric.better, bound),
            (Clock::Host, None) => Verdict::Info,
        };
        passed &= !verdict.fails();
        *tally.entry(verdict.label()).or_default() += 1;
        let (ma, mb) = (median(&sa.values), median(&sb.values));
        let range = |v: &[f64]| {
            let (q1, q3) = quartiles(v);
            format!("{q1:.4}..{q3:.4}")
        };
        println!(
            "{workload:<18} {name:<46} {ma:>13.6} {:>13} {mb:>13.6} {:>13} {:>8.2} {:>6}  {}",
            range(&sa.values),
            range(&sb.values),
            worsening(ma, mb, metric.better) * 100.0,
            metric
                .bound
                .map_or(String::new(), |bound| format!("{:.0}", bound * 100.0)),
            verdict.label(),
        );
    }
    let summary: Vec<String> = tally
        .iter()
        .filter(|(label, _)| !label.is_empty())
        .map(|(label, count)| format!("{count} {label}"))
        .collect();
    println!(
        "{}: {}",
        if passed { "PASS" } else { "FAIL" },
        summary.join(", ")
    );
    Ok(passed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn host_verdicts_follow_the_bound_and_the_spread() {
        let a = [1.00, 1.01, 0.99, 1.00, 1.02];
        // Median 4% worse, bound 10%: unchanged.
        let b = [1.04, 1.05, 1.03, 1.04, 1.06];
        assert_eq!(judge_host(&a, &b, Better::Lower, 0.10), Verdict::Unchanged);
        // Median 20% worse: regressed.
        let c = [1.20, 1.21, 1.19, 1.20, 1.22];
        assert_eq!(judge_host(&a, &c, Better::Lower, 0.10), Verdict::Regressed);
        // Same medians, but b's own spread is wider than the bound.
        let noisy = [0.8, 1.0, 1.25, 0.85, 1.3];
        assert_eq!(
            judge_host(&a, &noisy, Better::Lower, 0.10),
            Verdict::Unresolved
        );
        // Every run of b better than every run of a wins despite spread.
        let fast = [0.5, 0.7, 0.9, 0.6, 0.8];
        assert_eq!(
            judge_host(&a, &fast, Better::Lower, 0.10),
            Verdict::Improved
        );
        // Direction flips for higher-is-better metrics.
        assert_eq!(judge_host(&a, &c, Better::Higher, 0.10), Verdict::Improved);
        assert_eq!(judge_host(&c, &a, Better::Higher, 0.10), Verdict::Regressed);
    }

    #[test]
    fn exact_metrics_compare_per_seed() {
        let samples = |pairs: &[(u64, f64)]| Samples {
            seeds: pairs.iter().map(|p| p.0).collect(),
            values: pairs.iter().map(|p| p.1).collect(),
        };
        let a = samples(&[(1, 10.0), (2, 20.0), (1, 10.0)]);
        assert_eq!(
            judge_exact(&a, &samples(&[(1, 10.0), (2, 20.0)])),
            Verdict::Identical
        );
        // Another seed's value says nothing; a shared seed's must agree.
        assert_eq!(judge_exact(&a, &samples(&[(3, 99.0)])), Verdict::Identical);
        assert_eq!(
            judge_exact(&a, &samples(&[(2, 20.000001)])),
            Verdict::Different
        );
        // A side that disagrees with itself on one seed is not exact.
        assert_eq!(
            judge_exact(&samples(&[(1, 1.0), (1, 2.0)]), &a),
            Verdict::Different
        );
    }
}
