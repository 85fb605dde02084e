//! Linearizability of the host queues under exhaustive + sampled
//! interleaving exploration (`gpu_queue::verify`).
//!
//! Every scenario here runs its schedules through the Wing–Gong checker
//! against the batch-aware sequential specs; a single non-linearizable
//! history panics inside the scenario runner. The default budgets keep
//! the suite in CI's PR-gating time box; the `verify-deep` job raises
//! them via `PTQ_SCHEDULES` (see `.github/workflows/ci.yml`).

use ptq::queue::verify::{
    check_segment_memory_bound, conformance_suite, run_conformance, schedule_budget, Explored,
    Scenario, ScenarioReport,
};
use std::collections::BTreeSet;

/// Default DFS budget per scenario. The acceptance bar is >= 1,000
/// distinct interleavings per host-queue scenario in the default run;
/// leave headroom above it.
const DEFAULT_BUDGET: usize = 1_500;

/// Width-1 batches, one per token: how BASE and SEG-RF use the core.
fn singly(tokens: &[u32]) -> Vec<Vec<u32>> {
    tokens.iter().map(|&t| vec![t]).collect()
}

fn assert_coverage(r: &ScenarioReport, what: &str) {
    // Visible with `--nocapture`: how much of the scenario was explored.
    println!(
        "{what}: {} schedules (exhausted: {}), {} distinct states, max depth {}",
        r.schedules, r.exhausted, r.states, r.max_depth
    );
    // Either the scenario's whole schedule space was smaller than the
    // budget and fully enumerated, or we explored at least 1,000 distinct
    // schedules of it.
    assert!(
        r.exhausted || r.schedules >= 1_000,
        "{what}: only {} schedules (exhausted: {})",
        r.schedules,
        r.exhausted
    );
    assert_eq!(
        r.histories_checked, r.schedules,
        "{what}: unchecked history"
    );
}

// ------------------------------------------------------------- BASE ----

#[test]
fn base_two_producers_two_consumers() {
    let s = Scenario {
        variant: Explored::Base,
        size: 8,
        producers: vec![singly(&[1, 2]), singly(&[3])],
        consumers: vec![(2, 1), (1, 1)],
    };
    let r = s.run(schedule_budget(DEFAULT_BUDGET));
    assert_coverage(&r, "BASE 2p2c");
    assert_eq!(r.rejections, BTreeSet::from([0]), "capacity 8 never fills");
    // Conservation: no schedule delivers a token twice or invents one.
    for d in &r.delivered {
        let mut dd = d.clone();
        dd.dedup();
        assert_eq!(dd.len(), d.len(), "double delivery in {d:?}");
        for t in d {
            assert!([1, 2, 3].contains(t), "invented token {t}");
        }
    }
}

#[test]
fn base_three_producers_one_consumer() {
    let s = Scenario {
        variant: Explored::Base,
        size: 8,
        producers: vec![singly(&[10]), singly(&[20]), singly(&[30])],
        consumers: vec![(2, 1)],
    };
    let r = s.run(schedule_budget(DEFAULT_BUDGET));
    assert_coverage(&r, "BASE 3p1c");
}

#[test]
fn base_contended_single_slot_cas_storm() {
    // Four threads racing tiny state maximizes CAS failure paths.
    let s = Scenario {
        variant: Explored::Base,
        size: 2,
        producers: vec![singly(&[1]), singly(&[2]), singly(&[3])],
        consumers: vec![(1, 1)],
    };
    let r = s.run(schedule_budget(DEFAULT_BUDGET));
    assert_coverage(&r, "BASE cas storm");
    // Capacity 2, three pushes: exactly one rejection in every schedule.
    assert_eq!(r.rejections, BTreeSet::from([1]));
}

#[test]
fn base_random_sampling_beyond_dfs() {
    let s = Scenario {
        variant: Explored::Base,
        size: 8,
        producers: vec![singly(&[1, 2]), singly(&[3, 4])],
        consumers: vec![(2, 1), (2, 1)],
    };
    let r = s.run_random(schedule_budget(DEFAULT_BUDGET), 0x5EED_0001);
    assert!(r.schedules >= 100, "only {} distinct samples", r.schedules);
    assert_eq!(r.histories_checked, schedule_budget(DEFAULT_BUDGET));
}

// --------------------------------------------------------------- AN ----

#[test]
fn an_batch_producers_and_consumers() {
    let s = Scenario {
        variant: Explored::An,
        size: 8,
        producers: vec![vec![vec![1, 2]], vec![vec![3, 4, 5]]],
        consumers: vec![(2, 4)],
    };
    let r = s.run(schedule_budget(DEFAULT_BUDGET));
    assert_coverage(&r, "AN 2p1c");
    assert_eq!(r.rejections, BTreeSet::from([0]));
    for d in &r.delivered {
        let mut dd = d.clone();
        dd.dedup();
        assert_eq!(dd.len(), d.len(), "double delivery in {d:?}");
    }
}

#[test]
fn an_three_threads_batch_races() {
    let s = Scenario {
        variant: Explored::An,
        size: 8,
        producers: vec![vec![vec![1], vec![2]], vec![vec![3, 4]]],
        consumers: vec![(2, 2)],
    };
    let r = s.run(schedule_budget(DEFAULT_BUDGET));
    assert_coverage(&r, "AN batch races");
}

#[test]
fn an_overflow_batch_rejected_whole_every_schedule() {
    // Capacity 3: [1,2] fits, then [3,4] must be rejected whole in every
    // interleaving (all-or-nothing), and [5] fits after.
    let s = Scenario {
        variant: Explored::An,
        size: 3,
        producers: vec![vec![vec![1, 2]], vec![vec![3, 4]]],
        consumers: vec![],
    };
    let r = s.run(schedule_budget(DEFAULT_BUDGET));
    assert!(r.exhausted);
    assert_eq!(r.rejections, BTreeSet::from([1]));
}

#[test]
fn an_random_sampling() {
    let s = Scenario {
        variant: Explored::An,
        size: 8,
        producers: vec![vec![vec![1, 2], vec![3]], vec![vec![4, 5]]],
        consumers: vec![(2, 3)],
    };
    let r = s.run_random(schedule_budget(DEFAULT_BUDGET), 0x5EED_0002);
    assert!(r.schedules >= 100, "only {} distinct samples", r.schedules);
}

// ------------------------------------------------------------ RF/AN ----

#[test]
fn rfan_reservation_races_publication() {
    let s = Scenario {
        variant: Explored::RfAn,
        size: 8,
        producers: vec![vec![vec![1, 2]], vec![vec![3]]],
        consumers: vec![(2, 5), (1, 3)],
    };
    let r = s.run(schedule_budget(DEFAULT_BUDGET));
    assert_coverage(&r, "RF/AN 2p2c");
    assert_eq!(r.rejections, BTreeSet::from([0]));
    for d in &r.delivered {
        let mut dd = d.clone();
        dd.dedup();
        assert_eq!(dd.len(), d.len(), "double delivery in {d:?}");
    }
}

#[test]
fn rfan_reserve_before_data_exists() {
    // Consumers may reserve before any producer has published — the
    // design's signature move. Every interleaving must linearize.
    let s = Scenario {
        variant: Explored::RfAn,
        size: 4,
        producers: vec![vec![vec![7, 8]]],
        consumers: vec![(2, 6), (2, 4)],
    };
    let r = s.run(schedule_budget(DEFAULT_BUDGET));
    assert_coverage(&r, "RF/AN early reserve");
}

#[test]
fn rfan_four_threads() {
    let s = Scenario {
        variant: Explored::RfAn,
        size: 8,
        producers: vec![vec![vec![1]], vec![vec![2, 3]]],
        consumers: vec![(1, 3), (2, 3)],
    };
    let r = s.run(schedule_budget(DEFAULT_BUDGET));
    assert_coverage(&r, "RF/AN 4 threads");
}

#[test]
fn rfan_random_sampling() {
    let s = Scenario {
        variant: Explored::RfAn,
        size: 8,
        producers: vec![vec![vec![1, 2], vec![3]], vec![vec![4]]],
        consumers: vec![(3, 6)],
    };
    let r = s.run_random(schedule_budget(DEFAULT_BUDGET), 0x5EED_0003);
    assert!(r.schedules >= 100, "only {} distinct samples", r.schedules);
}

// ------------------------------------------------- SEG-RF/AN (segmented) ----

#[test]
fn segmented_boundary_straddling_reserve() {
    // seg_cap 2, one batch of 3: the reservation straddles the segment
    // boundary, so the producer must install segment 1 before it may
    // publish its tail token. Every interleaving with the two racing
    // consumers must linearize, with no overflow rejection possible.
    let s = Scenario {
        variant: Explored::SegRfAn,
        size: 2,
        producers: vec![vec![vec![1, 2, 3]]],
        consumers: vec![(2, 5), (1, 3)],
    };
    let r = s.run(schedule_budget(DEFAULT_BUDGET));
    assert_coverage(&r, "SEG boundary straddle");
    assert_eq!(r.rejections, BTreeSet::from([0]), "segmented never rejects");
    for d in &r.delivered {
        let mut dd = d.clone();
        dd.dedup();
        assert_eq!(dd.len(), d.len(), "double delivery in {d:?}");
        for t in d {
            assert!([1, 2, 3].contains(t), "invented token {t}");
        }
    }
}

#[test]
fn segmented_append_vs_drain_race() {
    // Two producers race segment installation while a consumer drains the
    // queue out from under them: the install linearization point (one
    // tagged directory store per segment) must commute with concurrent
    // resolves, publishes and takes in every schedule.
    let s = Scenario {
        variant: Explored::SegRfAn,
        size: 2,
        producers: vec![vec![vec![1, 2]], vec![vec![3]]],
        consumers: vec![(3, 6)],
    };
    let r = s.run(schedule_budget(DEFAULT_BUDGET));
    assert_coverage(&r, "SEG append vs drain");
    assert_eq!(r.rejections, BTreeSet::from([0]));
}

#[test]
fn segmented_recycle_aba_single_slot_segments() {
    // seg_cap 1: every token occupies its own segment, so each take
    // retires a segment and pushes its storage onto the recycle pool,
    // from which the next install immediately re-arms it. The maximal
    // install/publish/take/recycle interleaving stress for ABA bugs.
    let s = Scenario {
        variant: Explored::SegRfAn,
        size: 1,
        producers: vec![vec![vec![1]], vec![vec![2]]],
        consumers: vec![(2, 5)],
    };
    let r = s.run(schedule_budget(DEFAULT_BUDGET));
    assert_coverage(&r, "SEG recycle/ABA");
    assert_eq!(r.rejections, BTreeSet::from([0]));
    for d in &r.delivered {
        let mut dd = d.clone();
        dd.dedup();
        assert_eq!(dd.len(), d.len(), "double delivery in {d:?}");
    }
}

#[test]
fn segmented_random_sampling() {
    let s = Scenario {
        variant: Explored::SegRfAn,
        size: 2,
        producers: vec![vec![vec![1, 2], vec![3]], vec![vec![4]]],
        consumers: vec![(3, 6)],
    };
    let r = s.run_random(schedule_budget(DEFAULT_BUDGET), 0x5EED_0004);
    assert!(r.schedules >= 100, "only {} distinct samples", r.schedules);
}

// ------------------------------------- SEG-RF, SEG-AN (the composed rows) ----

#[test]
fn segmented_rf_per_token_tickets_race_installs_and_recycling() {
    // SEG-RF is the AFA x segmented core driven at width 1: every enqueue
    // and every reservation is its own AFA. seg_cap 2, three tokens from
    // two producers: the second segment is installed by whichever producer
    // drew ticket 2, while three single-ticket consumers poll, drain and
    // retire segment 0 underneath it.
    let s = Scenario {
        variant: Explored::SegRfAn,
        size: 2,
        producers: vec![singly(&[1, 2]), singly(&[3])],
        consumers: vec![(1, 2), (1, 2), (1, 2)],
    };
    let r = s.run(schedule_budget(DEFAULT_BUDGET));
    assert_coverage(&r, "SEG-RF per-token");
    assert_eq!(r.rejections, BTreeSet::from([0]), "segmented never rejects");
    for d in &r.delivered {
        let mut dd = d.clone();
        dd.dedup();
        assert_eq!(dd.len(), d.len(), "double delivery in {d:?}");
    }
}

#[test]
fn segmented_an_batch_cas_straddles_a_boundary_against_a_racing_pop() {
    // SEG-AN is the CAS x segmented core: one CAS claims a 3-token region
    // straddling the seg_cap-2 boundary, and the producer must install both
    // segments before its publishes land — while a consumer's pops (which
    // never pass `Rear`, but may claim tickets whose segment is not
    // installed yet) race it and a second producer's CAS.
    let s = Scenario {
        variant: Explored::SegAn,
        size: 2,
        producers: vec![vec![vec![1, 2, 3]], vec![vec![4]]],
        consumers: vec![(2, 2)],
    };
    let r = s.run(schedule_budget(DEFAULT_BUDGET));
    assert_coverage(&r, "SEG-AN boundary straddle");
    assert_eq!(r.rejections, BTreeSet::from([0]), "segmented never rejects");
    for d in &r.delivered {
        let mut dd = d.clone();
        dd.dedup();
        assert_eq!(dd.len(), d.len(), "double delivery in {d:?}");
        for t in d {
            assert!([1, 2, 3, 4].contains(t), "invented token {t}");
        }
    }
}

// ------------------------------------------------- conformance harness ----

#[test]
fn conformance_matrix_covers_every_host_variant() {
    // The reusable conformance harness runs every host queue variant —
    // bounded and segmented — through one shared scenario matrix. Ordered
    // labels double as a registry check: adding a variant without wiring
    // it into the suite fails here.
    let reports: Vec<_> = conformance_suite()
        .iter()
        .map(|mk| run_conformance(*mk))
        .collect();
    let labels: Vec<&str> = reports.iter().map(|r| r.label).collect();
    assert_eq!(
        labels,
        [
            "BASE",
            "AN",
            "MUTEX",
            "RF/AN",
            "SEG-RF/AN",
            "SEG-RF",
            "SEG-AN"
        ]
    );
    for r in &reports {
        assert_eq!(r.cases.len(), 7, "{}: missing conformance case", r.label);
        if r.label.starts_with("SEG") {
            assert!(r.segment_appends > 0, "{}: never grew a segment", r.label);
        } else {
            assert_eq!(r.segment_appends, 0, "{}: bounded queue appended", r.label);
        }
    }
}

#[test]
fn conformance_memory_bound_holds_for_every_segmented_variant() {
    // Three variants x seg_cap {2, 3, 64}, here against the production
    // directory (one 64-entry level); the crate's unit suite runs the same
    // check against a directory that starts at one entry.
    assert_eq!(check_segment_memory_bound(), 9);
}
