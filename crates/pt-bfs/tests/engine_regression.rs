//! Engine-optimization regression guard.
//!
//! The `simt` engine's hot loop was rewritten (dense active-wave list,
//! generation-stamped round state, reusable scratch). None of that may
//! change *behaviour*: the simulator is deterministic, so every metric of
//! a seeded BFS — atomics, retries, rounds, makespan — must stay exactly
//! as it was before the rewrite. These values were captured from the
//! pre-rewrite engine; any diff means the optimization changed scheduling
//! order or cost accounting, not just speed.

use gpu_queue::device::Design;
use gpu_queue::Variant;
use pt_bfs::{run_bfs, PtConfig};
use ptq_graph::gen::{erdos_renyi, synthetic_tree};
use simt::GpuConfig;

/// Exact per-variant counters on a seeded 500-vertex random graph,
/// 4 workgroups on the tiny test device.
#[test]
fn seeded_bfs_metrics_are_pinned() {
    let graph = erdos_renyi(500, 1500, 42);
    for (variant, golden) in [
        (Variant::Base, GOLDEN_BASE),
        (Variant::An, GOLDEN_AN),
        (Variant::RfAn, GOLDEN_RFAN),
    ] {
        let run = run_bfs(
            &GpuConfig::test_tiny(),
            &graph,
            0,
            &PtConfig::new(variant, 4),
        )
        .unwrap_or_else(|e| panic!("{variant:?}: {e}"));
        let m = &run.metrics;
        let got = Golden {
            rounds: m.rounds,
            work_cycles: m.work_cycles,
            global_atomics: m.global_atomics,
            cas_attempts: m.cas_attempts,
            cas_failures: m.cas_failures,
            queue_empty_retries: m.queue_empty_retries,
            makespan_cycles: m.makespan_cycles,
        };
        assert_eq!(got, golden, "{variant:?} metrics drifted");
    }
}

#[derive(Debug, PartialEq, Eq)]
struct Golden {
    rounds: u64,
    work_cycles: u64,
    global_atomics: u64,
    cas_attempts: u64,
    cas_failures: u64,
    queue_empty_retries: u64,
    makespan_cycles: u64,
}

const GOLDEN_BASE: Golden = Golden {
    rounds: 43,
    work_cycles: 172,
    global_atomics: 4063,
    cas_attempts: 1994,
    cas_failures: 1069,
    queue_empty_retries: 73,
    makespan_cycles: 4021,
};
const GOLDEN_AN: Golden = Golden {
    rounds: 40,
    work_cycles: 159,
    global_atomics: 3053,
    cas_attempts: 796,
    cas_failures: 524,
    queue_empty_retries: 54,
    makespan_cycles: 4107,
};
const GOLDEN_RFAN: Golden = Golden {
    rounds: 40,
    work_cycles: 158,
    global_atomics: 2491,
    cas_attempts: 0,
    cas_failures: 0,
    queue_empty_retries: 0,
    makespan_cycles: 4083,
};

/// Polling-heavy long tail: a 400-vertex chain keeps the frontier at one
/// vertex, so with 8 workgroups nearly every wave spends nearly every
/// round idle-polling its monitored `dna` slots (RF/AN, RF-only,
/// SEG-RF/AN), retrying dequeues (AN, BASE) or scanning for a victim (the
/// stealing scheduler). This pins the exact cost of those poll rounds
/// — metrics *and* per-CU cycle counts — so the engine's event-aware wave
/// parking fast path is provably cycle-exact, not an approximation.
#[test]
fn polling_heavy_long_tail_is_pinned() {
    let graph = synthetic_tree(400, 1);
    let gpu = GpuConfig::test_tiny();
    use Design::{PerCu, Shared};
    for (design, golden, cu_cycles) in [
        (
            Shared(Variant::RfAn),
            GOLDEN_TAIL_RFAN,
            GOLDEN_TAIL_RFAN_CUS,
        ),
        (
            Shared(Variant::RfOnly),
            GOLDEN_TAIL_RFONLY,
            GOLDEN_TAIL_RFONLY_CUS,
        ),
        (Shared(Variant::An), GOLDEN_TAIL_AN, GOLDEN_TAIL_AN_CUS),
        (
            Shared(Variant::Base),
            GOLDEN_TAIL_BASE,
            GOLDEN_TAIL_BASE_CUS,
        ),
        (
            Shared(Variant::SegRfAn),
            GOLDEN_TAIL_SEG,
            GOLDEN_TAIL_SEG_CUS,
        ),
        (PerCu, GOLDEN_TAIL_STEALING, GOLDEN_TAIL_STEALING_CUS),
    ] {
        let run = run_bfs(&gpu, &graph, 0, &PtConfig::new(design, 8))
            .unwrap_or_else(|e| panic!("{design:?}: {e}"));
        let m = &run.metrics;
        let got = Golden {
            rounds: m.rounds,
            work_cycles: m.work_cycles,
            global_atomics: m.global_atomics,
            cas_attempts: m.cas_attempts,
            cas_failures: m.cas_failures,
            queue_empty_retries: m.queue_empty_retries,
            makespan_cycles: m.makespan_cycles,
        };
        assert_eq!(got, golden, "{design:?} long-tail metrics drifted");
        assert_eq!(
            run.per_cu_cycles, cu_cycles,
            "{design:?} long-tail per-CU cycles drifted"
        );
        assert_eq!(m.global_mem_ops, golden_tail_mem_ops(design));
    }
}

fn golden_tail_mem_ops(design: Design) -> u64 {
    match design {
        Design::Shared(Variant::RfAn) => 9130,
        Design::Shared(Variant::RfOnly) => 9130,
        Design::Shared(Variant::An) => 12422,
        Design::Shared(Variant::Base) => 12422,
        Design::Shared(Variant::SegRfAn) => 12591,
        Design::PerCu => 15227,
    }
}

const GOLDEN_TAIL_RFAN: Golden = Golden {
    rounds: 401,
    work_cycles: 3204,
    global_atomics: 2403,
    cas_attempts: 0,
    cas_failures: 0,
    queue_empty_retries: 0,
    makespan_cycles: 11800,
};
const GOLDEN_TAIL_RFAN_CUS: [u64; 2] = [11782, 11800];
const GOLDEN_TAIL_RFONLY: Golden = Golden {
    rounds: 401,
    work_cycles: 3204,
    global_atomics: 2427,
    cas_attempts: 0,
    cas_failures: 0,
    queue_empty_retries: 0,
    makespan_cycles: 10984,
};
const GOLDEN_TAIL_RFONLY_CUS: [u64; 2] = [10962, 10984];
const GOLDEN_TAIL_AN: Golden = Golden {
    rounds: 400,
    work_cycles: 3200,
    global_atomics: 3569,
    cas_attempts: 1972,
    cas_failures: 1173,
    queue_empty_retries: 12400,
    makespan_cycles: 15010,
};
const GOLDEN_TAIL_AN_CUS: [u64; 2] = [14992, 15010];
const GOLDEN_TAIL_BASE: Golden = Golden {
    rounds: 400,
    work_cycles: 3200,
    global_atomics: 2787,
    cas_attempts: 1190,
    cas_failures: 391,
    queue_empty_retries: 12400,
    makespan_cycles: 8482,
};
const GOLDEN_TAIL_BASE_CUS: [u64; 2] = [6200, 6222];
const GOLDEN_TAIL_SEG: Golden = Golden {
    rounds: 401,
    work_cycles: 3204,
    global_atomics: 2814,
    cas_attempts: 0,
    cas_failures: 0,
    queue_empty_retries: 0,
    makespan_cycles: 13529,
};
const GOLDEN_TAIL_SEG_CUS: [u64; 2] = [13514, 13529];
const GOLDEN_TAIL_STEALING: Golden = Golden {
    rounds: 401,
    work_cycles: 3201,
    global_atomics: 2396,
    cas_attempts: 0,
    cas_failures: 0,
    queue_empty_retries: 12404,
    makespan_cycles: 18020,
};
const GOLDEN_TAIL_STEALING_CUS: [u64; 2] = [18020, 14410];
