//! The edge walk at every chunk size.
//!
//! `PtConfig::chunk` sets how many edges a lane expands per work cycle
//! (4 in the paper). The kernel reads each lane's chunk as one validated
//! run of the edge array (and of the weight array), so a chunk that
//! straddles cache lines, spans a whole adjacency list or stops one word
//! short of it must still offer every edge exactly as the sequential
//! oracle walks it. Each workload, at chunk sizes on and off the 4-word
//! line and past typical degrees, on both a shared ticket queue and its
//! segmented form, over a road and a social graph, must land on its
//! oracle's values. A poisoned adjacency word read mid-chunk must fault
//! the launch and recover to the clean values.

use gpu_queue::Variant;
use pt_bfs::{
    run_recoverable, run_workload, Bfs, ConnectedComponents, PrDelta, PtConfig, PtWorkload,
    RecoveryPolicy, Sssp,
};
use ptq_graph::gen::{roadmap, social, RoadmapParams, SocialParams};
use ptq_graph::{bfs_levels, random_weights, Csr};
use simt::{AbortReason, FaultKind, FaultPlan, GpuConfig};

const CHUNKS: [u32; 8] = [1, 2, 3, 5, 8, 9, 16, 64];
const VARIANTS: [Variant; 2] = [Variant::RfAn, Variant::SegRfAn];

fn road() -> Csr {
    roadmap(RoadmapParams {
        rows: 16,
        cols: 16,
        keep_prob: 0.8,
        seed: 3,
    })
}

fn social_graph() -> Csr {
    social(SocialParams {
        vertices: 400,
        avg_degree: 8.0,
        alpha: 1.8,
        max_degree: 90,
        seed: 5,
    })
}

/// Runs `workload` at every chunk size on both variants and checks each
/// run against the oracle.
fn agrees_at_every_chunk<W: PtWorkload>(graph: &Csr, workload: &W, tag: &str) {
    let gpu = GpuConfig::test_tiny();
    let oracle = workload.reference(graph);
    for variant in VARIANTS {
        let mut cycles = Vec::new();
        for chunk in CHUNKS {
            let mut config = PtConfig::for_workload(workload, variant, 3);
            config.chunk = chunk;
            let run = run_workload(&gpu, graph, workload, &config)
                .unwrap_or_else(|e| panic!("{tag}/{variant:?}/chunk {chunk}: {e}"));
            assert_eq!(
                run.values, oracle,
                "{tag}/{variant:?}/chunk {chunk}: values diverged from the oracle"
            );
            cycles.push(run.metrics.work_cycles);
        }
        // The knob reaches the kernel: one edge per cycle takes longer.
        assert!(
            cycles[0] > cycles[CHUNKS.len() - 1],
            "{tag}/{variant:?}: work cycles per chunk {cycles:?}"
        );
    }
}

fn every_workload_agrees_on(graph: &Csr, name: &str) {
    agrees_at_every_chunk(graph, &Bfs::new(0), &format!("bfs/{name}"));
    let sssp = Sssp::new(0, random_weights(graph, 9, 0x55));
    agrees_at_every_chunk(graph, &sssp, &format!("sssp/{name}"));
    agrees_at_every_chunk(graph, &ConnectedComponents, &format!("cc/{name}"));
    agrees_at_every_chunk(graph, &PrDelta::new(0), &format!("pr-delta/{name}"));
}

#[test]
fn every_workload_matches_its_oracle_at_every_chunk_on_a_road_graph() {
    every_workload_agrees_on(&road(), "road");
}

#[test]
fn every_workload_matches_its_oracle_at_every_chunk_on_a_social_graph() {
    every_workload_agrees_on(&social_graph(), "social");
}

/// A poisoned word in the second 9-edge chunk of a hub two levels out:
/// the launch that reads it faults with the poison, and the retried run
/// recovers the clean levels.
#[test]
fn a_poisoned_edge_mid_chunk_faults_and_recovers_at_chunk_nine() {
    let graph = social_graph();
    let levels = bfs_levels(&graph, 0).levels;
    let hub = (0..graph.num_vertices() as u32)
        .find(|&v| levels[v as usize] == 2 && graph.degree(v) >= 12)
        .expect("a vertex two levels out with at least 12 out-edges");
    let word = graph.edge_start(hub) as usize + 10;
    let gpu = GpuConfig::test_tiny();
    let bfs = Bfs::new(0);
    let mut config = PtConfig::for_workload(&bfs, Variant::RfAn, 3);
    config.chunk = 9;
    let clean = run_workload(&gpu, &graph, &bfs, &config).unwrap();
    let plan = FaultPlan::new().poison(1, "edges", word);
    let policy = RecoveryPolicy {
        checkpoint_levels: u32::MAX,
        max_attempts: 4,
        ..RecoveryPolicy::default()
    };
    let run = run_recoverable(&gpu, &graph, &bfs, &config, &policy, &plan)
        .unwrap_or_else(|e| panic!("poisoned run failed: {e}"));
    let log = &run.recovery.attempts;
    assert!(
        log.iter().any(|a| matches!(
            a.reason,
            AbortReason::InjectedFault {
                kind: FaultKind::MemPoison,
                ..
            }
        )),
        "no poison fault logged: {log:?}"
    );
    assert_eq!(run.values, clean.values, "recovered values differ");
}
