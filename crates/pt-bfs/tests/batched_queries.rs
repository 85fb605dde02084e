//! Multi-query batching end-to-end: a [`QueryBatch`] of `k` compatible
//! queries fused into one persistent-thread launch must reproduce, in
//! slice `i` of its widened value array, the byte-exact value array of
//! member `i`'s solo run — under every queue variant, through the
//! checkpoint/resume recovery path, and with the retry-free audits
//! active throughout. This is the per-member confluence claim of
//! DESIGN.md *Query fusion* pinned as a test.

use gpu_queue::Variant;
use pt_bfs::workload::QueryBatch;
use pt_bfs::{
    run_recoverable, run_workload, Bfs, ConnectedComponents, PrDelta, PtConfig, PtWorkload,
    RecoveryPolicy, Sssp,
};
use ptq_graph::gen::{erdos_renyi, social, synthetic_tree, SocialParams};
use ptq_graph::Csr;
use simt::{FaultPlan, GpuConfig};

/// Runs `batch` and each member solo under `variant`, asserting every
/// member slice of the batched values equals the solo value array.
fn assert_batch_matches_solos<W: PtWorkload>(graph: &Csr, members: Vec<W>, variant: Variant) {
    let gpu = GpuConfig::test_tiny();
    let batch = QueryBatch::new(members.clone(), graph.num_vertices());
    let config = PtConfig::for_workload(&batch, variant, 4);
    let run = run_workload(&gpu, graph, &batch, &config)
        .unwrap_or_else(|e| panic!("{variant:?} batch failed: {e}"));
    assert_eq!(
        run.values.len(),
        members.len() * graph.num_vertices(),
        "batched value array spans every member"
    );
    let mut solo_reached = 0;
    for (i, member) in members.iter().enumerate() {
        let solo_config = PtConfig::for_workload(member, variant, 4);
        let solo = run_workload(&gpu, graph, member, &solo_config)
            .unwrap_or_else(|e| panic!("{variant:?} solo member {i} failed: {e}"));
        assert_eq!(
            batch.member_values(&run.values, i),
            &solo.values[..],
            "{variant:?}: member {i} batched values diverge from its solo run"
        );
        solo_reached += solo.reached;
    }
    assert_eq!(run.reached, solo_reached, "{variant:?} reached mismatch");
}

#[test]
fn batched_bfs_slices_equal_solo_runs_for_all_variants() {
    let g = erdos_renyi(400, 1600, 21);
    for variant in [Variant::Base, Variant::An, Variant::RfAn, Variant::SegRfAn] {
        assert_batch_matches_solos(&g, vec![Bfs::new(0), Bfs::new(7), Bfs::new(123)], variant);
    }
}

#[test]
fn batched_bfs_multi_source_frontier_on_social_graph() {
    let g = social(SocialParams {
        vertices: 700,
        avg_degree: 8.0,
        alpha: 1.8,
        max_degree: 120,
        seed: 13,
    });
    let sources = [0u32, 50, 333, 699];
    assert_batch_matches_solos(
        &g,
        sources.iter().map(|&s| Bfs::new(s)).collect(),
        Variant::SegRfAn,
    );
}

#[test]
fn batched_sssp_shares_one_weight_upload() {
    // Homogeneity contract: every member carries the same weight array;
    // the batch binds it once through the prototype.
    let g = synthetic_tree(500, 4);
    let weights: Vec<u32> = (0..g.num_edges()).map(|i| 1 + (i as u32 % 7)).collect();
    let members: Vec<Sssp> = [0u32, 9, 250]
        .iter()
        .map(|&s| Sssp::new(s, weights.clone()))
        .collect();
    assert_batch_matches_solos(&g, members, Variant::RfAn);
}

#[test]
fn batched_max_claim_prdelta_slices_equal_solo_runs() {
    let g = social(SocialParams {
        vertices: 300,
        avg_degree: 6.0,
        alpha: 1.9,
        max_degree: 60,
        seed: 29,
    });
    assert_batch_matches_solos(&g, vec![PrDelta::new(0), PrDelta::new(42)], Variant::RfAn);
}

#[test]
fn batched_all_vertex_seeding_cc() {
    // CC seeds every vertex: a k-member batch seeds k * n tokens and
    // overrides `reached` per slice.
    let g = erdos_renyi(200, 500, 31);
    assert_batch_matches_solos(
        &g,
        vec![ConnectedComponents, ConnectedComponents],
        Variant::SegRfAn,
    );
}

#[test]
fn batched_run_survives_checkpoint_resume() {
    // The recovery path sizes checkpoints, inqueue snapshots, and the
    // spill buffer by `state_len`, so a fenced multi-epoch run of a
    // batch must land on the same fused value array as the plain run.
    let g = synthetic_tree(400, 4);
    let batch = QueryBatch::new(vec![Bfs::new(0), Bfs::new(17)], g.num_vertices());
    let config = PtConfig::for_workload(&batch, Variant::RfAn, 3);
    let gpu = GpuConfig::test_tiny();
    let plain = run_workload(&gpu, &g, &batch, &config).unwrap();
    let policy = RecoveryPolicy {
        checkpoint_levels: 3,
        ..RecoveryPolicy::default()
    };
    let recovered = run_recoverable(&gpu, &g, &batch, &config, &policy, &FaultPlan::new()).unwrap();
    assert!(
        recovered.recovery.epochs > 1,
        "stride forces several epochs"
    );
    assert_eq!(recovered.values, plain.values);
    assert_eq!(recovered.reached, plain.reached);
}

#[test]
fn batched_recovery_survives_wave_kill() {
    let g = synthetic_tree(300, 4);
    let batch = QueryBatch::new(vec![Bfs::new(0), Bfs::new(5)], g.num_vertices());
    let config = PtConfig::for_workload(&batch, Variant::RfAn, 3);
    let gpu = GpuConfig::test_tiny();
    let plain = run_workload(&gpu, &g, &batch, &config).unwrap();
    let policy = RecoveryPolicy {
        checkpoint_levels: 4,
        ..RecoveryPolicy::default()
    };
    let plan = FaultPlan::new().kill_wave(3, 0);
    let recovered = run_recoverable(&gpu, &g, &batch, &config, &policy, &plan).unwrap();
    assert!(
        !recovered.recovery.attempts.is_empty(),
        "the injected fault is survived, not dodged"
    );
    assert_eq!(recovered.values, plain.values);
}
