//! Rodinia-style level-synchronous BFS.
//!
//! One kernel launch per BFS level; every launch scans a frontier mask
//! over *all* vertices (one thread per vertex), expands the marked ones,
//! and sets a host-visible `changed` flag. The host relaunches until a
//! level discovers nothing. No queue and no atomics — the benign write
//! races of the original are harmless under level synchronization — but
//! deep graphs pay `levels × launch_overhead` plus `levels × n` mask
//! scans, which is exactly why the paper beats it by 36× on shallow
//! small inputs and only 1.26× on the wide 1M-vertex one.

use crate::runner::{PhaseWalls, Run};
use crate::UNVISITED;
use ptq_graph::Csr;
use simt::{
    Buffer, Engine, GpuConfig, Launch, Metrics, Profile, RoundBounds, SimError, WaveCtx,
    WaveKernel, WaveStatus,
};

/// One wavefront of the per-level expansion kernel. Wave `i` of `W`
/// processes vertex blocks `i, i+W, i+2W, …`, one block of `wave_size`
/// vertices per work cycle.
struct LevelKernel {
    nodes: Buffer,
    edges: Buffer,
    costs: Buffer,
    mask: Buffer,
    next_mask: Buffer,
    changed: Buffer,
    num_vertices: usize,
    wave_size: usize,
    stride: usize,
    next_block: usize,
    any_update: bool,
}

impl WaveKernel for LevelKernel {
    fn work_cycle(&mut self, ctx: &mut WaveCtx<'_>) -> WaveStatus {
        let begin = self.next_block * self.wave_size;
        if begin >= self.num_vertices {
            // Publish the wave's OR-reduced update flag once at the end.
            if self.any_update {
                ctx.global_write(self.changed, 0, 1);
                self.any_update = false;
            }
            return WaveStatus::Done;
        }
        let end = (begin + self.wave_size).min(self.num_vertices);
        // The wavefront scans a contiguous mask block every level: fully
        // coalesced (this is why Rodinia stays competitive on wide
        // graphs — its scans are cheap per vertex; the per-level launch
        // and host synchronization are what hurt on deep ones).
        ctx.charge_coalesced_access(self.mask, begin, end - begin);
        for v in begin..end {
            let in_frontier = ctx.peek(self.mask, v);
            if in_frontier == 0 {
                continue;
            }
            ctx.poke(self.mask, v, 0);
            ctx.charge_coalesced_access(self.nodes, v, 2);
            let start = ctx.peek(self.nodes, v);
            let stop = ctx.peek(self.nodes, v + 1);
            let my_cost = ctx.global_read_lane(self.costs, v);
            for e in start..stop {
                let child = ctx.global_read_lane(self.edges, e as usize);
                let cost = ctx.global_read_lane(self.costs, child as usize);
                if cost == UNVISITED {
                    // Benign race: level synchronization makes every
                    // writer store the same value.
                    ctx.global_write_lane(self.costs, child as usize, my_cost + 1);
                    ctx.global_write_lane(self.next_mask, child as usize, 1);
                    self.any_update = true;
                }
            }
        }
        self.next_block += self.stride;
        WaveStatus::Active
    }
}

/// Runs the Rodinia-style BFS: one launch per level until quiescence.
///
/// # Errors
/// Propagates simulator faults; errors if the level count exceeds
/// `4 * |V| + 16` (which would indicate a bug — BFS has at most |V| levels).
pub fn run_rodinia(
    gpu: &GpuConfig,
    graph: &Csr,
    source: u32,
    workgroups: usize,
) -> Result<Run, SimError> {
    let n = graph.num_vertices();
    assert!((source as usize) < n, "source out of range");
    let mut engine = Engine::new(gpu.clone());
    let mem = engine.memory_mut();
    mem.map("nodes", graph.shared_row_offsets());
    mem.map("edges", graph.shared_adjacency());
    let costs = mem.alloc_filled("costs", n, UNVISITED);
    mem.write_u32(costs, source as usize, 0);
    let mask = mem.alloc("mask", n);
    mem.write_u32(mask, source as usize, 1);
    let next_mask = mem.alloc("next_mask", n);
    let changed = mem.alloc("changed", 1);

    let nodes = mem.buffer("nodes");
    let edges = mem.buffer("edges");
    let total_waves = workgroups * gpu.waves_per_wg;
    let mut metrics = Metrics::default();
    let mut profile = Profile::default();
    let mut round_bounds = RoundBounds::default();
    let mut phases = PhaseWalls::default();
    let mut seconds = 0.0;
    let max_levels = 4 * n as u64 + 16;
    let mut levels = 0u64;
    loop {
        if levels > max_levels {
            return Err(SimError::MaxRoundsExceeded { limit: max_levels });
        }
        let level_start = std::time::Instant::now();
        let report = engine.run(Launch::workgroups(workgroups), |info| LevelKernel {
            nodes,
            edges,
            costs,
            mask,
            next_mask,
            changed,
            num_vertices: n,
            wave_size: info.wave_size,
            stride: total_waves,
            next_block: info.wave_id,
            any_update: false,
        })?;
        metrics.merge(&report.metrics);
        profile.merge(&report.profile);
        round_bounds.merge(&report.round_bounds);
        phases.sim_seconds += level_start.elapsed().as_secs_f64();
        seconds += report.seconds;
        // Per-level host work the persistent design avoids entirely:
        // result readback, quiescence check, and the mask-promotion kernel
        // (Rodinia's "Kernel 2") with its own dispatch — modeled as two
        // extra launch overheads per level.
        let host_sync = 2 * gpu.cost.launch_overhead;
        metrics.makespan_cycles += host_sync;
        seconds += gpu.cycles_to_seconds(host_sync);
        levels += 1;
        let mem = engine.memory_mut();
        if mem.read_u32(changed, 0) == 0 {
            break;
        }
        // Host-side (kernel 2 in the original): promote next_mask to mask.
        // The original does this on-device with a second tiny launch whose
        // cost we fold into the next launch's overhead.
        let pending: Vec<u32> = mem.read_slice(next_mask).to_vec();
        for (v, &flag) in pending.iter().enumerate() {
            if flag != 0 {
                mem.write_u32(mask, v, 1);
                mem.write_u32(next_mask, v, 0);
            }
        }
        mem.write_u32(changed, 0, 0);
    }

    let values = engine.memory().read_slice(costs).to_vec();
    let reached = values.iter().filter(|&&c| c != UNVISITED).count();
    Ok(Run {
        seconds,
        metrics,
        values,
        reached,
        // Level-synchronous launches overwrite per-CU cycles each level;
        // only the merged totals are meaningful here.
        per_cu_cycles: Vec::new(),
        round_bounds,
        recovery: crate::recovery::RecoveryLog::default(),
        profile,
        phases,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ptq_graph::gen::{rodinia as gen_rodinia, synthetic_tree};
    use ptq_graph::{bfs_levels, validate_levels};

    #[test]
    fn exact_levels_on_tree() {
        let g = synthetic_tree(300, 4);
        let run = run_rodinia(&GpuConfig::test_tiny(), &g, 0, 2).unwrap();
        validate_levels(&g, 0, &run.values).unwrap();
    }

    #[test]
    fn exact_levels_on_rodinia_style_graph() {
        let g = gen_rodinia(800, 6, 11);
        let run = run_rodinia(&GpuConfig::test_tiny(), &g, 0, 3).unwrap();
        let reference = bfs_levels(&g, 0);
        assert_eq!(run.reached, reference.reached);
        validate_levels(&g, 0, &run.values).unwrap();
    }

    #[test]
    fn launch_count_equals_levels_plus_final_check() {
        let g = synthetic_tree(85, 4); // depth 3 => levels 0..3
        let run = run_rodinia(&GpuConfig::test_tiny(), &g, 0, 1).unwrap();
        // One launch per level; the last (leaf) level discovers nothing
        // and doubles as the quiescence check.
        assert_eq!(run.metrics.launches, 4);
    }

    #[test]
    fn no_atomics_at_all() {
        let g = synthetic_tree(100, 4);
        let run = run_rodinia(&GpuConfig::test_tiny(), &g, 0, 2).unwrap();
        assert_eq!(run.metrics.global_atomics, 0);
    }

    #[test]
    fn single_vertex() {
        let g = synthetic_tree(1, 4);
        let run = run_rodinia(&GpuConfig::test_tiny(), &g, 0, 1).unwrap();
        assert_eq!(run.reached, 1);
    }
}
