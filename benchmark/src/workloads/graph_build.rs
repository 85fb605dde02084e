//! `graph_build_setup`: graph generation, CSR construction and device
//! set-up, with no simulation at all. These are a few percent of every
//! other workload's pass, so only here can they be optimised visibly;
//! `peak_rss_mb` guards the streamed builder's O(chunk) claim. Closed
//! loop, one client.

use super::{salt, traced_dataset};
use crate::harness::{Pass, Workload};
use crate::json::Metrics;
use crate::layers::{
    bfs_levels, build_streamed, for_each_giant_edge, Csr, CsrBuilder, Dataset, Engine, GpuConfig,
    QueueLayout, StealingLayout, DEFAULT_CHUNK_EDGES,
};
use crate::trace::Recorder;
use std::time::Instant;

/// Scales chosen so a pass takes about a second of host time.
const BUILDS: [(Dataset, f64); 5] = [
    (Dataset::Giant, 0.04),
    (Dataset::SocLiveJournal1, 0.04),
    (Dataset::GplusCombined, 0.1),
    (Dataset::RoadUSA, 0.02),
    (Dataset::Synthetic, 0.1),
];
/// The edge stream driven through both builders.
const STREAM_SCALE: f64 = 0.02;
/// Device set-ups per graph: the first may meet a cold arena pool, the
/// rest recycle it.
const SETUPS_PER_GRAPH: usize = 4;
/// The stealing layout's one set-up: Fiji's 56 per-CU queues over the
/// tree at this share of the `Synthetic` build above.
const STEALING_SHARE: usize = 8;

pub struct GraphBuild {
    seed: u64,
    /// Edges the last pass generated, for the build rate.
    edges: u64,
}

/// The allocation sequence of one runner launch (`run_workload_once`):
/// graph upload, value array, on-queue bits, pending counter, the
/// scheduler queue painted with sentinels and seeded with the source.
fn device_setup(gpu: &GpuConfig, graph: &Csr, pass: &mut Pass) -> (u64, u64) {
    let n = graph.num_vertices();
    let mut engine = Engine::new(gpu.clone());
    let mem = engine.memory_mut();
    let nodes = mem.alloc_init("nodes", graph.row_offsets());
    mem.alloc_init("edges", graph.adjacency());
    let costs = mem.alloc_filled("costs", n, u32::MAX);
    mem.write_u32(costs, 0, 0);
    let inqueue = mem.alloc("inqueue", n);
    mem.write_u32(inqueue, 0, 1);
    let pending = mem.alloc("pending", 1);
    mem.write_u32(pending, 0, 1);
    let capacity = (2 * n).clamp(64, u32::MAX as usize) as u32;
    let queue = QueueLayout::setup(mem, "workqueue", capacity);
    queue.host_seed(mem, &[0]);
    // What a kernel would find: the graph as uploaded, a zeroed bitmap
    // past the source, one token in the queue.
    let intact = mem.read_slice(nodes) == graph.row_offsets()
        && mem.read_u32(costs, n - 1) == u32::MAX
        && mem.read_u32(inqueue, n - 1) == 0
        && queue.host_len(mem) == 1;
    if !intact {
        pass.fail(format!("device set-up over {n} vertices read back wrong"));
    }
    pass.fingerprint.word(mem.allocated_words() as u64);
    (mem.allocated_words() as u64, mem.demand_zeroed_words())
}

impl Workload for GraphBuild {
    fn build(seed: u64, _rec: &mut Recorder) -> Self {
        GraphBuild { seed, edges: 0 }
    }

    fn pass(&mut self, rec: &mut Recorder, _check: bool) -> Pass {
        let mut pass = Pass::default();
        let spectre = GpuConfig::spectre();
        let (mut edges, mut bytes) = (0u64, 0u64);
        let (mut arena_peak, mut demand_zeroed) = (0u64, 0u64);
        let mut setup_seconds = 0.0;
        let mut tree = None;
        for (dataset, scale) in BUILDS {
            let name = dataset.spec().name;
            pass.attempted += 1;
            let graph = traced_dataset(rec, dataset, scale);
            edges += graph.num_edges() as u64;
            bytes += 4 * (graph.row_offsets().len() + graph.adjacency().len()) as u64;
            // The degree sequence and the shape of the BFS tree pin the
            // graph; hashing every edge as well would be harness time
            // worth 2 % of the pass.
            pass.fingerprint.words(graph.row_offsets());
            let (reached, depth) = rec.call("graph.bfs.oracle", name, || {
                let levels = bfs_levels(&graph, 0);
                (levels.reached, levels.max_level)
            });
            pass.fingerprint.word(reached as u64);
            pass.fingerprint.word(u64::from(depth));
            // The tree and the giant's heap skeleton reach every vertex
            // by construction; the random families at least a quarter.
            let all = matches!(dataset, Dataset::Synthetic | Dataset::Giant);
            if (all && reached != graph.num_vertices()) || reached <= graph.num_vertices() / 4 {
                pass.fail(format!(
                    "{name}: BFS reaches {reached} of {}",
                    graph.num_vertices()
                ));
            }

            for _ in 0..SETUPS_PER_GRAPH {
                pass.attempted += 1;
                let begun = Instant::now();
                let (words, zeroed) = rec.call("simt.memory.setup", name, || {
                    device_setup(&spectre, &graph, &mut pass)
                });
                setup_seconds += begun.elapsed().as_secs_f64();
                arena_peak = arena_peak.max(words);
                demand_zeroed += zeroed;
            }
            if dataset == Dataset::Synthetic {
                tree = Some(graph);
            }
        }

        // One edge stream, two builders: the streamed two-pass builder
        // must produce the in-memory builder's graph byte for byte.
        let n = (Dataset::Giant.spec().vertices as f64 * STREAM_SCALE) as usize;
        let stream_seed = 0x61A7 ^ salt(self.seed);
        pass.attempted += 2;
        let streamed = rec.call("graph.stream.build", "giant", || {
            build_streamed(n, DEFAULT_CHUNK_EDGES, |emit| {
                for_each_giant_edge(n, 7, stream_seed, emit)
            })
        });
        let in_memory = rec.call("graph.csr.builder_build", "giant", || {
            let mut builder = CsrBuilder::new(n);
            for_each_giant_edge(n, 7, stream_seed, &mut |src, dst| {
                builder.add_edge(src, dst)
            });
            builder.build()
        });
        if streamed != in_memory {
            pass.fail("streamed and in-memory builders disagree on one edge stream");
        }
        pass.fingerprint.words(streamed.row_offsets());

        // The distributed scheduler's layout: one queue per Fiji CU.
        let tree = tree.expect("the Synthetic build is in BUILDS");
        let fiji = GpuConfig::fiji();
        let per_cu = (tree.num_vertices() / STEALING_SHARE) as u32;
        pass.attempted += 1;
        let begun = Instant::now();
        let queues = rec.call("simt.memory.setup", "stealing/Fiji", || {
            let mut engine = Engine::new(fiji.clone());
            let mem = engine.memory_mut();
            let layout = StealingLayout::setup(mem, "dqueue", fiji.num_cus, per_cu);
            layout.host_seed(mem, &[0]);
            arena_peak = arena_peak.max(mem.allocated_words() as u64);
            demand_zeroed += mem.demand_zeroed_words();
            layout.queues().len()
        });
        setup_seconds += begun.elapsed().as_secs_f64();
        if queues != fiji.num_cus {
            pass.fail(format!("stealing layout made {queues} queues"));
        }

        pass.set("graph.csr.bytes", bytes as f64);
        pass.set("simt.memory.arena_words_peak", arena_peak as f64);
        pass.set("simt.memory.demand_zeroed_words", demand_zeroed as f64);
        pass.set("simt.memory.warm_setup_s", setup_seconds);
        pass.fingerprint.word(edges);
        self.edges = edges;
        pass
    }

    fn host_layers(&self, self_s: &Metrics, _total_s: &Metrics, _pass: &Pass, out: &mut Metrics) {
        if let Some(&build_s) = self_s.get("graph.gen.build") {
            out.insert(
                "graph.gen.medges_per_s".into(),
                self.edges as f64 / 1e6 / build_s,
            );
        }
    }
}
