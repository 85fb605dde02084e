//! Single-source shortest paths: the scheduler beyond BFS.
//!
//! A label-correcting SSSP re-enqueues vertices whenever a shorter path is
//! found — re-activation is the *norm*, making it a harsher task-scheduler
//! workload than BFS. The run validates against sequential Dijkstra.
//!
//! ```text
//! cargo run --release --example sssp [scale]
//! ```

use ptq::bfs::{run_workload, PtConfig, Sssp};
use ptq::graph::{random_weights, validate_distances, Dataset};
use ptq::queue::Variant;
use simt::GpuConfig;

fn main() {
    let scale: f64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0.02);
    let dataset = Dataset::RoadNY;
    let graph = dataset.build(scale);
    let weights = random_weights(&graph, 100, 0xABCD);
    println!(
        "SSSP over {} (scaled {:.0}%): {} vertices, {} weighted edges\n",
        dataset.spec().name,
        scale * 100.0,
        graph.num_vertices(),
        graph.num_edges()
    );

    let gpu = GpuConfig::fiji();
    // The workload is the only SSSP-specific piece: it carries the
    // weights and asks for a larger queue (re-enqueues are the norm).
    let sssp = Sssp::new(dataset.source(), weights.clone());
    for variant in Variant::ALL {
        let config = PtConfig::for_workload(&sssp, variant, 224);
        let run = run_workload(&gpu, &graph, &sssp, &config).expect("simulation succeeds");
        validate_distances(&graph, &weights, dataset.source(), &run.values)
            .expect("distances match Dijkstra exactly");
        let reenqueues = run
            .metrics
            .global_atomics
            .saturating_sub(graph.num_edges() as u64);
        println!(
            "{:>6}: {:.6}s | {} atomics (~{} scheduling ops) | {} retries",
            variant.label(),
            run.seconds,
            run.metrics.global_atomics,
            reenqueues,
            run.metrics.total_retries()
        );
    }
    println!("\nEvery variant converges to exact Dijkstra distances; the RF/AN");
    println!("design schedules the (many) re-activations without a single retry.");
}
