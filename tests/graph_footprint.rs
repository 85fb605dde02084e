//! Building a graph whose edges arrive grouped by ascending source costs
//! about the CSR it returns: the builder keeps each edge's target and one
//! row start per source, and hands both back without an edge list or a
//! sort, which would cost 12 bytes per edge at their peak.
//!
//! One test in its own file, so it runs in its own process and no other
//! test's allocations move its peak resident-set readings.

use ptq::graph::CsrBuilder;

/// Vertices and out-edges per vertex: 8 Mi edges.
const VERTICES: u32 = 1 << 20;
const DEGREE: u32 = 8;
/// Most peak resident memory the build may add, in bytes per edge.
const BOUND_BYTES_PER_EDGE: u64 = 6;

/// This process's peak resident set size in KiB, where the platform
/// reports it.
fn vm_hwm_kib() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    line.trim().strip_suffix("kB")?.trim().parse().ok()
}

#[test]
fn source_ordered_build_peaks_near_four_bytes_per_edge() {
    let Some(before) = vm_hwm_kib() else {
        eprintln!("skipped: no VmHWM in /proc/self/status on this platform");
        return;
    };
    let mut builder = CsrBuilder::new(VERTICES as usize);
    for v in 0..VERTICES {
        for k in 1..=DEGREE {
            builder.add_edge(v, v.wrapping_mul(2_654_435_761).wrapping_add(k) % VERTICES);
        }
    }
    let graph = builder.build();
    let grown = vm_hwm_kib().unwrap().saturating_sub(before) * 1024;
    let edges = graph.num_edges() as u64;
    assert_eq!(edges, u64::from(VERTICES * DEGREE));
    assert_eq!(graph.degree(VERTICES - 1), DEGREE);
    assert!(
        grown < BOUND_BYTES_PER_EDGE * edges,
        "building {edges} source-ordered edges raised peak RSS by {grown} bytes \
         ({:.2} per edge), bound {BOUND_BYTES_PER_EDGE} per edge",
        grown as f64 / edges as f64
    );
}
