//! Host memory follows what a run writes.
//!
//! * Setting up the stealing design's per-CU rings — 56 rings of 1 Mi
//!   slots, 224 MiB of slot words — makes almost none of it resident, on
//!   a fresh arena and on a recycled one.
//! * A launch maps the graph's CSR arrays read-only instead of copying
//!   them into the arena: over a graph with far more edges than vertices
//!   it adds well under a byte of resident memory per edge (a copy of
//!   the edge array alone is four). Most of what it does add is the
//!   cache-line stamp table, 4 bytes per 16-word line the launch reads,
//!   so the bound is half a byte per edge (measured: 0.3–0.45).
//!
//! The tests share one lock and this file, which runs as its own process,
//! so no other test's allocations move their resident-set readings.

use gpu_queue::device::{Design, DeviceQueue};
use ptq::bfs::{run_bfs, PtConfig};
use ptq::graph::gen::erdos_renyi;
use ptq::queue::Variant;
use simt::{DeviceMemory, GpuConfig};
use std::sync::Mutex;

/// Slots per ring and rings (Fiji's compute units).
const CAPACITY: u32 = 1 << 20;
const NUM_CUS: usize = 56;
/// Most resident memory one set-up may add, in KiB.
const BOUND_KIB: u64 = 16 << 10;

/// Held by each test for its whole measurement.
static MEASURING: Mutex<()> = Mutex::new(());

/// This process's resident set size in KiB, where the platform reports it.
fn vm_rss_kib() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find_map(|l| l.strip_prefix("VmRSS:"))?;
    line.trim().strip_suffix("kB")?.trim().parse().ok()
}

#[test]
fn per_cu_queue_setup_makes_only_written_slots_resident() {
    let _measuring = MEASURING.lock().unwrap_or_else(|e| e.into_inner());
    if vm_rss_kib().is_none() {
        eprintln!("skipped: no VmRSS in /proc/self/status on this platform");
        return;
    }
    let slot_kib = u64::from(CAPACITY) * NUM_CUS as u64 * 4 / 1024;
    for recycled in [false, true] {
        let before = vm_rss_kib().unwrap();
        let mut mem = DeviceMemory::new();
        assert_eq!(mem.was_recycled(), recycled);
        let queue = DeviceQueue::setup(&mut mem, Design::PerCu, CAPACITY, NUM_CUS);
        let grown = vm_rss_kib().unwrap().saturating_sub(before);
        assert!(
            grown < BOUND_KIB,
            "set-up of {slot_kib} KiB of slots (recycled arena: {recycled}) \
             made {grown} KiB resident, bound {BOUND_KIB} KiB"
        );
        drop(queue);
        drop(mem); // the arena goes to this thread's pool for the next pass
    }
}

#[test]
fn a_launch_adds_under_a_byte_per_edge() {
    const VERTICES: usize = 2_048;
    const EDGES: usize = 1 << 21;
    let _measuring = MEASURING.lock().unwrap_or_else(|e| e.into_inner());
    if vm_rss_kib().is_none() {
        eprintln!("skipped: no VmRSS in /proc/self/status on this platform");
        return;
    }
    let graph = erdos_renyi(VERTICES, EDGES, 21);
    let before = vm_rss_kib().unwrap();
    let run = run_bfs(
        &GpuConfig::test_tiny(),
        &graph,
        0,
        &PtConfig::new(Variant::RfAn, 4),
    )
    .unwrap();
    // The run's arena sits in this thread's pool: what it wrote is still
    // resident.
    let grown = vm_rss_kib().unwrap().saturating_sub(before);
    assert_eq!(run.reached, VERTICES);
    let bound_kib = (EDGES / 2048) as u64;
    assert!(
        grown < bound_kib,
        "one launch over {EDGES} edges made {grown} KiB resident, bound {bound_kib} KiB"
    );
}
