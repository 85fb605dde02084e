//! Host memory follows what a run writes: setting up the stealing design's
//! per-CU rings — 56 rings of 1 Mi slots, 224 MiB of slot words — makes
//! almost none of it resident, on a fresh arena and on a recycled one.
//!
//! One test in its own file, so it runs in its own process and no other
//! test's allocations move its resident-set readings.

use gpu_queue::device::{Design, DeviceQueue};
use simt::DeviceMemory;

/// Slots per ring and rings (Fiji's compute units).
const CAPACITY: u32 = 1 << 20;
const NUM_CUS: usize = 56;
/// Most resident memory one set-up may add, in KiB.
const BOUND_KIB: u64 = 16 << 10;

/// This process's resident set size in KiB, where the platform reports it.
fn vm_rss_kib() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find_map(|l| l.strip_prefix("VmRSS:"))?;
    line.trim().strip_suffix("kB")?.trim().parse().ok()
}

#[test]
fn per_cu_queue_setup_makes_only_written_slots_resident() {
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
