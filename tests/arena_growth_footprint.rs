//! Growing the device arena past a written prefix does not hold the
//! prefix twice: the outgrown block is handed back a window at a time
//! behind the copy, so the peak resident set rises by about the prefix
//! itself, where copying into a fresh block before freeing the old one
//! rises by twice the prefix.
//!
//! One test in its own file, so it runs in its own process on a fresh
//! (not recycled) arena and no other test's allocations move its peak
//! resident-set readings.

use simt::DeviceMemory;

/// Words painted before the growth: 24 MiB, in an arena of 8 Mi words.
const PAINTED_WORDS: usize = 6 << 20;
/// Words of the allocation that outgrows the 8 Mi-word block.
const GROWING_WORDS: usize = 3 << 20;
/// Peak resident memory the growth may add beyond the painted prefix,
/// in KiB: one copy window plus room for the allocator and test harness.
const SLACK_KIB: u64 = 4 << 10;

/// This process's peak resident set size in KiB, where the platform
/// reports it.
fn vm_hwm_kib() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    line.trim().strip_suffix("kB")?.trim().parse().ok()
}

#[test]
fn growth_past_a_painted_prefix_holds_it_once() {
    // The hand-back returns pages to the kernel where the allocator
    // shrinks a large block in place, as glibc's `mremap` does; other
    // allocators may keep the tail, which is correct but not measurable.
    if !cfg!(all(target_os = "linux", target_env = "gnu")) {
        eprintln!("skipped: the in-place shrink is measured on Linux with glibc only");
        return;
    }
    let Some(before) = vm_hwm_kib() else {
        eprintln!("skipped: no VmHWM in /proc/self/status on this platform");
        return;
    };
    let mut mem = DeviceMemory::new();
    assert!(!mem.was_recycled(), "the arena must start fresh");
    let painted = mem.alloc_filled("painted", PAINTED_WORDS, 0x5EED);
    let grown = mem.alloc("grown", GROWING_WORDS);
    let rise = vm_hwm_kib().unwrap().saturating_sub(before);
    let painted_kib = (PAINTED_WORDS * 4 / 1024) as u64;
    assert_eq!(mem.allocated_words(), PAINTED_WORDS + GROWING_WORDS);
    assert!(mem.read_slice(painted).iter().all(|&w| w == 0x5EED));
    assert_eq!(mem.read_u32(grown, GROWING_WORDS - 1), 0);
    assert!(
        rise < painted_kib + SLACK_KIB,
        "painting {painted_kib} KiB and growing the arena past it raised peak RSS \
         by {rise} KiB, bound {} KiB",
        painted_kib + SLACK_KIB
    );
}
