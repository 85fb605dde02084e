//! A SIGPROF sampling profiler, loaded into a process with `LD_PRELOAD`.
//! Built and driven by `ci/profile.sh`; std only, x86_64 Linux only.
//!
//! On load it arms `ITIMER_PROF` and, on every tick of the process's CPU
//! time, records the interrupted instruction pointer (RIP, read from the
//! handler's `ucontext_t`) into a fixed array. At exit it writes
//! `$SAMPLER_OUT.<pid>`: one hexadecimal PC per line, a `--- maps` line,
//! then the process's `/proc/self/maps`, which the script needs to turn
//! PCs back into file offsets. A process started without `SAMPLER_OUT`
//! (a compiler, a shell) is left untouched.
//!
//!   rustc -O --crate-type cdylib ci/sampler.rs -o sampler.so

use std::io::Write;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Most samples kept: over an hour of CPU time at the kernel's 250 Hz.
const MAX_SAMPLES: usize = 1 << 20;
/// Requested tick (1 ms); the kernel rounds it up to its own clock tick.
const INTERVAL_US: i64 = 1000;

static SAMPLES: [AtomicU64; MAX_SAMPLES] = [const { AtomicU64::new(0) }; MAX_SAMPLES];
static TAKEN: AtomicUsize = AtomicUsize::new(0);

const SIGPROF: i32 = 27;
const ITIMER_PROF: i32 = 2;
const SA_SIGINFO: u64 = 4;
const SA_RESTART: u64 = 0x1000_0000;
/// Byte offset of `uc_mcontext.gregs[REG_RIP]` in x86_64 Linux's
/// `ucontext_t`: `uc_flags` (8) + `uc_link` (8) + `uc_stack` (24), then
/// general register 16.
const RIP_OFFSET: usize = 40 + 16 * 8;

/// The kernel's `struct sigaction` as glibc's `sigaction` takes it.
#[repr(C)]
struct SigAction {
    handler: extern "C" fn(i32, *mut u8, *mut u8),
    mask: [u64; 16],
    flags: i32,
    restorer: usize,
}

#[repr(C)]
struct TimeVal {
    sec: i64,
    usec: i64,
}

#[repr(C)]
struct ITimerVal {
    interval: TimeVal,
    value: TimeVal,
}

extern "C" {
    fn sigaction(signum: i32, act: *const SigAction, old: *mut SigAction) -> i32;
    fn setitimer(which: i32, new: *const ITimerVal, old: *mut ITimerVal) -> i32;
    fn atexit(f: extern "C" fn()) -> i32;
    fn getpid() -> i32;
}

extern "C" fn on_tick(_sig: i32, _info: *mut u8, context: *mut u8) {
    // SAFETY: the kernel passes a valid `ucontext_t` to an SA_SIGINFO
    // handler; RIP sits at a fixed offset in it on x86_64.
    let rip = unsafe { context.add(RIP_OFFSET).cast::<u64>().read_unaligned() };
    let slot = TAKEN.fetch_add(1, Ordering::Relaxed);
    if slot < MAX_SAMPLES {
        SAMPLES[slot].store(rip, Ordering::Relaxed);
    }
}

extern "C" fn on_exit() {
    let off = ITimerVal {
        interval: TimeVal { sec: 0, usec: 0 },
        value: TimeVal { sec: 0, usec: 0 },
    };
    // SAFETY: plain libc call with a valid argument.
    unsafe { setitimer(ITIMER_PROF, &off, std::ptr::null_mut()) };
    let Some(base) = std::env::var_os("SAMPLER_OUT") else {
        return;
    };
    // SAFETY: plain libc call.
    let pid = unsafe { getpid() };
    let path = format!("{}.{pid}", base.to_string_lossy());
    let taken = TAKEN.load(Ordering::Relaxed).min(MAX_SAMPLES);
    let mut out = String::with_capacity(taken * 14);
    for sample in &SAMPLES[..taken] {
        out.push_str(&format!("{:x}\n", sample.load(Ordering::Relaxed)));
    }
    out.push_str("--- maps\n");
    out.push_str(&std::fs::read_to_string("/proc/self/maps").unwrap_or_default());
    if let Err(e) = std::fs::File::create(&path).and_then(|mut f| f.write_all(out.as_bytes())) {
        eprintln!("sampler: writing {path}: {e}");
    }
}

extern "C" fn start() {
    if std::env::var_os("SAMPLER_OUT").is_none() {
        return;
    }
    let action = SigAction {
        handler: on_tick,
        mask: [0; 16],
        flags: (SA_SIGINFO | SA_RESTART) as i32,
        restorer: 0,
    };
    let tick = ITimerVal {
        interval: TimeVal {
            sec: 0,
            usec: INTERVAL_US,
        },
        value: TimeVal {
            sec: 0,
            usec: INTERVAL_US,
        },
    };
    // SAFETY: plain libc calls with valid arguments; the handler only
    // touches atomics.
    unsafe {
        if sigaction(SIGPROF, &action, std::ptr::null_mut()) != 0
            || atexit(on_exit) != 0
            || setitimer(ITIMER_PROF, &tick, std::ptr::null_mut()) != 0
        {
            eprintln!("sampler: could not arm the profiling timer");
        }
    }
}

/// Runs [`start`] when the dynamic loader maps this library.
#[used]
#[link_section = ".init_array"]
static START: extern "C" fn() = start;
