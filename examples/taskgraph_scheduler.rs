//! Beyond BFS: scheduling an arbitrary task DAG with the RF/AN queue.
//!
//! The paper closes with "Although we use the proposed queue in a
//! persistent thread task scheduler, it can be used for other purposes on
//! GPUs with little change". This example writes a *custom* persistent
//! kernel against the public `simt` + `gpu-queue` API: a dependency-
//! counting DAG scheduler (the classic Tzeng-style irregular workload).
//! Each task holds a dependency counter; completing a task decrements its
//! dependents' counters; counters reaching zero enqueue the dependent as
//! ready.
//!
//! ```text
//! cargo run --release --example taskgraph_scheduler [tasks]
//! ```

use ptq::graph::rng::SplitMix64;
use ptq::queue::device::{Design, DeviceQueue, Lanes, WaveQueue};
use ptq::queue::Variant;
use simt::{Buffer, Engine, GpuConfig, Launch, WaveCtx, WaveKernel, WaveStatus};

/// A random layered DAG in CSR form: `succ_offsets`/`succ` list each
/// task's dependents; `dep_count[t]` is its in-degree.
struct TaskDag {
    succ_offsets: Vec<u32>,
    succ: Vec<u32>,
    dep_count: Vec<u32>,
}

fn random_dag(tasks: usize, seed: u64) -> TaskDag {
    let mut rng = SplitMix64::seed_from_u64(seed);
    let mut edges: Vec<(u32, u32)> = Vec::new();
    // Each task depends on up to 3 earlier tasks (guaranteeing acyclicity).
    for t in 1..tasks as u32 {
        let deps = rng.range_u32_inclusive(0, 3.min(t));
        for _ in 0..deps {
            let d = rng.range_u32(0, t);
            edges.push((d, t));
        }
    }
    let mut dep_count = vec![0u32; tasks];
    for &(_, t) in &edges {
        dep_count[t as usize] += 1;
    }
    let mut offsets = vec![0u32; tasks + 1];
    for &(d, _) in &edges {
        offsets[d as usize + 1] += 1;
    }
    for i in 0..tasks {
        offsets[i + 1] += offsets[i];
    }
    let mut cursor = offsets.clone();
    let mut succ = vec![0u32; edges.len()];
    for &(d, t) in &edges {
        succ[cursor[d as usize] as usize] = t;
        cursor[d as usize] += 1;
    }
    TaskDag {
        succ_offsets: offsets,
        succ,
        dep_count,
    }
}

/// The custom persistent kernel: one wavefront of a DAG scheduler.
struct DagKernel {
    queue: Box<dyn WaveQueue>,
    lanes: Lanes,
    offsets: Buffer,
    succ: Buffer,
    deps: Buffer,
    done_flags: Buffer,
    pending: Buffer,
    outbox: Vec<u32>,
    completed: u32,
}

impl WaveKernel for DagKernel {
    fn work_cycle(&mut self, ctx: &mut WaveCtx<'_>) -> WaveStatus {
        self.lanes.request(self.lanes.idle());
        self.queue.acquire(ctx, &mut self.lanes);
        while let Some((_lane, task)) = self.lanes.take_ready() {
            // "Execute" the task: mark it done, then clear dependents.
            ctx.global_write_lane(self.done_flags, task as usize, 1);
            let start = ctx.global_read_lane(self.offsets, task as usize);
            let end = ctx.global_read_lane(self.offsets, task as usize + 1);
            for e in start..end {
                let dependent = ctx.global_read_lane(self.succ, e as usize);
                let old = ctx.atomic_sub(self.deps, dependent as usize, 1);
                if old == 1 {
                    // Final dependency cleared: dependent is ready.
                    self.outbox.push(dependent);
                }
            }
            self.completed += 1;
        }
        if !self.outbox.is_empty() {
            let accepted = self.queue.enqueue(ctx, &self.outbox);
            if accepted > 0 {
                ctx.atomic_add(self.pending, 0, accepted as u32);
                self.outbox.drain(..accepted);
            }
        }
        if self.completed > 0 && self.outbox.is_empty() {
            ctx.atomic_sub(self.pending, 0, self.completed);
            self.completed = 0;
        }
        if ctx.global_read(self.pending, 0) == 0 && self.outbox.is_empty() {
            WaveStatus::Done
        } else {
            WaveStatus::Active
        }
    }
}

fn main() {
    let tasks: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(200_000);
    let dag = random_dag(tasks, 0xDA6);
    let roots: Vec<u32> = (0..tasks as u32)
        .filter(|&t| dag.dep_count[t as usize] == 0)
        .collect();
    println!(
        "task DAG: {} tasks, {} dependency edges, {} roots",
        tasks,
        dag.succ.len(),
        roots.len()
    );

    let gpu = GpuConfig::spectre();
    let mut engine = Engine::new(gpu);
    let mem = engine.memory_mut();
    mem.alloc_init("offsets", &dag.succ_offsets);
    mem.alloc_init("succ", &dag.succ);
    let deps = mem.alloc_init("deps", &dag.dep_count);
    let done_flags = mem.alloc("done", tasks);
    let pending = mem.alloc("pending", 1);
    mem.write_u32(pending, 0, roots.len() as u32);
    let queue = DeviceQueue::setup(mem, Design::Shared(Variant::RfAn), (tasks + 64) as u32, 1);
    queue.host_seed(mem, &roots);

    let offsets = mem.buffer("offsets");
    let succ = mem.buffer("succ");
    let report = engine
        .run(Launch::workgroups(32), |info| DagKernel {
            queue: queue.wave_queue(info.cu),
            lanes: Lanes::new(info.wave_size),
            offsets,
            succ,
            deps,
            done_flags,
            pending,
            outbox: Vec::new(),
            completed: 0,
        })
        .expect("scheduler completes");

    // Verify: every task ran, every dependency counter drained.
    let done = engine.memory().read_slice(done_flags);
    let executed = done.iter().filter(|&&d| d == 1).count();
    let leftover: u32 = engine.memory().read_slice(deps).iter().sum();
    assert_eq!(executed, tasks, "every task must execute exactly once");
    assert_eq!(leftover, 0, "all dependencies must clear");
    println!(
        "scheduled {} tasks in {:.5} simulated seconds ({} work cycles, {} atomics, 0 retries: {})",
        executed,
        report.seconds,
        report.metrics.work_cycles,
        report.metrics.global_atomics,
        report.metrics.total_retries() == 0
    );
}
