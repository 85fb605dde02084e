//! The proposed retry-free / arbitrary-n queue (paper §4, Listings 1–3).
//!
//! Dequeue (Listing 1): the wavefront's hungry lanes count themselves with
//! workgroup-local atomics; the proxy thread performs **one** global
//! fetch-add on `Front` for all of them. Each lane receives a unique slot
//! index to *monitor* — the fetch-add cannot fail and is unconditional:
//! reserving slots past `Rear` is fine because unwritten slots hold the
//! `dna` sentinel.
//!
//! Data arrival (Listing 2): a lane polls its slot with a plain global
//! read. Bounds are checked first ("The slot may, in fact, be outside the
//! queue bounds and cannot be accessed"). On arrival the lane takes the
//! token and restores the sentinel — no atomics, because the slot is
//! privately owned. (Simulated in closed form: [`super::poll`] charges
//! those reads without performing them.)
//!
//! Enqueue (Listing 3): the proxy reserves one contiguous region with a
//! single fetch-add on `Rear`; lanes copy their tokens in parallel. A slot
//! that is not a sentinel at write time means `Rear` lapped the allocation
//! — the queue-full exception, which aborts the kernel.

use super::{
    park_sentinel, poll, reserve_batch, Lanes, PollMemo, QueueLayout, Slots, WaveQueue, REAR,
};
use crate::{Variant, DNA};
use simt::{AbortReason, OpSpec, WaveCtx};

/// Per-wavefront handle to an RF/AN device queue. Stateless beyond the
/// layout and the poll's memo: the design needs no staged reads and no
/// retry bookkeeping.
#[derive(Clone, Debug)]
pub struct RfAnWaveQueue {
    pub(super) layout: QueueLayout,
    memo: PollMemo,
}

impl RfAnWaveQueue {
    /// Creates the per-wavefront handle.
    pub fn new(layout: QueueLayout) -> Self {
        RfAnWaveQueue {
            layout,
            memo: PollMemo::NONE,
        }
    }

    /// Listing 1: slot reservation for the hungry lanes, opening the
    /// acquire's audit scope. The headline claim, auditable: one global
    /// AFA iff any lane is hungry, never a CAS, never a retry of any kind.
    pub(super) fn reserve(&self, ctx: &mut WaveCtx<'_>, lanes: &mut Lanes) {
        let afa = u64::from(lanes.hungry() != 0);
        ctx.audit_begin(OpSpec::new("RF/AN", "acquire").afa_exact(afa));
        reserve_batch(ctx, lanes, self.layout.state);
    }
}

impl WaveQueue for RfAnWaveQueue {
    fn variant(&self) -> Variant {
        Variant::RfAn
    }

    fn acquire(&mut self, ctx: &mut WaveCtx<'_>, lanes: &mut Lanes) {
        self.reserve(ctx, lanes);
        // Listing 2: data-arrival poll on the monitored slots.
        poll(
            ctx,
            lanes,
            &mut self.memo,
            Slots::Flat(&self.layout),
            |_| {},
        );
        ctx.audit_end();
    }

    fn enqueue(&mut self, ctx: &mut WaveCtx<'_>, tokens: &[u32]) -> usize {
        if tokens.is_empty() {
            return 0;
        }
        // Lanes publish their per-lane counts with local atomics
        // (Listing 3 lines 8–11), then the proxy reserves the whole
        // region with one AFA on Rear (lines 14–16). Exactly one global
        // atomic regardless of batch size — the arbitrary-n claim. (Abort
        // paths below leave the scope open unvalidated; the abort already
        // fails the run.)
        ctx.audit_begin(OpSpec::new("RF/AN", "enqueue").afa_exact(1));
        ctx.charge_alu(1);
        ctx.lds_atomics(tokens.len() as u64);
        let base = ctx.atomic_add(self.layout.state, REAR, tokens.len() as u32);
        ctx.count_scheduler_atomics(1);
        // The reserved region is contiguous: the sentinel check and the
        // token copy each coalesce into one transaction per line.
        let in_bounds = tokens
            .len()
            .min((self.layout.capacity as usize).saturating_sub(base as usize));
        ctx.charge_coalesced_access(self.layout.slots, base as usize, in_bounds); // check
        ctx.charge_coalesced_access(self.layout.slots, base as usize, in_bounds); // copy
        for (i, &tok) in tokens.iter().enumerate() {
            debug_assert!(tok < DNA, "token collides with dna sentinel");
            let slot = base as usize + i;
            if slot >= self.layout.capacity as usize {
                ctx.abort(AbortReason::QueueFull {
                    requested: slot as u64,
                    capacity: self.layout.capacity,
                });
                return i;
            }
            // Line 25: the slot must still hold the sentinel.
            let current = ctx.peek(self.layout.slots, slot);
            if current != DNA {
                // An occupied slot in a non-wrapping queue means the
                // reservation overran live data: same capacity exhaustion.
                ctx.abort(AbortReason::QueueFull {
                    requested: slot as u64,
                    capacity: self.layout.capacity,
                });
                return i;
            }
            ctx.poke(self.layout.slots, slot, tok);
        }
        ctx.audit_end();
        tokens.len()
    }

    fn register_idle_watches(&self, ctx: &mut WaveCtx<'_>, lanes: &Lanes) -> bool {
        park_sentinel(ctx, lanes, Slots::Flat(&self.layout))
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil::{expected_tokens, pump};
    use crate::Variant;

    #[test]
    fn pump_delivers_every_token_exactly_once() {
        let seeds: Vec<u32> = (0..13).collect();
        let (consumed, _) = pump(Variant::RfAn, &seeds, 13, 3, 2, 256);
        assert_eq!(consumed, expected_tokens(&seeds, 13, 3));
    }

    #[test]
    fn no_retries_ever() {
        let seeds: Vec<u32> = (0..20).collect();
        let (_, metrics) = pump(Variant::RfAn, &seeds, 20, 2, 4, 256);
        assert_eq!(metrics.cas_attempts, 0, "RF/AN must never CAS");
        assert_eq!(metrics.cas_failures, 0);
        assert_eq!(metrics.queue_empty_retries, 0);
    }

    #[test]
    fn single_wave_single_token() {
        let (consumed, _) = pump(Variant::RfAn, &[7], 0, 0, 1, 16);
        assert_eq!(consumed, vec![7]);
    }

    #[test]
    fn survives_many_waves_on_few_tokens() {
        // 4 waves x 4 lanes hungry, only 2 tokens: the design hands out 16
        // monitored slots but only 2 ever receive data; termination still
        // works and nothing is duplicated.
        let (consumed, metrics) = pump(Variant::RfAn, &[1, 2], 0, 0, 4, 64);
        assert_eq!(consumed, vec![1, 2]);
        assert_eq!(metrics.queue_empty_retries, 0);
    }

    #[test]
    fn front_overrun_is_harmless() {
        // Hungry lanes reserve far beyond capacity near termination; the
        // bounds check keeps them from faulting.
        let (consumed, _) = pump(Variant::RfAn, &[3], 0, 0, 4, 4);
        assert_eq!(consumed, vec![3]);
    }

    #[test]
    fn queue_full_aborts() {
        use super::super::testutil::PumpKernel;
        use super::super::{make_wave_queue, Lanes, QueueLayout};
        use simt::{Engine, GpuConfig, Launch};
        use std::sync::{Arc, Mutex};

        let mut engine = Engine::new(GpuConfig::test_tiny());
        // capacity 4, but seeds fan out 3 children each => 1 + 3 > 4 - 1...
        // use 2 seeds x 3 children = 8 tokens > 4 capacity.
        let layout = QueueLayout::setup(engine.memory_mut(), "q", 4);
        let pending = engine.memory_mut().alloc("pending", 1);
        layout.host_seed(engine.memory_mut(), &[0, 1]);
        engine.memory_mut().write_u32(pending, 0, 2);
        let consumed = Arc::new(Mutex::new(Vec::new()));
        let err = engine
            .run(Launch::workgroups(1), |_| PumpKernel {
                queue: make_wave_queue(Variant::RfAn, layout),
                lanes: Lanes::new(4),
                pending,
                consumed: Arc::clone(&consumed),
                fanout_until: 10,
                children: 3,
                outbox: Vec::new(),
                completed: 0,
            })
            .unwrap_err();
        assert!(err.is_queue_full(), "{err:?}");
    }

    #[test]
    fn atomic_budget_is_tiny() {
        // One AFA per wave per dequeue round + one per enqueue round; far
        // fewer global atomics than tokens when batching works.
        let seeds: Vec<u32> = (0..64).collect();
        let (consumed, metrics) = pump(Variant::RfAn, &seeds, 0, 0, 2, 128);
        assert_eq!(consumed.len(), 64);
        // 64 tokens moved; without arbitrary-n this would need >= 64
        // dequeue atomics alone. (Pending-counter atomics included.)
        assert!(
            metrics.global_atomics < 64,
            "expected batched atomics, got {}",
            metrics.global_atomics
        );
    }
}
