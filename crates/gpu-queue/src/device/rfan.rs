//! RF/AN's publish (paper Listing 3): the whole batch for one fetch-add.
//! The design itself — the proposed retry-free / arbitrary-n queue, paper
//! §4 — is [`super::TicketWaveQueue`] over a flat layout at wave width.

use super::{QueueLayout, REAR};
use crate::DNA;
use simt::{AbortReason, OpSpec, WaveCtx};

/// Publishes the non-empty `tokens` into `q` under the audit label
/// `design` (RF/AN itself, or the stealing scheduler's home ring). Lanes
/// publish their per-lane counts with local atomics (Listing 3 lines
/// 8–11), then the proxy reserves the whole region with one AFA on `Rear`
/// (lines 14–16): exactly one global atomic regardless of batch size — the
/// arbitrary-n claim. Accepts everything or aborts on queue-full. (Abort
/// paths leave the scope open unvalidated; the abort already fails the
/// run.)
pub(super) fn publish(
    ctx: &mut WaveCtx<'_>,
    design: &'static str,
    q: &QueueLayout,
    tokens: &[u32],
) -> usize {
    ctx.audit_begin(OpSpec::new(design, "enqueue").afa_exact(1));
    ctx.charge_alu(1);
    ctx.lds_atomics(tokens.len() as u64);
    let base = ctx.atomic_add(q.state, REAR, tokens.len() as u32);
    ctx.count_scheduler_atomics(1);
    // The reserved region is contiguous: the sentinel check and the
    // token copy each coalesce into one transaction per line.
    let in_bounds = tokens
        .len()
        .min((q.capacity as usize).saturating_sub(base as usize));
    ctx.charge_coalesced_access(q.slots, base as usize, in_bounds); // check
    ctx.charge_coalesced_access(q.slots, base as usize, in_bounds); // copy
    for (i, &tok) in tokens.iter().enumerate() {
        debug_assert!(tok < DNA, "token collides with dna sentinel");
        let slot = base as usize + i;
        // Line 25: the slot must still hold the sentinel. An occupied slot
        // in a non-wrapping queue means the reservation overran live data:
        // the same capacity exhaustion as running off the end.
        if slot >= q.capacity as usize || ctx.peek(q.slots, slot) != DNA {
            ctx.abort(AbortReason::QueueFull {
                requested: slot as u64,
                capacity: q.capacity,
            });
            return i;
        }
        ctx.poke(q.slots, slot, tok);
    }
    ctx.audit_end();
    tokens.len()
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
        use super::super::{Design, DeviceQueue};
        use simt::{Engine, GpuConfig, Launch};
        use std::sync::{Arc, Mutex};

        let mut engine = Engine::new(GpuConfig::test_tiny());
        // capacity 4, but seeds fan out 3 children each => 1 + 3 > 4 - 1...
        // use 2 seeds x 3 children = 8 tokens > 4 capacity.
        let design = Design::Shared(Variant::RfAn);
        let queue = DeviceQueue::setup(engine.memory_mut(), design, 4, 1);
        let pending = engine.memory_mut().alloc("pending", 1);
        queue.host_seed(engine.memory_mut(), &[0, 1]);
        engine.memory_mut().write_u32(pending, 0, 2);
        let consumed = Arc::new(Mutex::new(Vec::new()));
        let err = engine
            .run(Launch::workgroups(1), |_| {
                PumpKernel::new(queue.wave_queue(0), 4, pending, &consumed, 10, 3)
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
