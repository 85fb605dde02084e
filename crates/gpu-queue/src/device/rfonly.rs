//! RF-only ablation variant: retry-free *without* arbitrary-n.
//!
//! The paper dissects its design with BASE → AN → RF/AN, which isolates
//! the retry-free property (AN vs RF/AN) and the arbitrary-n property
//! (BASE vs AN) — but always adds batching first. This extra variant
//! completes the 2×2 matrix: fetch-add reservations with the *dna*
//! sentinel (never fails, never raises queue-empty) but **one global
//! atomic per lane / per token** instead of one per wavefront.
//!
//! Comparing RF-only against RF/AN isolates the proxy-thread aggregation
//! on a retry-free substrate: the difference is pure atomic-traffic
//! volume and serialization pressure, with zero retry effects in either.

use super::{
    bits, park_sentinel, poll, Lanes, PollMemo, QueueLayout, Slots, WaveQueue, FRONT, REAR,
};
use crate::{Variant, DNA};
use simt::{AbortReason, OpSpec, WaveCtx};

/// Per-wavefront handle to an RF-only device queue.
#[derive(Clone, Debug)]
pub struct RfOnlyWaveQueue {
    pub(super) layout: QueueLayout,
    memo: PollMemo,
}

impl RfOnlyWaveQueue {
    /// Creates the per-wavefront handle.
    pub fn new(layout: QueueLayout) -> Self {
        RfOnlyWaveQueue {
            layout,
            memo: PollMemo::NONE,
        }
    }

    /// Per-lane reservation, opening the acquire's audit scope: every
    /// hungry lane issues its own global AFA in lock-step — they all
    /// succeed (AFA never fails), but each occupies an issue slot and a
    /// place in the serialization queue. Retry-free without arbitrary-n:
    /// exactly one AFA *per hungry lane*, never a CAS, never a retry.
    pub(super) fn reserve(&self, ctx: &mut WaveCtx<'_>, lanes: &mut Lanes) {
        let hungry = lanes.hungry();
        ctx.audit_begin(OpSpec::new("RF-only", "acquire").afa_exact(hungry.count_ones().into()));
        for lane in bits(hungry) {
            let slot = ctx.atomic_add(self.layout.state, FRONT, 1);
            ctx.count_scheduler_atomics(1);
            lanes.monitor(lane, slot);
        }
    }
}

impl WaveQueue for RfOnlyWaveQueue {
    fn variant(&self) -> Variant {
        Variant::RfOnly
    }

    fn acquire(&mut self, ctx: &mut WaveCtx<'_>, lanes: &mut Lanes) {
        self.reserve(ctx, lanes);
        // Data-arrival poll, identical to RF/AN (the sentinel protocol is
        // what makes per-lane reservation safe at all).
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
        // One AFA per token — no proxy aggregation.
        ctx.audit_begin(OpSpec::new("RF-only", "enqueue").afa_exact(tokens.len() as u64));
        for &tok in tokens {
            debug_assert!(tok < DNA);
            let slot = ctx.atomic_add(self.layout.state, REAR, 1) as usize;
            ctx.count_scheduler_atomics(1);
            if slot >= self.layout.capacity as usize {
                ctx.abort(AbortReason::QueueFull {
                    requested: slot as u64,
                    capacity: self.layout.capacity,
                });
                return 0;
            }
            let current = ctx.global_read_lane(self.layout.slots, slot);
            if current != DNA {
                ctx.abort(AbortReason::QueueFull {
                    requested: slot as u64,
                    capacity: self.layout.capacity,
                });
                return 0;
            }
            ctx.global_write_lane(self.layout.slots, slot, tok);
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
        let (consumed, _) = pump(Variant::RfOnly, &seeds, 13, 3, 2, 256);
        assert_eq!(consumed, expected_tokens(&seeds, 13, 3));
    }

    #[test]
    fn retry_free_like_rfan() {
        let seeds: Vec<u32> = (0..20).collect();
        let (_, metrics) = pump(Variant::RfOnly, &seeds, 20, 2, 4, 256);
        assert_eq!(metrics.cas_attempts, 0);
        assert_eq!(metrics.queue_empty_retries, 0);
    }

    #[test]
    fn many_more_atomics_than_rfan() {
        let seeds: Vec<u32> = (0..32).collect();
        let (_, rfonly) = pump(Variant::RfOnly, &seeds, 32, 2, 4, 512);
        let (_, rfan) = pump(Variant::RfAn, &seeds, 32, 2, 4, 512);
        assert!(
            rfonly.global_atomics > 2 * rfan.global_atomics,
            "RF-only {} vs RF/AN {}",
            rfonly.global_atomics,
            rfan.global_atomics
        );
    }

    #[test]
    fn multi_wave_contention_is_correct() {
        let seeds: Vec<u32> = (0..40).collect();
        let (consumed, _) = pump(Variant::RfOnly, &seeds, 40, 2, 4, 512);
        assert_eq!(consumed, expected_tokens(&seeds, 40, 2));
    }
}
