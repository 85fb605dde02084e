//! RF-only ablation variant: retry-free *without* arbitrary-n —
//! [`super::TicketWaveQueue`] over a flat layout at lane width.
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

use super::{dec, enc, QueueLayout, REAR};
use crate::DNA;
use simt::{AbortReason, OpSpec, WaveCtx};

/// Publishes the non-empty `tokens` into `q` with one AFA on `Rear` per
/// token — no proxy aggregation — each lane checking and writing its own
/// slot. Accepts everything or aborts on queue-full.
pub(super) fn publish(ctx: &mut WaveCtx<'_>, q: &QueueLayout, tokens: &[u32]) -> usize {
    ctx.audit_begin(OpSpec::new("RF-only", "enqueue").afa_exact(tokens.len() as u64));
    for &tok in tokens {
        debug_assert!(tok < DNA);
        let slot = ctx.atomic_add(q.state, REAR, 1) as usize;
        ctx.count_scheduler_atomics(1);
        if slot >= q.capacity as usize || dec(ctx.global_read_lane(q.slots, slot)) != DNA {
            ctx.abort(AbortReason::QueueFull {
                requested: slot as u64,
                capacity: q.capacity,
            });
            return 0;
        }
        ctx.global_write_lane(q.slots, slot, enc(tok));
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
