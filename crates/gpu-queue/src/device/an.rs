//! AN's contention model: arbitrary-n batching *without* the retry-free
//! property (paper §5.3) — [`super::CasWaveQueue`] at wave width.
//!
//! Like RF/AN, a proxy thread reserves one contiguous region per wavefront
//! operation — but with compare-and-swap instead of fetch-add, and with
//! the traditional exception discipline:
//!
//! * Under contention the proxy's read-to-CAS window is repeatedly
//!   invalidated by other wavefronts' successful reservations; each
//!   intervening success costs one failed attempt (a dependent re-read +
//!   re-CAS chain whose issue slots can never be hidden). The simulator
//!   charges this as a *retry storm*: the number of successful mutations
//!   of the counter since this wavefront's previous visit, capped by what
//!   fits in a work cycle. Uncontended, the reservation is a single CAS
//!   with no overhead beyond the read.
//! * Dequeue cannot over-reserve past `Rear` (there is no sentinel
//!   protocol), so when the queue looks empty the operation raises the
//!   queue-empty exception and the hungry lanes retry next work cycle.

use super::{bits, dec, enc, CasWaveQueue, Lanes, FRONT, REAR};
use crate::DNA;
use simt::{AbortReason, OpSpec, WaveCtx};

impl CasWaveQueue {
    /// One dequeue visit at wave width, for at least one hungry lane.
    pub(super) fn acquire_an(&mut self, ctx: &mut WaveCtx<'_>, lanes: &mut Lanes) {
        let hungry = lanes.hungry().count_ones();
        // Proxy aggregation of lane demand (the arbitrary-n property,
        // same local-atomic pattern as RF/AN). Arbitrary-n without
        // retry-free: never an AFA; zero or one real CAS (the single proxy
        // reservation, declared on the path that reaches it); retry storms
        // and queue-empty retries are this design's legitimate overhead.
        ctx.audit_begin(
            OpSpec::new("AN", "acquire")
                .allow_storms()
                .allow_empty_retries(),
        );
        ctx.charge_alu(1);
        ctx.lds_atomics(u64::from(hungry));

        let version = ctx.atomic_version(self.layout.state, FRONT);
        let delta = self
            .front_seen
            .map(|seen| version.saturating_sub(seen))
            .unwrap_or(0);

        let front = ctx.global_read(self.layout.state, FRONT);
        // Dequeue sees Rear with one round of delay (inter-wavefront
        // communication latency); reservations stay safely below it.
        let rear = ctx.global_read_stale(self.layout.state, REAR);
        let avail = rear.saturating_sub(front);
        let n = hungry.min(avail);
        if n == 0 {
            // Queue-empty exception: every hungry lane retries next cycle.
            // No CAS was attempted, so no retry storm either.
            ctx.count_queue_empty_retries(u64::from(hungry));
            self.front_seen = Some(version);
            ctx.audit_end();
            return;
        }
        // Contention tax: every successful reservation that landed since
        // our previous visit invalidated one read-to-CAS window of the
        // retry loop this reservation runs through.
        let storms = ctx.charge_cas_retry_storm(delta);
        ctx.audit_expect_cas(1);
        let observed = ctx.atomic_cas(self.layout.state, FRONT, front, front + n);
        ctx.count_scheduler_atomics(storms + 1);
        debug_assert_eq!(observed, front, "fresh-read CAS must win in-sim");
        self.front_seen = Some(ctx.atomic_version(self.layout.state, FRONT));

        // Tokens in [front, front+n) were published before Rear advanced
        // past them, so plain (coalesced) reads suffice.
        ctx.charge_coalesced_access(self.layout.slots, front as usize, n as usize);
        for (lane, slot) in bits(lanes.hungry()).zip(front..front + n) {
            let tok = dec(ctx.peek(self.layout.slots, slot as usize));
            debug_assert_ne!(tok, DNA, "AN dequeued an unwritten slot");
            lanes.deliver(lane, tok);
        }
        // Lanes beyond `avail` stay hungry: exception-style retry.
        if hungry > n {
            ctx.count_queue_empty_retries(u64::from(hungry - n));
        }
        ctx.audit_end();
    }

    /// Publishes the non-empty `tokens` as one CAS-reserved region, or aborts
    /// on queue-full.
    pub(super) fn enqueue_an(&mut self, ctx: &mut WaveCtx<'_>, tokens: &[u32]) -> usize {
        ctx.audit_begin(OpSpec::new("AN", "enqueue").allow_storms());
        ctx.charge_alu(1);
        ctx.lds_atomics(tokens.len() as u64);

        let version = ctx.atomic_version(self.layout.state, REAR);
        if let Some(seen) = self.rear_seen {
            // Enqueue reservations are half as exposed as dequeues: a
            // batch accumulates several work cycles of discoveries, so
            // this wavefront visits Rear correspondingly less often.
            let storms = ctx.charge_cas_retry_storm(version.saturating_sub(seen) / 2);
            ctx.count_scheduler_atomics(storms);
        }

        let rear = ctx.global_read(self.layout.state, REAR);
        let n = tokens.len() as u32;
        if rear as usize + n as usize > self.layout.capacity as usize {
            ctx.abort(AbortReason::QueueFull {
                requested: rear as u64 + n as u64,
                capacity: self.layout.capacity,
            });
            // Bound check precedes the CAS: zero reservations issued, so
            // the scope validates cleanly even on the abort path.
            ctx.audit_end();
            return 0;
        }
        ctx.audit_expect_cas(1);
        let observed = ctx.atomic_cas(self.layout.state, REAR, rear, rear + n);
        ctx.count_scheduler_atomics(1);
        debug_assert_eq!(observed, rear, "fresh-read CAS must win in-sim");
        self.rear_seen = Some(ctx.atomic_version(self.layout.state, REAR));

        // Region is exclusively ours: publish the tokens (coalesced).
        ctx.charge_coalesced_access(self.layout.slots, rear as usize, tokens.len());
        for (i, &tok) in tokens.iter().enumerate() {
            debug_assert!(tok < DNA);
            ctx.poke(self.layout.slots, rear as usize + i, enc(tok));
        }
        ctx.audit_end();
        tokens.len()
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil::{expected_tokens, pump};
    use crate::Variant;

    #[test]
    fn pump_delivers_every_token_exactly_once() {
        let seeds: Vec<u32> = (0..13).collect();
        let (consumed, _) = pump(Variant::An, &seeds, 13, 3, 2, 256);
        assert_eq!(consumed, expected_tokens(&seeds, 13, 3));
    }

    #[test]
    fn multi_wave_contention_is_correct() {
        let seeds: Vec<u32> = (0..40).collect();
        let (consumed, _) = pump(Variant::An, &seeds, 40, 2, 4, 512);
        assert_eq!(consumed, expected_tokens(&seeds, 40, 2));
    }

    #[test]
    fn uses_cas_not_just_afa() {
        let seeds: Vec<u32> = (0..16).collect();
        let (_, metrics) = pump(Variant::An, &seeds, 0, 0, 2, 64);
        assert!(metrics.cas_attempts > 0, "AN must reserve with CAS");
    }

    #[test]
    fn starvation_counts_empty_retries() {
        // 4 waves x 4 lanes = 16 hungry lanes, only 2 tokens ever: the
        // unserved lanes must keep raising queue-empty retries.
        let (consumed, metrics) = pump(Variant::An, &[1, 2], 0, 0, 4, 64);
        assert_eq!(consumed, vec![1, 2]);
        assert!(metrics.queue_empty_retries > 0, "AN retries on queue-empty");
    }

    #[test]
    fn contention_generates_cas_failures() {
        // Enough parallel work that several waves interleave reservations.
        let seeds: Vec<u32> = (0..64).collect();
        let (consumed, metrics) = pump(Variant::An, &seeds, 64, 2, 4, 1024);
        assert_eq!(consumed.len(), 64 + 128);
        assert!(
            metrics.cas_failures > 0,
            "contended AN should fail some CAS ops"
        );
    }

    #[test]
    fn single_wave_no_failures() {
        // Alone on the device: no other wavefront ever invalidates the
        // read-to-CAS window.
        let seeds: Vec<u32> = (0..8).collect();
        let (_, metrics) = pump(Variant::An, &seeds, 0, 0, 1, 32);
        assert_eq!(metrics.cas_failures, 0);
    }
}
