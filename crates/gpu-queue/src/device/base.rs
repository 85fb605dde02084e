//! BASE's contention model: a traditional lock-free CAS queue with
//! neither the retry-free nor the arbitrary-n property (paper §5.3) —
//! [`super::CasWaveQueue`] at lane width.
//!
//! Every thread performs its own queue operation: a hungry lane CASes
//! `Front` forward by one to claim a slot; a lane with a discovery CASes
//! `Rear` forward by one per token. Two penalties follow:
//!
//! * **64× the scheduler atomics** — one reservation per *lane* instead of
//!   one per wavefront, all landing on the same counter word, which lives
//!   in a single L2 slice. Same-word atomics serialize device-wide
//!   ([`simt::CostModel::hot_word_milli`]); no amount of occupancy hides
//!   a saturated slice, which is why BASE's speedup curve flattens while
//!   the proxy designs keep scaling (Figure 4).
//! * **Retries** — a lane's read-to-CAS window can be invalidated by any
//!   other wavefront's reservation. Each intervening success costs one
//!   failed attempt (counted, and charged to the hot word); failures
//!   therefore grow with the number of active wavefronts (Figure 1). On
//!   an empty queue, dequeue raises the queue-empty exception and retries
//!   next work cycle — there is no sentinel protocol to refactor it away.
//!
//! Within a work cycle the lanes' queue operations are staggered by their
//! divergent progress (degrees differ), so in the common case each lane's
//! CAS sees a fresh counter value and succeeds — the paper's BASE is slow
//! because of *where* its atomics go, not because every attempt is wasted.

use super::{bits, dec, enc, CasWaveQueue, Lanes, FRONT, REAR};
use crate::DNA;
use simt::{AbortReason, OpSpec, WaveCtx};

impl CasWaveQueue {
    /// One dequeue visit at lane width, for at least one hungry lane:
    /// mutations of `Front` since the previous visit each invalidated one
    /// lane's read-to-CAS window.
    pub(super) fn acquire_base(&mut self, ctx: &mut WaveCtx<'_>, lanes: &mut Lanes) {
        let hungry = lanes.hungry().count_ones() as usize;
        // BASE's budget is the anti-claim: never an AFA (reservations are
        // all CAS), but the per-lane CAS count depends on occupancy and
        // staleness, so it stays unconstrained.
        ctx.audit_begin(
            OpSpec::new("BASE", "acquire")
                .any_cas()
                .allow_empty_retries(),
        );

        let version = ctx.atomic_version(self.layout.state, FRONT);
        let delta = self
            .front_seen
            .map(|seen| version.saturating_sub(seen))
            .unwrap_or(0);

        // Each hungry lane claims one slot with its own CAS. Lanes are
        // staggered by divergent progress, so each sees a fresh counter.
        // Lanes that find the queue empty raise the queue-empty exception
        // *without* attempting a CAS (Front == Rear is checked first).
        let rear = ctx.global_read_stale(self.layout.state, REAR);
        let mut front = ctx.global_read(self.layout.state, FRONT);
        let mut served = 0usize;
        #[allow(clippy::explicit_counter_loop)] // `front` is device state, not a counter
        for lane in bits(lanes.hungry()) {
            if front >= rear {
                break;
            }
            let observed = ctx.atomic_cas(self.layout.state, FRONT, front, front + 1);
            ctx.count_scheduler_atomics(1);
            debug_assert_eq!(observed, front, "fresh per-lane CAS wins in-sim");
            let tok = dec(ctx.global_read_lane(self.layout.slots, front as usize));
            debug_assert_ne!(tok, DNA, "BASE dequeued an unwritten slot");
            lanes.deliver(lane, tok);
            front += 1;
            served += 1;
        }
        if served < hungry {
            // Queue-empty exception: the rest retry next work cycle.
            ctx.count_queue_empty_retries((hungry - served) as u64);
        }

        // Cross-wavefront staleness: reservations that landed since our
        // last visit invalidated read-to-CAS windows of lanes that DID see
        // tokens — each costs one wasted attempt before its re-read.
        let wasted = delta.min(served as u64 + u64::from(served > 0));
        for _ in 0..wasted {
            // A CAS whose expected value cannot match: executed and
            // counted (attempt + failure), no memory effect.
            ctx.atomic_cas(self.layout.state, FRONT, DNA, DNA);
        }
        ctx.count_scheduler_atomics(wasted);
        self.front_seen = Some(ctx.atomic_version(self.layout.state, FRONT));
        ctx.audit_end();
    }

    /// Publishes up to a wavefront's worth of the non-empty `tokens`, one CAS
    /// each; returns how many were accepted (the rest is re-offered), aborting
    /// on queue-full.
    pub(super) fn enqueue_base(&mut self, ctx: &mut WaveCtx<'_>, tokens: &[u32]) -> usize {
        ctx.audit_begin(OpSpec::new("BASE", "enqueue").any_cas());
        // Staleness-wasted attempts, as on the dequeue side (halved:
        // enqueues visit the counter less often than dequeue polls).
        let version = ctx.atomic_version(self.layout.state, REAR);
        if let Some(seen) = self.rear_seen {
            let wasted = version.saturating_sub(seen).min(tokens.len() as u64 + 1) / 2;
            for _ in 0..wasted {
                ctx.atomic_cas(self.layout.state, REAR, DNA, DNA);
            }
            ctx.count_scheduler_atomics(wasted);
        }

        // One CAS per token, at most a wavefront's worth per work cycle
        // (each lane pushes one discovery per cycle).
        let mut rear = ctx.global_read(self.layout.state, REAR);
        let budget = tokens.len().min(ctx.wave_size());
        let mut accepted = 0usize;
        while accepted < budget {
            if rear as usize >= self.layout.capacity as usize {
                ctx.abort(AbortReason::QueueFull {
                    requested: rear as u64,
                    capacity: self.layout.capacity,
                });
                return accepted;
            }
            let observed = ctx.atomic_cas(self.layout.state, REAR, rear, rear + 1);
            ctx.count_scheduler_atomics(1);
            debug_assert_eq!(observed, rear);
            ctx.global_write_lane(self.layout.slots, rear as usize, enc(tokens[accepted]));
            accepted += 1;
            rear += 1;
        }
        self.rear_seen = Some(ctx.atomic_version(self.layout.state, REAR));
        ctx.audit_end();
        accepted
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil::{expected_tokens, pump};
    use crate::Variant;

    #[test]
    fn pump_delivers_every_token_exactly_once() {
        let seeds: Vec<u32> = (0..13).collect();
        let (consumed, _) = pump(Variant::Base, &seeds, 13, 3, 2, 256);
        assert_eq!(consumed, expected_tokens(&seeds, 13, 3));
    }

    #[test]
    fn multi_wave_contention_is_correct() {
        let seeds: Vec<u32> = (0..40).collect();
        let (consumed, _) = pump(Variant::Base, &seeds, 40, 2, 4, 512);
        assert_eq!(consumed, expected_tokens(&seeds, 40, 2));
    }

    #[test]
    fn one_scheduler_atomic_for_each_token_when_uncontended() {
        // Single wave, seeds pre-enqueued by the host: exactly one dequeue
        // CAS per consumed token, zero failures.
        let seeds: Vec<u32> = (0..16).collect();
        let (consumed, metrics) = pump(Variant::Base, &seeds, 0, 0, 1, 64);
        assert_eq!(consumed.len(), 16);
        assert_eq!(metrics.cas_failures, 0, "uncontended BASE never fails");
        assert_eq!(metrics.scheduler_atomics, 16);
    }

    #[test]
    fn far_more_scheduler_atomics_than_rfan() {
        let seeds: Vec<u32> = (0..32).collect();
        let (_, base) = pump(Variant::Base, &seeds, 32, 2, 4, 512);
        let (_, rfan) = pump(Variant::RfAn, &seeds, 32, 2, 4, 512);
        assert!(
            base.scheduler_atomics > 3 * rfan.scheduler_atomics,
            "BASE {} vs RF/AN {}",
            base.scheduler_atomics,
            rfan.scheduler_atomics
        );
    }

    #[test]
    fn empty_queue_raises_retries() {
        let (consumed, metrics) = pump(Variant::Base, &[1, 2], 0, 0, 4, 64);
        assert_eq!(consumed, vec![1, 2]);
        assert!(metrics.queue_empty_retries > 0);
    }

    #[test]
    fn contention_generates_cas_failures() {
        let seeds: Vec<u32> = (0..64).collect();
        let (_, metrics) = pump(Variant::Base, &seeds, 64, 2, 4, 1024);
        assert!(
            metrics.cas_failures > 0,
            "contended BASE should waste attempts"
        );
    }

    #[test]
    fn makespan_at_least_rfan_under_load() {
        let seeds: Vec<u32> = (0..48).collect();
        let (_, base) = pump(Variant::Base, &seeds, 48, 3, 4, 1024);
        let (_, rfan) = pump(Variant::RfAn, &seeds, 48, 3, 4, 1024);
        assert!(
            base.makespan_cycles >= rfan.makespan_cycles,
            "BASE {} cycles vs RF/AN {}",
            base.makespan_cycles,
            rfan.makespan_cycles
        );
    }
}
