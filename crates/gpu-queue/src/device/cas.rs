//! The CAS discipline: compare-and-swap reservations on `Front` / `Rear`
//! with the traditional exceptions — a dequeue never passes `Rear`, so an
//! empty queue raises queue-empty and the hungry lanes retry. What a
//! contended CAS costs is a model, and the two widths' models share no
//! arithmetic ([`super::an`]: the proxy's retry storm; [`super::base`]:
//! per-lane wasted attempts); what they share is here.

use super::{Lanes, QueueLayout, WaveQueue, Width, FRONT, REAR};
use simt::WaveCtx;

/// Per-wavefront handle to a CAS queue: AN (per wave) or BASE (per lane).
#[derive(Clone, Debug)]
pub struct CasWaveQueue {
    pub(super) layout: QueueLayout,
    width: Width,
    /// Version of `Front` as of this wavefront's last dequeue visit.
    pub(super) front_seen: Option<u64>,
    /// Version of `Rear` as of this wavefront's last enqueue visit.
    pub(super) rear_seen: Option<u64>,
}

impl CasWaveQueue {
    pub(super) fn new(layout: QueueLayout, width: Width) -> Self {
        CasWaveQueue {
            layout,
            width,
            front_seen: None,
            rear_seen: None,
        }
    }
}

impl WaveQueue for CasWaveQueue {
    fn acquire(&mut self, ctx: &mut WaveCtx<'_>, lanes: &mut Lanes) {
        // A wave the engine parked on the empty queue skipped its per-round
        // `front_seen` refresh; the engine kept the version for it.
        if let Some(version) = ctx.parked_front_version() {
            self.front_seen = Some(version);
        }
        if lanes.hungry() == 0 {
            return;
        }
        match self.width {
            Width::PerWave => self.acquire_an(ctx, lanes),
            Width::PerLane => self.acquire_base(ctx, lanes),
        }
    }

    fn enqueue(&mut self, ctx: &mut WaveCtx<'_>, tokens: &[u32]) -> usize {
        if tokens.is_empty() {
            return 0;
        }
        match self.width {
            Width::PerWave => self.enqueue_an(ctx, tokens),
            Width::PerLane => self.enqueue_base(ctx, tokens),
        }
    }

    fn register_idle_watches(&self, ctx: &mut WaveCtx<'_>, lanes: &Lanes) -> bool {
        // Neither model has a monitoring phase: an empty-queue cycle leaves
        // every lane Hungry and attempts no CAS (AN: `n == 0`; BASE: zero
        // lanes served, so `wasted = delta.min(0 + 0) = 0`), so the cycle
        // is a pure poll of `Front` (fresh read) and `Rear` (stale read)
        // whose outcome and charges depend only on `rear <= front` — the
        // "still empty" class. Its one private side effect, `front_seen =
        // version(Front)`, is unconditional, so the engine reproduces it
        // by handing back the version of the last skipped round
        // (`parked_front_version` in `acquire`).
        if !lanes.all_hungry() {
            return false;
        }
        ctx.park_while_empty(self.layout.state, REAR, FRONT);
        true
    }
}
