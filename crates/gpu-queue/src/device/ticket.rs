//! The ticket discipline (paper §4, Listings 1–3): fetch-add reservations
//! that cannot fail, and the `dna` sentinel that turns queue-empty into a
//! plain memory poll. Listing 1 is [`TicketWaveQueue::reserve`], Listing 2
//! [`poll`] over a [`Slots`] resolver, Listing 3 one of three publishes
//! whose charges differ: [`rfan::publish`] (flat, one AFA per batch),
//! [`rfonly::publish`] (flat, one AFA per token) and
//! [`segmented::publish`] (one AFA per touched segment, installing
//! segments on the way).

use super::{bits, rfan, rfonly, segmented, Lanes, QueueLayout, SegmentedLayout, WaveQueue, Width};
use super::{FRONT, REAR};
use crate::DNA;
use simt::round::LINE_WORDS;
use simt::{Buffer, OpSpec, WaveCtx, MAX_WAVE_SIZE};

/// Where a ticket design keeps the slot behind a ticket.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Slots {
    /// Ticket `t < capacity` is `slots[t]`; later tickets have no slot.
    Flat(QueueLayout),
    /// Ticket `t` is in the physical segment the directory maps virtual
    /// segment `t / seg_cap` to, if it maps it.
    Segmented(SegmentedLayout),
}

impl Slots {
    /// The `[Front, Rear]` words of the ticket space.
    fn state(&self) -> Buffer {
        match self {
            Slots::Flat(q) => q.state,
            Slots::Segmented(lt) => lt.state,
        }
    }
}

/// Directory words one memoised poll can stand on — every word of the
/// ring [`SegmentedLayout::for_capacity`] builds. On a longer ring, a
/// wavefront whose tickets span more segments than this polls in full
/// every cycle.
const PROBES: usize = 12;

/// What the last arrival-free [`poll`] of a wavefront charged, valid for
/// as long as what it was computed from stands: the same lanes on the
/// same tickets ([`Lanes::epoch`]), `Rear` not past the smallest of them,
/// the probed directory words unchanged.
#[derive(Clone, Copy, Debug)]
pub(crate) struct PollMemo {
    epoch: u64,
    min_ticket: u32,
    /// Cache-resident slot lines polled.
    cached_lines: u8,
    /// Cache-resident directory lines probed (SEG).
    dir_lines: u8,
    /// Ring slots of the directory words probed (SEG), and what they held,
    /// in ring order.
    probed: u64,
    entries: [u32; PROBES],
}

impl PollMemo {
    /// Matches no [`Lanes::epoch`]: the next poll runs in full.
    pub(crate) const NONE: PollMemo = PollMemo {
        epoch: u64::MAX,
        min_ticket: 0,
        cached_lines: 0,
        dir_lines: 0,
        probed: 0,
        entries: [0; PROBES],
    };
}

/// The data-arrival poll (paper Listing 2) of RF/AN, RF-only and
/// SEG-RF/AN, in closed form.
///
/// The modelled hardware reads every monitored slot each work cycle. The
/// simulator need not, by the **arrival invariant: a ticket `t` a lane
/// still monitors reads non-`dna` through the round-stale view iff `t <`
/// the round-start value of `Rear`** (bounded: and `t < capacity`;
/// segmented: which implies the stale directory maps its segment). Four
/// facts carry it. (1) Every enqueue reserves `[Rear, Rear + k)` and
/// writes those slots inside one atomic work cycle, and the stale view of
/// round *r* shows exactly the writes of rounds *< r* — for `Rear` and
/// for slots alike. (2) Only the owning lane clears a slot, and it stops
/// monitoring when it does. (3) A recycled physical segment is
/// republished only after every pickup restored `dna` (retirement needs
/// every ticket consumed), and the new mapping is stale-visible no
/// earlier than those restores. (4) An enqueue that aborts breaks (1) —
/// and fails the run. (*Host-side observation* in the `simt::ctx` docs
/// is the obligation this discharges.)
///
/// So the poll observes round-start `Rear` (and, SEG, the directory word
/// of each distinct segment in play, once per run of tickets), decides
/// arrival by integer compare, and charges exactly what the reads cost:
/// a wavefront's monitored slots came from batched reservations, so the
/// poll coalesces into one transaction per cache line — cache-resident
/// (`charge_cached_access`) while the line holds only sentinels, a full
/// transaction (`charge_coalesced_access` over the watched run) once a
/// producer's write invalidated it — plus one ALU slot per monitoring lane
/// for its bounds / mapping check. It reads a slot only to pick an arrived
/// token up, restoring the sentinel (no atomics: the slot is privately
/// owned) and reporting the ticket to `picked`.
///
/// When nothing arrived, the counts are kept in `memo`; the next poll of
/// the same lanes, with `Rear` still short of them and the directory words
/// unchanged, replays them without looking at a lane. Debug builds run
/// every poll in full instead, assert the invariant on every watched word
/// and check a valid memo against the recount. While a poison is armed
/// the poll also touches every word the hardware reads, in its order, with
/// the faulting accessor.
pub(crate) fn poll(
    ctx: &mut WaveCtx<'_>,
    lanes: &mut Lanes,
    memo: &mut PollMemo,
    slots: &Slots,
    mut picked: impl FnMut(u32),
) {
    let watching = lanes.monitoring();
    if watching == 0 {
        return;
    }
    let (buf, rear) = match slots {
        // No ticket at or past `capacity` ever holds data.
        Slots::Flat(q) => (q.slots, ctx.observe_stale(q.state, REAR).min(q.capacity)),
        Slots::Segmented(lt) => (lt.slots, ctx.observe_stale(lt.state, REAR)),
    };
    let armed = ctx.poison_armed();
    let replay = !armed
        && memo.epoch == lanes.epoch()
        && rear <= memo.min_ticket
        && match slots {
            Slots::Flat(_) => true,
            Slots::Segmented(lt) => bits(memo.probed)
                .zip(memo.entries)
                .all(|(r, entry)| ctx.observe_stale(lt.dir, r) == entry),
        };
    if replay && !cfg!(debug_assertions) {
        ctx.charge_cached_access(memo.dir_lines.into());
        ctx.charge_cached_access(memo.cached_lines.into());
        ctx.charge_alu(watching.count_ones().into());
        return;
    }

    let mut min_ticket = u32::MAX;
    // Ring slots and directory lines probed so far.
    let (mut probed, mut dir_lines) = (0u64, 0u64);
    // `arena address, arrived, lane` of every watched slot, packed so that
    // sorting orders them by address.
    let mut keys = [0u64; MAX_WAVE_SIZE];
    let mut watched = 0;
    // The segment the previous ticket resolved to: `(first ticket, arena
    // address of it if mapped)`.
    let mut span: Option<(u32, Option<u32>)> = None;
    for lane in bits(watching) {
        let t = lanes.ticket(lane);
        min_ticket = min_ticket.min(t);
        let addr = match slots {
            Slots::Flat(q) => (t < q.capacity).then_some(t),
            Slots::Segmented(lt) => {
                if armed || span.is_none_or(|(first, _)| t.wrapping_sub(first) >= lt.seg_cap) {
                    let seg = t / lt.seg_cap;
                    let r = lt.ring_slot(seg);
                    if armed {
                        ctx.peek_stale(lt.dir, r);
                    }
                    probed |= 1 << r;
                    dir_lines |= 1 << (r / LINE_WORDS);
                    let entry = ctx.observe_stale(lt.dir, r);
                    let base = lt.decode(entry, seg).map(|phys| phys * lt.seg_cap);
                    span = Some((seg * lt.seg_cap, base));
                }
                span.and_then(|(first, base)| Some(base? + (t - first)))
            }
        };
        let Some(addr) = addr else {
            // Never read: data cannot arrive out of bounds, nor before
            // the mapping does.
            debug_assert!(t >= rear, "ticket {t} below Rear {rear} has no slot");
            continue;
        };
        debug_assert_eq!(
            ctx.observe_stale(buf, addr as usize) != DNA,
            t < rear,
            "arrival invariant: ticket {t}, round-start Rear {rear}"
        );
        keys[watched] = u64::from(addr) << 7 | u64::from(t < rear) << 6 | lane as u64;
        watched += 1;
    }

    // Probes of distinct ring slots coalesce into cache-resident lines.
    let dir_lines = dir_lines.count_ones() as u8;
    ctx.charge_cached_access(dir_lines.into());
    let keys = &mut keys[..watched];
    keys.sort_unstable();
    let (mut cached_lines, mut arrivals) = (0u8, 0);
    let mut i = 0;
    while i < keys.len() {
        let first = (keys[i] >> 7) as usize;
        let (mut last, mut data) = (first, false);
        while i < keys.len() && (keys[i] >> 7) as usize / LINE_WORDS == first / LINE_WORDS {
            last = (keys[i] >> 7) as usize;
            if armed {
                ctx.peek_stale(buf, last);
            }
            if keys[i] & (1 << 6) != 0 {
                data = true;
                arrivals += 1;
                let lane = (keys[i] & 63) as usize;
                let value = ctx.peek_stale(buf, last);
                assert!(value != DNA, "closed-form pickup of an empty slot {last}");
                // Private pickup: restore the sentinel, no atomics.
                ctx.poke(buf, last, DNA);
                picked(lanes.ticket(lane));
                lanes.deliver(lane, value);
            }
            i += 1;
        }
        if data {
            ctx.charge_coalesced_access(buf, first, last - first + 1);
        } else {
            cached_lines += 1;
        }
    }
    ctx.charge_cached_access(cached_lines.into());
    ctx.charge_alu(watching.count_ones().into());

    debug_assert!(
        !replay || (arrivals, cached_lines, dir_lines) == (0, memo.cached_lines, memo.dir_lines),
        "stale poll memo {memo:?}: recounted {cached_lines} + {dir_lines} lines"
    );
    *memo = PollMemo::NONE;
    if arrivals == 0 && probed.count_ones() as usize <= PROBES {
        if let Slots::Segmented(lt) = slots {
            for (entry, r) in memo.entries.iter_mut().zip(bits(probed)) {
                *entry = ctx.observe_stale(lt.dir, r);
            }
        }
        (memo.epoch, memo.min_ticket) = (lanes.epoch(), min_ticket);
        (memo.cached_lines, memo.dir_lines, memo.probed) = (cached_lines, dir_lines, probed);
    }
}

/// The ticket designs' [`WaveQueue::register_idle_watches`]. A pure
/// poll requires *every* lane to be monitoring: a hungry or ready lane
/// would make the next cycle reserve slots or do work, and an idle lane is
/// about to turn hungry. By the arrival invariant ([`poll`]) that cycle
/// repeats until round-start `Rear` passes the smallest monitored ticket
/// or (SEG) a probed directory word changes, so the wave parks on exactly
/// those — waking in the round a watch on every monitored slot would have.
/// A wave whose tickets are all out of bounds waits on the kernel's
/// watches alone.
fn park_sentinel(ctx: &mut WaveCtx<'_>, lanes: &Lanes, slots: &Slots) -> bool {
    if !lanes.all_monitoring() {
        return false;
    }
    let mut smallest = u32::MAX;
    // SEG: ring slots watched so far, and the first ticket of the segment
    // the previous ticket was in (tickets come in runs).
    let (mut parked, mut span) = (0u64, None);
    for t in bits(lanes.monitoring()).map(|lane| lanes.ticket(lane)) {
        smallest = smallest.min(t);
        if let Slots::Segmented(lt) = slots {
            if span.is_none_or(|first| t.wrapping_sub(first) >= lt.seg_cap) {
                let seg = t / lt.seg_cap;
                span = Some(seg * lt.seg_cap);
                let r = lt.ring_slot(seg);
                if parked & (1 << r) == 0 {
                    parked |= 1 << r;
                    ctx.park_until_changed(lt.dir, r);
                }
            }
        }
    }
    match slots {
        Slots::Flat(q) if smallest >= q.capacity => {}
        _ => ctx.park_while_at_most(slots.state(), REAR, smallest),
    }
    true
}

/// Per-wavefront handle to a ticket queue: RF/AN (flat, per wave), RF-only
/// (flat, per lane) or SEG-RF/AN (segmented, per wave). Stateless beyond
/// what it was built from and the poll's memo: the discipline needs no
/// staged reads and no retry bookkeeping.
#[derive(Clone, Debug)]
pub struct TicketWaveQueue {
    pub(super) slots: Slots,
    pub(super) width: Width,
    pub(super) memo: PollMemo,
}

impl TicketWaveQueue {
    pub(super) fn new(slots: Slots, width: Width) -> Self {
        TicketWaveQueue {
            slots,
            width,
            memo: PollMemo::NONE,
        }
    }

    /// Paper Listing 1: a ticket on `Front` for every hungry lane, opening
    /// the acquire's audit scope. The fetch-add cannot fail and is
    /// unconditional — reserving past `Rear` is fine because unwritten
    /// slots hold the sentinel — so the headline claim is auditable: one
    /// global AFA iff any lane is hungry (lane width: one per hungry
    /// lane), never a CAS, never a retry of any kind. A segmented acquire
    /// adds the AFAs of its retirements, so its budget is left to
    /// [`segmented::retire`], which is handed the count returned here.
    pub(super) fn reserve(&self, ctx: &mut WaveCtx<'_>, lanes: &mut Lanes) -> u64 {
        let hungry = lanes.hungry().count_ones();
        let afa = match self.width {
            Width::PerWave => u64::from(hungry.min(1)),
            Width::PerLane => u64::from(hungry),
        };
        let label = match (&self.slots, self.width) {
            (Slots::Flat(_), Width::PerWave) => "RF/AN",
            (Slots::Flat(_), Width::PerLane) => "RF-only",
            (Slots::Segmented(_), _) => "SEG-RF/AN",
        };
        let spec = OpSpec::new(label, "acquire");
        ctx.audit_begin(match self.slots {
            Slots::Flat(_) => spec.afa_exact(afa),
            Slots::Segmented(_) => spec,
        });
        let state = self.slots.state();
        match self.width {
            // The hungry lanes count themselves with workgroup-local
            // atomics (the proxy zeroes the counter; local atomics never
            // fail and are latency-hidden), the proxy thread issues
            // **one** global AFA for all of them, and each lane monitors
            // its ticket of the batch.
            Width::PerWave if hungry > 0 => {
                ctx.charge_alu(1);
                ctx.lds_atomics(u64::from(hungry));
                let base = ctx.atomic_add(state, FRONT, hungry);
                ctx.count_scheduler_atomics(1);
                lanes.monitor_hungry(base);
            }
            Width::PerWave => {}
            // Every hungry lane issues its own global AFA in lock-step —
            // they all succeed, but each occupies an issue slot and a
            // place in the serialization queue.
            Width::PerLane => {
                for lane in bits(lanes.hungry()) {
                    let slot = ctx.atomic_add(state, FRONT, 1);
                    ctx.count_scheduler_atomics(1);
                    lanes.monitor(lane, slot);
                }
            }
        }
        afa
    }
}

impl WaveQueue for TicketWaveQueue {
    fn acquire(&mut self, ctx: &mut WaveCtx<'_>, lanes: &mut Lanes) {
        let afa = self.reserve(ctx, lanes);
        // Listing 2: data-arrival poll on the monitored slots. Mapped
        // slots of a segmented queue poll exactly like the flat one's;
        // slots of not-yet-installed segments are never read (the mapping
        // arrives before any data can), and a recycled segment is born
        // sentinel-clean because every pickup restored the sentinel.
        match &self.slots {
            Slots::Flat(_) => {
                poll(ctx, lanes, &mut self.memo, &self.slots, |_| {});
                ctx.audit_end();
            }
            Slots::Segmented(lt) => {
                let mut pickups = [0; MAX_WAVE_SIZE];
                poll(ctx, lanes, &mut self.memo, &self.slots, |ticket| {
                    pickups[lt.ring_slot(ticket / lt.seg_cap)] += 1
                });
                segmented::retire(ctx, lt, &pickups, afa);
            }
        }
    }

    fn enqueue(&mut self, ctx: &mut WaveCtx<'_>, tokens: &[u32]) -> usize {
        if tokens.is_empty() {
            return 0;
        }
        match (&self.slots, self.width) {
            (Slots::Flat(q), Width::PerWave) => rfan::publish(ctx, "RF/AN", q, tokens),
            (Slots::Flat(q), Width::PerLane) => rfonly::publish(ctx, q, tokens),
            (Slots::Segmented(lt), _) => segmented::publish(ctx, lt, tokens),
        }
    }

    fn register_idle_watches(&self, ctx: &mut WaveCtx<'_>, lanes: &Lanes) -> bool {
        park_sentinel(ctx, lanes, &self.slots)
    }
}
