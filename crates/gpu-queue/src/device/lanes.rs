//! Columnar dequeue-side lane state of one wavefront.
//!
//! A wavefront's lanes are at most [`simt::MAX_WAVE_SIZE`] = 64, so the
//! three non-idle [`LanePhase`]s are one `u64` mask each and the payloads
//! (monitored ticket or held token) one `u32` column: "which lanes are
//! hungry", "is every lane monitoring" and "hand the next ready token
//! out" are mask arithmetic, and a queue or kernel that walks lanes walks
//! set bits, not 64 enum tags. [`LanePhase`] remains the per-lane *view*
//! ([`Lanes::phase`]).
//!
//! The fields are private so that one condition holds by construction: a
//! lane enters or leaves `Monitoring`, or changes the ticket it monitors,
//! only through [`Lanes::monitor`], [`Lanes::monitor_hungry`] and
//! [`Lanes::deliver`], and each of them advances [`Lanes::epoch`]. Two
//! equal epochs of one `Lanes` therefore mean *the same lanes monitor the
//! same tickets* — an integer compare where a memoising queue would
//! otherwise re-scan the lanes.

use super::LanePhase;
use simt::MAX_WAVE_SIZE;

/// Set bits of `mask`, lowest first — lane indices in lane order.
pub fn bits(mut mask: u64) -> impl Iterator<Item = usize> + Clone {
    std::iter::from_fn(move || {
        (mask != 0).then(|| {
            let lane = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            lane
        })
    })
}

/// Dequeue-side state of every lane of one wavefront (see the module
/// docs). A lane is in at most one of the three masks; in none, it is
/// [`LanePhase::Idle`].
#[derive(Clone, Debug)]
pub struct Lanes {
    /// One bit per lane of the wavefront.
    all: u64,
    hungry: u64,
    monitoring: u64,
    ready: u64,
    /// The ticket of a monitoring lane, the token of a ready one.
    payload: [u32; MAX_WAVE_SIZE],
    epoch: u64,
}

impl Lanes {
    /// `width` idle lanes.
    ///
    /// # Panics
    /// Panics unless `1 <= width <= 64` (the engine refuses to launch any
    /// other wavefront width).
    pub fn new(width: usize) -> Self {
        assert!(
            (1..=MAX_WAVE_SIZE).contains(&width),
            "a wavefront has 1..={MAX_WAVE_SIZE} lanes, not {width}"
        );
        Lanes {
            all: u64::MAX >> (MAX_WAVE_SIZE - width),
            hungry: 0,
            monitoring: 0,
            ready: 0,
            payload: [0; MAX_WAVE_SIZE],
            epoch: 0,
        }
    }

    /// Lanes in the wavefront.
    pub fn width(&self) -> usize {
        self.all.count_ones() as usize
    }

    /// The phase of `lane`.
    pub fn phase(&self, lane: usize) -> LanePhase {
        let bit = 1u64 << lane;
        if self.hungry & bit != 0 {
            LanePhase::Hungry
        } else if self.monitoring & bit != 0 {
            LanePhase::Monitoring(self.payload[lane])
        } else if self.ready & bit != 0 {
            LanePhase::Ready(self.payload[lane])
        } else {
            LanePhase::Idle
        }
    }

    /// Mask of idle lanes.
    pub fn idle(&self) -> u64 {
        self.all & !(self.hungry | self.monitoring | self.ready)
    }

    /// Mask of hungry lanes.
    pub fn hungry(&self) -> u64 {
        self.hungry
    }

    /// Mask of monitoring lanes.
    pub fn monitoring(&self) -> u64 {
        self.monitoring
    }

    /// True if every lane of the wavefront is hungry.
    pub fn all_hungry(&self) -> bool {
        self.hungry == self.all
    }

    /// True if every lane of the wavefront is monitoring.
    pub fn all_monitoring(&self) -> bool {
        self.monitoring == self.all
    }

    /// The ticket `lane` monitors. Meaningful for a monitoring lane only.
    pub fn ticket(&self, lane: usize) -> u32 {
        debug_assert!(
            self.monitoring & (1 << lane) != 0,
            "lane {lane} monitors nothing"
        );
        self.payload[lane]
    }

    /// Advances exactly when the set of monitoring lanes, or a ticket one
    /// of them monitors, changes (see the module docs).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Kernel side: the idle lanes in `mask` ask for work.
    pub fn request(&mut self, mask: u64) {
        self.hungry |= mask & self.idle();
    }

    /// Kernel side: takes the token of the lowest ready lane, which goes
    /// idle; `None` once no lane is ready.
    pub fn take_ready(&mut self) -> Option<(usize, u32)> {
        let lane = bits(self.ready).next()?;
        self.ready &= !(1 << lane);
        Some((lane, self.payload[lane]))
    }

    /// Queue side: hungry `lane` starts monitoring `ticket`.
    pub fn monitor(&mut self, lane: usize, ticket: u32) {
        debug_assert!(
            self.hungry & (1 << lane) != 0,
            "lane {lane} asked for nothing"
        );
        self.hungry &= !(1 << lane);
        self.monitoring |= 1 << lane;
        self.payload[lane] = ticket;
        self.epoch += 1;
    }

    /// Queue side: every hungry lane starts monitoring, in lane order, the
    /// consecutive tickets from `base` (one batched reservation).
    pub fn monitor_hungry(&mut self, base: u32) {
        if self.hungry == 0 {
            return;
        }
        for (lane, ticket) in bits(self.hungry).zip(base..) {
            self.payload[lane] = ticket;
        }
        self.monitoring |= self.hungry;
        self.hungry = 0;
        self.epoch += 1;
    }

    /// Queue side: hungry or monitoring `lane` receives `token`.
    pub fn deliver(&mut self, lane: usize, token: u32) {
        let bit = 1u64 << lane;
        debug_assert!(
            (self.hungry | self.monitoring) & bit != 0,
            "lane {lane} awaits nothing"
        );
        if self.monitoring & bit != 0 {
            self.monitoring &= !bit;
            self.epoch += 1;
        }
        self.hungry &= !bit;
        self.ready |= bit;
        self.payload[lane] = token;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Masks pairwise disjoint and inside the wavefront.
    fn check_masks(lanes: &Lanes) {
        let (h, m, r) = (lanes.hungry, lanes.monitoring, lanes.ready);
        assert_eq!((h & m, h & r, m & r), (0, 0, 0), "{lanes:?}");
        assert_eq!((h | m | r) & !lanes.all, 0, "{lanes:?}");
        assert_eq!(lanes.idle() | h | m | r, lanes.all);
    }

    #[test]
    fn bits_walks_set_bits_lowest_first() {
        assert_eq!(bits(0).count(), 0);
        assert_eq!(bits(0b1010_0001).collect::<Vec<_>>(), vec![0, 5, 7]);
        assert_eq!(bits(u64::MAX).count(), 64);
        assert_eq!(bits(1 << 63).next(), Some(63));
    }

    #[test]
    fn widths_fill_exactly_their_mask() {
        for width in [1, 4, 63, 64] {
            let lanes = Lanes::new(width);
            assert_eq!(lanes.width(), width);
            assert_eq!(lanes.idle().count_ones() as usize, width);
            assert_eq!(bits(lanes.idle()).last(), Some(width - 1));
            assert!(!lanes.all_hungry() && !lanes.all_monitoring());
        }
    }

    #[test]
    #[should_panic(expected = "1..=64 lanes")]
    fn zero_width_is_refused() {
        let _ = Lanes::new(0);
    }

    #[test]
    #[should_panic(expected = "1..=64 lanes")]
    fn over_wide_is_refused() {
        let _ = Lanes::new(65);
    }

    #[test]
    fn phases_round_trip_through_the_columns() {
        let mut lanes = Lanes::new(4);
        lanes.request(0b0111);
        assert!(!lanes.all_hungry());
        lanes.monitor(0, 40);
        lanes.deliver(1, 7); // a CAS design feeds a hungry lane directly
        assert_eq!(
            (0..4).map(|l| lanes.phase(l)).collect::<Vec<_>>(),
            vec![
                LanePhase::Monitoring(40),
                LanePhase::Ready(7),
                LanePhase::Hungry,
                LanePhase::Idle,
            ]
        );
        assert_eq!(lanes.ticket(0), 40);
        check_masks(&lanes);
        lanes.deliver(0, 9);
        assert_eq!(lanes.take_ready(), Some((0, 9)));
        assert_eq!(lanes.take_ready(), Some((1, 7)));
        assert_eq!(lanes.take_ready(), None);
        assert_eq!(lanes.phase(0), LanePhase::Idle);
        check_masks(&lanes);
    }

    #[test]
    fn request_only_moves_idle_lanes_of_the_wavefront() {
        let mut lanes = Lanes::new(4);
        lanes.request(0b0001);
        lanes.monitor(0, 3);
        lanes.request(u64::MAX); // lane 0 is busy; lanes 4.. do not exist
        assert_eq!(lanes.hungry(), 0b1110);
        assert_eq!(lanes.monitoring(), 0b0001);
        check_masks(&lanes);
    }

    #[test]
    fn batched_reservation_hands_out_consecutive_tickets_in_lane_order() {
        let mut lanes = Lanes::new(8);
        lanes.request(0b1010_0110);
        lanes.monitor_hungry(100);
        let tickets: Vec<_> = bits(lanes.monitoring())
            .map(|l| (l, lanes.ticket(l)))
            .collect();
        assert_eq!(tickets, vec![(1, 100), (2, 101), (5, 102), (7, 103)]);
        assert_eq!(lanes.hungry(), 0);
        check_masks(&lanes);
    }

    #[test]
    fn epoch_moves_with_the_monitored_set_and_with_nothing_else() {
        let mut lanes = Lanes::new(4);
        let mut seen = lanes.epoch();
        let mut moved = |lanes: &Lanes| {
            let moved = lanes.epoch() != seen;
            seen = lanes.epoch();
            moved
        };
        lanes.request(0b1111); // Idle -> Hungry
        assert!(!moved(&lanes));
        lanes.deliver(3, 5); // Hungry -> Ready
        assert!(!moved(&lanes));
        lanes.take_ready(); // Ready -> Idle
        assert!(!moved(&lanes));
        lanes.monitor(0, 10); // Hungry -> Monitoring
        assert!(moved(&lanes));
        lanes.monitor_hungry(11);
        assert!(moved(&lanes));
        lanes.deliver(1, 6); // Monitoring -> Ready
        assert!(moved(&lanes));
        lanes.take_ready();
        lanes.request(0b1010);
        assert!(!moved(&lanes));
        lanes.monitor(1, 10); // a different lane on a ticket seen before
        assert!(moved(&lanes));
        lanes.monitor(3, 13);
        assert!(lanes.all_monitoring());
    }
}
