//! Property test: the generation-stamped cache-line table must count
//! exactly what a per-cycle `sort_unstable` + `dedup` of the touched lines
//! counts, across randomized traffic, cycle boundaries, and table growth.
//!
//! The stamped table never clears between cycles — a slot is live only if
//! its stamp matches the current cycle generation — so the property that
//! matters is equivalence *across many cycles in a row*, where stale
//! stamps from earlier cycles sit in the table waiting to be miscounted.

use simt::round::RoundState;

/// SplitMix64 — tiny, seedable, dependency-free PRNG (public-domain
/// algorithm; same recurrence as `java.util.SplittableRandom`).
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform-enough value in `0..bound` for property-test traffic.
    fn below(&mut self, bound: u64) -> u64 {
        self.next() % bound
    }
}

/// The reference accounting: collect every line touch of the cycle, then
/// sort + dedup and count.
fn reference_distinct(touches: &[usize]) -> u64 {
    let mut lines = touches.to_vec();
    lines.sort_unstable();
    lines.dedup();
    lines.len() as u64
}

#[test]
fn stamped_count_equals_sort_dedup_reference() {
    let mut rng = SplitMix64(0x1cc9_2019 ^ 0xA5A5_A5A5);
    let mut rs = RoundState::new();
    for case in 0..200 {
        // Mix of dense hot-spot traffic and sparse wide traffic, with the
        // address space occasionally larger than the pre-sized table so
        // on-demand growth is exercised too.
        let space = 1 + rng.below(if case % 5 == 0 { 10_000 } else { 64 }) as usize;
        if case % 3 == 0 {
            rs.ensure_capacity(space * 16);
        }
        let cycles = 1 + rng.below(8);
        for _ in 0..cycles {
            let touches: Vec<usize> = (0..rng.below(300))
                .map(|_| rng.below(space as u64) as usize)
                .collect();
            rs.begin_cycle();
            for &line in &touches {
                rs.touch_line(line);
            }
            assert_eq!(
                rs.cycle_lines(),
                reference_distinct(&touches),
                "case {case}: stamped dedup diverged from sort+dedup \
                 over {} touches in a {space}-line space",
                touches.len(),
            );
        }
    }
}

#[test]
fn repeat_touches_never_recount_within_a_cycle() {
    let mut rng = SplitMix64(7);
    let mut rs = RoundState::new();
    for _ in 0..50 {
        rs.begin_cycle();
        let line = rng.below(1000) as usize;
        rs.touch_line(line);
        let count = rs.cycle_lines();
        for _ in 0..10 {
            rs.touch_line(line);
        }
        assert_eq!(rs.cycle_lines(), count);
    }
}

/// The same traffic across the generation's wrap: the first cycles stamp
/// lines with the generations the wrap restarts at, so a wrap that reset
/// the generation without clearing the table would skip them.
#[test]
fn stamped_count_stays_exact_across_the_generation_wrap() {
    // A fresh thread starts from an empty line-table pool, so the first
    // cycle's generation is 1.
    std::thread::spawn(|| {
        let mut rng = SplitMix64(0x57A3_9E11);
        let mut rs = RoundState::new();
        // Sparse traffic, so most stamps of the first cycles survive
        // until the generation comes back to them.
        rs.ensure_capacity(4096 * 16);
        let check = |rs: &mut RoundState, rng: &mut SplitMix64, label: &str| {
            let touches: Vec<usize> = (0..1 + rng.below(200))
                .map(|_| rng.below(4096) as usize)
                .collect();
            rs.begin_cycle();
            for &line in &touches {
                rs.touch_line(line);
            }
            assert_eq!(
                rs.cycle_lines(),
                reference_distinct(&touches),
                "{label}: stamped dedup diverged from sort+dedup over {} touches",
                touches.len(),
            );
        };
        for cycle in 0..12 {
            check(&mut rs, &mut rng, &format!("cycle {cycle} before the wrap"));
        }
        rs.skip_line_generation_to(u32::MAX - 3);
        for cycle in 0..40 {
            check(&mut rs, &mut rng, &format!("cycle {cycle} across the wrap"));
        }
    })
    .join()
    .unwrap();
}
