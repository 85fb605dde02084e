//! Dataset scaling for experiments.

/// Fraction of each dataset's published vertex count to instantiate.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Scale(f64);

impl Scale {
    /// Full published size (`scale = 1.0`) — the sizes of the paper.
    pub const FULL: Scale = Scale(1.0);

    /// Default for the `repro` binary: fast but large enough that every
    /// contention effect is visible.
    pub const DEFAULT: Scale = Scale(0.05);

    /// Miniature scale for CI tests.
    pub const TEST: Scale = Scale(0.004);

    /// Creates a scale, clamped into `(0, 1]`.
    pub fn new(fraction: f64) -> Scale {
        assert!(
            fraction.is_finite() && fraction > 0.0 && fraction <= 1.0,
            "scale must be in (0, 1], got {fraction}"
        );
        Scale(fraction)
    }

    /// The raw fraction.
    pub fn fraction(self) -> f64 {
        self.0
    }

    /// This scale times `rel`, capped at full size (and floored above 0).
    /// Panics unless `rel` is finite and positive.
    pub fn relative(self, rel: f64) -> Scale {
        assert!(
            rel.is_finite() && rel > 0.0,
            "relative scale must be finite and positive, got {rel}"
        );
        Scale::new((self.0 * rel).clamp(f64::MIN_POSITIVE, 1.0))
    }
}

impl Default for Scale {
    fn default() -> Self {
        Scale::DEFAULT
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructor_accepts_valid_range() {
        assert_eq!(Scale::new(0.5).fraction(), 0.5);
        assert_eq!(Scale::new(1.0).fraction(), 1.0);
    }

    #[test]
    #[should_panic(expected = "scale must be in")]
    fn rejects_zero() {
        Scale::new(0.0);
    }

    #[test]
    #[should_panic(expected = "scale must be in")]
    fn rejects_above_one() {
        Scale::new(1.5);
    }

    #[test]
    fn relative_scales_multiply_and_cap_at_full_size() {
        assert_eq!(Scale::new(0.5).relative(0.5).fraction(), 0.25);
        assert_eq!(Scale::new(0.5).relative(4.0), Scale::FULL);
        assert!(Scale::new(1e-300).relative(1e-300).fraction() > 0.0);
    }

    #[test]
    #[should_panic(expected = "relative scale must be finite and positive")]
    fn relative_rejects_nan() {
        Scale::DEFAULT.relative(f64::NAN);
    }
}
