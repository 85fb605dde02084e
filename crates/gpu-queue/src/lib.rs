//! `gpu-queue` — the paper's contribution: a retry-free, arbitrary-n
//! concurrent queue for scheduling irregular workloads on GPUs
//! (Troendle, Ta, Jang — ICPP 2019), plus the two traditional designs it
//! is evaluated against.
//!
//! Two families of implementations share the same algorithms:
//!
//! * [`device`] — queue variants formulated against the [`simt`] simulator's
//!   wavefront API, written to mirror the paper's OpenCL listings 1–3:
//!   proxy-thread aggregation with local atomics, a single global atomic
//!   per wavefront per operation, and the *data-not-arrived* sentinel that
//!   refactors the queue-empty exception into a plain memory poll.
//! * [`host`] — real-thread Rust implementations of the same designs,
//!   usable as genuine concurrent data structures: one generic queue core
//!   composed from a reservation policy (fetch-add tickets vs. a CAS loop)
//!   and a storage policy (one bounded sentinel ring vs. linked segments).
//!
//! [`verify`] checks the host family: an interleaving explorer that steps
//! the core's own operations, a linearizability checker and a real-thread
//! conformance matrix.
//!
//! The three variants (paper §5.3):
//!
//! | variant | reservation atomic | batch (arbitrary-n) | empty handling |
//! |---|---|---|---|
//! | `BASE`  | per-thread CAS (retries) | no | exception → retry |
//! | `AN`    | per-wave proxy CAS (retries) | yes | exception → retry |
//! | `RF/AN` | per-wave proxy fetch-add (never fails) | yes | `dna` sentinel poll |

pub mod device;
pub mod host;
pub mod verify;

/// The *data-not-arrived* sentinel. Stored in every queue slot where valid
/// data has not yet arrived; task tokens must therefore be `< DNA`.
pub const DNA: u32 = u32::MAX;

/// Queue-variant selector used across kernels, runners, and reports.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Variant {
    /// Traditional lock-free CAS queue: no retry-free, no arbitrary-n.
    Base,
    /// CAS queue with the arbitrary-n property (proxy-thread batching).
    An,
    /// The proposed retry-free, arbitrary-n queue (AFA + dna sentinel).
    RfAn,
    /// Ablation-only: retry-free *without* arbitrary-n (per-lane AFA +
    /// dna sentinel). Completes the 2x2 property matrix; not part of the
    /// paper's three-way comparison.
    RfOnly,
    /// Segmented RF/AN: linked segments of bounded retry-free rings with a
    /// recycled-segment pool. Overflow becomes a segment append (one
    /// directory store) instead of a queue-full abort; the AFA fast path
    /// is unchanged within a segment. Memory is bounded by *live*
    /// occupancy rather than lifetime enqueues. Not in the paper.
    SegRfAn,
}

impl Variant {
    /// The paper's three variants, in its presentation order (excludes
    /// the [`Variant::RfOnly`] ablation).
    pub const ALL: [Variant; 3] = [Variant::Base, Variant::An, Variant::RfAn];

    /// The full 2x2 property matrix including the RF-only ablation.
    pub const MATRIX: [Variant; 4] = [Variant::Base, Variant::An, Variant::RfOnly, Variant::RfAn];

    /// The label used in the paper's tables.
    pub fn label(self) -> &'static str {
        match self {
            Variant::Base => "BASE",
            Variant::An => "AN",
            Variant::RfAn => "RF/AN",
            Variant::RfOnly => "RF-only",
            Variant::SegRfAn => "SEG-RF/AN",
        }
    }

    /// Whether the variant reserves batches through a proxy thread.
    pub fn is_arbitrary_n(self) -> bool {
        matches!(self, Variant::An | Variant::RfAn | Variant::SegRfAn)
    }

    /// Whether the variant's atomics can fail (and therefore retry).
    pub fn is_retry_free(self) -> bool {
        matches!(self, Variant::RfAn | Variant::RfOnly | Variant::SegRfAn)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_match_paper() {
        assert_eq!(Variant::Base.label(), "BASE");
        assert_eq!(Variant::An.label(), "AN");
        assert_eq!(Variant::RfAn.label(), "RF/AN");
    }

    #[test]
    fn property_matrix() {
        assert!(!Variant::Base.is_arbitrary_n());
        assert!(Variant::An.is_arbitrary_n());
        assert!(Variant::RfAn.is_arbitrary_n());
        assert!(!Variant::Base.is_retry_free());
        assert!(!Variant::An.is_retry_free());
        assert!(Variant::RfAn.is_retry_free());
        assert!(Variant::SegRfAn.is_retry_free());
        assert!(Variant::SegRfAn.is_arbitrary_n());
        // The paper's comparison sets stay fixed: segmented is an
        // explicitly-requested extension, never implied by ALL/MATRIX.
        assert!(!Variant::ALL.contains(&Variant::SegRfAn));
        assert!(!Variant::MATRIX.contains(&Variant::SegRfAn));
    }

    #[test]
    fn dna_is_max_word() {
        assert_eq!(DNA, 0xFFFF_FFFF);
    }
}
