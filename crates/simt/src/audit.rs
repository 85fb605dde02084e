//! AuditMode: machine-checked per-operation atomic budgets.
//!
//! The paper's headline claims are *structural*: the RF/AN queue issues
//! exactly one global fetch-add per wavefront queue operation (arbitrary-n)
//! and never a CAS (retry-free), while the traditional designs pay CAS
//! retries. Benchmarks demonstrate the consequences; AuditMode checks the
//! structure itself. A queue operation opens a scope declaring its atomic
//! budget ([`OpSpec`], via `WaveCtx::audit_begin`), the context counts every
//! global atomic issued while the scope is open, and closing the scope
//! (`WaveCtx::audit_end`) validates the counts — a violation fails the whole
//! run with [`SimError::AuditViolation`].
//!
//! Auditing has no switch: every launch validates every scope it opens. It
//! is pure bookkeeping — scopes count atomics but never touch metrics,
//! issue slots or latency.

use crate::error::SimError;
use crate::metrics::Metrics;

/// Declared atomic budget of one wavefront queue operation.
///
/// `None` leaves a dimension unconstrained (BASE's per-lane CAS count
/// depends on occupancy and staleness, so its spec does not pin it).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OpSpec {
    /// Variant label for diagnostics (e.g. `"RF/AN"`).
    pub variant: &'static str,
    /// Operation label for diagnostics (`"acquire"` / `"enqueue"`).
    pub op: &'static str,
    /// Exact number of non-failing global atomics (fetch-add/sub/
    /// exchange/min) the operation may issue.
    pub afa: Option<u64>,
    /// Exact number of real CAS operations the operation may issue.
    pub cas: Option<u64>,
    /// Whether staleness-modeled CAS retry storms are legal in-scope.
    pub storms_allowed: bool,
    /// Whether queue-empty retries are legal in-scope.
    pub empty_retries_allowed: bool,
}

impl OpSpec {
    /// The strictest spec: zero atomics of any kind, no retries. Relax
    /// dimensions with the builder methods.
    pub fn new(variant: &'static str, op: &'static str) -> Self {
        OpSpec {
            variant,
            op,
            afa: Some(0),
            cas: Some(0),
            storms_allowed: false,
            empty_retries_allowed: false,
        }
    }

    /// Permits exactly `n` fetch-add-family atomics.
    pub fn afa_exact(mut self, n: u64) -> Self {
        self.afa = Some(n);
        self
    }

    /// Permits exactly `n` CAS operations.
    pub fn cas_exact(mut self, n: u64) -> Self {
        self.cas = Some(n);
        self
    }

    /// Leaves the CAS count unconstrained (BASE's per-lane loops).
    pub fn any_cas(mut self) -> Self {
        self.cas = None;
        self
    }

    /// Permits staleness-modeled CAS retry storms.
    pub fn allow_storms(mut self) -> Self {
        self.storms_allowed = true;
        self
    }

    /// Permits queue-empty retries.
    pub fn allow_empty_retries(mut self) -> Self {
        self.empty_retries_allowed = true;
        self
    }
}

/// Live counters for one open audit scope.
#[derive(Clone, Copy, Debug)]
pub(crate) struct AuditScope {
    pub(crate) spec: OpSpec,
    pub(crate) afa: u64,
    pub(crate) cas: u64,
    pub(crate) storms: u64,
    pub(crate) empty_retries: u64,
}

impl AuditScope {
    pub(crate) fn new(spec: OpSpec) -> Self {
        AuditScope {
            spec,
            afa: 0,
            cas: 0,
            storms: 0,
            empty_retries: 0,
        }
    }

    /// Checks the observed counts against the spec.
    pub(crate) fn validate(&self) -> Result<(), SimError> {
        let fail = |what: &str, got: u64, want: &str| {
            Err(SimError::AuditViolation(format!(
                "{} {}: issued {got} {what}, spec allows {want}",
                self.spec.variant, self.spec.op
            )))
        };
        if let Some(want) = self.spec.afa {
            if self.afa != want {
                return fail("fetch-add atomics", self.afa, &format!("exactly {want}"));
            }
        }
        if let Some(want) = self.spec.cas {
            if self.cas != want {
                return fail("CAS operations", self.cas, &format!("exactly {want}"));
            }
        }
        if !self.spec.storms_allowed && self.storms != 0 {
            return fail("CAS retry storms", self.storms, "none");
        }
        if !self.spec.empty_retries_allowed && self.empty_retries != 0 {
            return fail("queue-empty retries", self.empty_retries, "none");
        }
        Ok(())
    }
}

/// Run-level retry-free claim: a retry-free design's run must finish with
/// zero CAS attempts, zero CAS failures, and zero queue-empty retries.
/// Returns a diagnostic on the first violated counter.
pub fn check_retry_free(metrics: &Metrics) -> Result<(), String> {
    if metrics.cas_attempts != 0 {
        return Err(format!(
            "retry-free run issued {} CAS attempts",
            metrics.cas_attempts
        ));
    }
    if metrics.cas_failures != 0 {
        return Err(format!(
            "retry-free run recorded {} CAS failures",
            metrics.cas_failures
        ));
    }
    if metrics.queue_empty_retries != 0 {
        return Err(format!(
            "retry-free run recorded {} queue-empty retries",
            metrics.queue_empty_retries
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strict_spec_rejects_every_atomic() {
        let spec = OpSpec::new("RF/AN", "enqueue").afa_exact(1);
        let mut scope = AuditScope::new(spec);
        scope.afa = 1;
        assert!(scope.validate().is_ok());
        scope.cas = 1;
        let err = scope.validate().unwrap_err();
        assert!(err.to_string().contains("CAS operations"), "{err}");
    }

    #[test]
    fn afa_count_must_be_exact_both_ways() {
        let mut scope = AuditScope::new(OpSpec::new("RF/AN", "acquire").afa_exact(1));
        assert!(scope.validate().is_err(), "zero AFAs when one is required");
        scope.afa = 1;
        assert!(scope.validate().is_ok());
        scope.afa = 2;
        assert!(
            scope.validate().is_err(),
            "one AFA per wavefront op, not two"
        );
    }

    #[test]
    fn storms_and_empty_retries_gate_independently() {
        let mut scope = AuditScope::new(
            OpSpec::new("AN", "acquire")
                .cas_exact(1)
                .allow_storms()
                .allow_empty_retries(),
        );
        scope.cas = 1;
        scope.storms = 3;
        scope.empty_retries = 7;
        assert!(scope.validate().is_ok());
        let mut strict = AuditScope::new(OpSpec::new("RF/AN", "acquire"));
        strict.empty_retries = 1;
        assert!(strict.validate().is_err());
    }

    #[test]
    fn any_cas_leaves_count_unconstrained() {
        let mut scope = AuditScope::new(OpSpec::new("BASE", "enqueue").any_cas());
        scope.cas = 17;
        assert!(scope.validate().is_ok());
    }

    #[test]
    fn check_retry_free_flags_each_counter() {
        let mut m = Metrics::default();
        assert!(check_retry_free(&m).is_ok());
        m.cas_attempts = 1;
        assert!(check_retry_free(&m).unwrap_err().contains("CAS attempts"));
        m.cas_attempts = 0;
        m.queue_empty_retries = 2;
        assert!(check_retry_free(&m)
            .unwrap_err()
            .contains("queue-empty retries"));
    }
}
