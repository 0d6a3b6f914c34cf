//! Multi-tenant admission: per-tenant quotas and SLO classes on top of the
//! pluggable policy stack.
//!
//! The fleet serving layer (`qram-serve`) shares one QRAM fleet among many
//! tenants. Isolation comes from two constrain-only knobs threaded through
//! the [`AdmissionPolicy`] stack:
//!
//! * an **outstanding-request quota** ([`TenantSpec::quota`]) — a cap on a
//!   tenant's queued + in-flight requests fleet-wide. Arrivals beyond it
//!   are shed at the router, so a hot tenant's queue depth (and therefore
//!   its waiting time) is bounded, and it cannot crowd other tenants out
//!   of the shared dispatch queues.
//! * an **SLO class** ([`SloClass`]) — the fraction of a replica's bounded
//!   arrival queue the tenant may occupy before its arrivals are shed.
//!   Lower classes yield queue headroom to higher ones under overload;
//!   [`SloClass::Interactive`] (the default) imposes no extra constraint.
//!
//! [`QuotaAdmission`] attaches a tenant table to any inner policy
//! ([`FifoAdmission`], [`NoiseAwareAdmission`], …): the inner policy keeps
//! deciding pipeline-level admission (the in-flight cap) while the
//! wrapper answers the per-tenant questions — composing the two
//! orthogonal axes without either knowing about the other. Like every
//! policy in the stack it can only *constrain*: wrapping a policy never
//! admits a request the inner policy would have refused.
//!
//! [`AdmissionPolicy`]: crate::AdmissionPolicy
//! [`FifoAdmission`]: crate::FifoAdmission
//! [`NoiseAwareAdmission`]: crate::NoiseAwareAdmission

use std::collections::BTreeMap;

use qram_metrics::Layers;

use crate::policy::AdmissionPolicy;
use crate::server::QramServer;

/// A tenant of the shared QRAM fleet.
///
/// Plain numeric identity: the serving layer threads it through arrivals,
/// reports, and quota lookups. Untagged traffic belongs to
/// [`TenantId::DEFAULT`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct TenantId(pub u32);

impl TenantId {
    /// The tenant untagged requests are billed to.
    pub const DEFAULT: TenantId = TenantId(0);
}

impl std::fmt::Display for TenantId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "tenant{}", self.0)
    }
}

/// A service-level-objective class: how much of a replica's bounded
/// arrival queue the tenant's traffic may occupy before being shed.
///
/// Classes order by strictness: a lower queue share sheds earlier, leaving
/// headroom for higher classes during overload. The class never *grants*
/// anything — with an unbounded arrival queue it has no effect, and
/// [`SloClass::Interactive`] is indistinguishable from having no class at
/// all (which keeps the single-tenant fleet bit-equal to the single
/// service).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum SloClass {
    /// Bulk traffic: may fill at most half the arrival queue.
    Batch,
    /// Ordinary traffic: may fill at most ¾ of the arrival queue.
    Standard,
    /// Latency-sensitive traffic: may use the whole queue (no extra
    /// constraint — the default).
    #[default]
    Interactive,
}

impl SloClass {
    /// The fraction of a bounded arrival queue this class may occupy.
    #[must_use]
    pub fn queue_share(&self) -> f64 {
        match self {
            SloClass::Batch => 0.5,
            SloClass::Standard => 0.75,
            SloClass::Interactive => 1.0,
        }
    }

    /// The class's queue bound for a queue of `capacity` slots (at least
    /// one slot, so a class can never be starved outright while the queue
    /// is empty).
    #[must_use]
    pub fn queue_bound(&self, capacity: usize) -> usize {
        (((capacity as f64) * self.queue_share()).floor() as usize).max(1)
    }

    /// The stricter (smaller-share) of two classes — the composition rule
    /// for stacked policies, mirroring the `min` composition of in-flight
    /// caps.
    #[must_use]
    pub fn stricter(self, other: SloClass) -> SloClass {
        self.min(other)
    }
}

/// Per-tenant admission limits. The default is unlimited, interactive
/// class and no deadline: the behavior of a tenant the quota table does
/// not mention.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct TenantSpec {
    /// Cap on the tenant's outstanding (queued + in-flight) requests
    /// fleet-wide; `None` is unlimited.
    pub quota: Option<u32>,
    /// The tenant's shedding class under queue pressure.
    pub slo: SloClass,
    /// Per-query response deadline, measured from arrival: a query not
    /// dispatched by `arrival + deadline` is shed as deadline-exceeded
    /// rather than waiting without bound. `None` waits forever.
    pub deadline: Option<Layers>,
}

/// Capped exponential backoff for re-dispatching queries lost to a
/// replica failure (or caught corrupted): the `a`-th loss of a query is
/// retried `min(base·2^(a−1), max)` layers later, up to `max_attempts`
/// total dispatch attempts, after which the query is shed as
/// retries-exhausted.
///
/// # Examples
///
/// ```
/// use qram_metrics::Layers;
/// use qram_sched::RetryPolicy;
///
/// let retry = RetryPolicy::new(3, Layers::new(50.0), Layers::new(400.0));
/// assert_eq!(retry.backoff(1), Layers::new(50.0));
/// assert_eq!(retry.backoff(2), Layers::new(100.0));
/// assert_eq!(retry.backoff(20), Layers::new(400.0), "capped");
/// assert!(!retry.budget_exhausted(2));
/// assert!(retry.budget_exhausted(3));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Total dispatch attempts allowed per query (first try included).
    pub max_attempts: u32,
    /// Backoff before the first retry.
    pub base_backoff: Layers,
    /// Ceiling the exponential schedule saturates at.
    pub max_backoff: Layers,
}

impl RetryPolicy {
    /// A policy allowing `max_attempts` total attempts with backoff
    /// doubling from `base_backoff` up to `max_backoff`.
    ///
    /// # Panics
    ///
    /// Panics if `max_attempts` is zero (the first dispatch is already an
    /// attempt) or `max_backoff < base_backoff`.
    #[must_use]
    pub fn new(max_attempts: u32, base_backoff: Layers, max_backoff: Layers) -> Self {
        assert!(max_attempts >= 1, "the first dispatch is an attempt");
        assert!(
            max_backoff >= base_backoff,
            "backoff ceiling below its base"
        );
        RetryPolicy {
            max_attempts,
            base_backoff,
            max_backoff,
        }
    }

    /// The delay before the retry following the `attempts_so_far`-th
    /// attempt (1-based): `min(base·2^(attempts_so_far − 1), max)`.
    #[must_use]
    pub fn backoff(&self, attempts_so_far: u32) -> Layers {
        let doublings = attempts_so_far.saturating_sub(1).min(52);
        let raw = self.base_backoff.get() * (1u64 << doublings) as f64;
        Layers::new(raw.min(self.max_backoff.get()))
    }

    /// True when `attempts_so_far` used up the budget: no further retry
    /// may be scheduled.
    #[must_use]
    pub fn budget_exhausted(&self, attempts_so_far: u32) -> bool {
        attempts_so_far >= self.max_attempts
    }
}

impl Default for RetryPolicy {
    /// Three attempts, backoff doubling from 64 layers up to 1024 —
    /// a few admission intervals at the paper's timing scale.
    fn default() -> Self {
        RetryPolicy::new(3, Layers::new(64.0), Layers::new(1024.0))
    }
}

/// Per-tenant quotas and SLO classes layered over any inner
/// [`AdmissionPolicy`].
///
/// The pipeline-level decision ([`AdmissionPolicy::in_flight_cap`])
/// delegates to the inner policy unchanged; the per-tenant hooks compose
/// constrain-only — a quota is the `min` of the wrapper's and the inner
/// policy's, an SLO class is the stricter of the two.
///
/// # Examples
///
/// ```
/// use qram_sched::{
///     AdmissionPolicy, FifoAdmission, QuotaAdmission, SloClass, TenantId,
/// };
///
/// let policy = QuotaAdmission::new(FifoAdmission)
///     .with_quota(TenantId(7), 4)
///     .with_slo(TenantId(9), SloClass::Batch);
/// assert_eq!(policy.tenant_quota(TenantId(7)), Some(4));
/// // Unlisted tenants are unconstrained.
/// assert_eq!(policy.tenant_quota(TenantId(1)), None);
/// assert_eq!(policy.tenant_slo(TenantId(9)), SloClass::Batch);
/// assert_eq!(policy.tenant_slo(TenantId(7)), SloClass::Interactive);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct QuotaAdmission<P> {
    inner: P,
    tenants: BTreeMap<TenantId, TenantSpec>,
}

impl<P: AdmissionPolicy> QuotaAdmission<P> {
    /// Wraps `inner` with an empty tenant table (every tenant unlimited).
    #[must_use]
    pub fn new(inner: P) -> Self {
        QuotaAdmission {
            inner,
            tenants: BTreeMap::new(),
        }
    }

    /// Sets a tenant's outstanding-request quota, keeping its class.
    ///
    /// # Panics
    ///
    /// Panics if `quota` is zero (a zero quota would shed every request —
    /// delete the tenant's traffic at the source instead).
    #[must_use]
    pub fn with_quota(mut self, tenant: TenantId, quota: u32) -> Self {
        assert!(quota > 0, "a quota of zero sheds all of {tenant}'s traffic");
        self.tenants.entry(tenant).or_default().quota = Some(quota);
        self
    }

    /// Sets a tenant's SLO class, keeping its quota.
    #[must_use]
    pub fn with_slo(mut self, tenant: TenantId, slo: SloClass) -> Self {
        self.tenants.entry(tenant).or_default().slo = slo;
        self
    }

    /// Sets a tenant's per-query deadline (measured from arrival),
    /// keeping its quota and class.
    ///
    /// # Panics
    ///
    /// Panics if `deadline` is zero (nothing dispatches in zero layers —
    /// every query would be shed on arrival).
    #[must_use]
    pub fn with_deadline(mut self, tenant: TenantId, deadline: Layers) -> Self {
        assert!(
            deadline > Layers::ZERO,
            "a zero deadline sheds all of {tenant}'s traffic"
        );
        self.tenants.entry(tenant).or_default().deadline = Some(deadline);
        self
    }

    /// The configured spec for `tenant` (unlimited if unlisted).
    #[must_use]
    pub fn spec(&self, tenant: TenantId) -> TenantSpec {
        self.tenants.get(&tenant).copied().unwrap_or_default()
    }
}

impl<P: AdmissionPolicy> AdmissionPolicy for QuotaAdmission<P> {
    fn in_flight_cap(&self, server: &QramServer) -> u32 {
        self.inner.in_flight_cap(server)
    }

    fn tenant_quota(&self, tenant: TenantId) -> Option<u32> {
        // min-composition: the wrapper can only tighten the inner quota.
        match (self.spec(tenant).quota, self.inner.tenant_quota(tenant)) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    fn tenant_slo(&self, tenant: TenantId) -> SloClass {
        self.spec(tenant)
            .slo
            .stricter(self.inner.tenant_slo(tenant))
    }

    fn tenant_deadline(&self, tenant: TenantId) -> Option<Layers> {
        // min-composition: the tighter (earlier) deadline wins.
        match (
            self.spec(tenant).deadline,
            self.inner.tenant_deadline(tenant),
        ) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{FifoAdmission, NoiseAwareAdmission};
    use qram_metrics::Capacity;

    #[test]
    fn default_tenant_is_unlimited_interactive() {
        let policy = QuotaAdmission::new(FifoAdmission);
        assert_eq!(policy.tenant_quota(TenantId::DEFAULT), None);
        assert_eq!(policy.tenant_slo(TenantId::DEFAULT), SloClass::Interactive);
    }

    #[test]
    fn quota_and_slo_are_independent_knobs() {
        let policy = QuotaAdmission::new(FifoAdmission)
            .with_quota(TenantId(3), 8)
            .with_slo(TenantId(3), SloClass::Batch)
            .with_quota(TenantId(4), 2);
        assert_eq!(policy.tenant_quota(TenantId(3)), Some(8));
        assert_eq!(policy.tenant_slo(TenantId(3)), SloClass::Batch);
        assert_eq!(policy.tenant_quota(TenantId(4)), Some(2));
        assert_eq!(policy.tenant_slo(TenantId(4)), SloClass::Interactive);
    }

    #[test]
    fn pipeline_decisions_delegate_to_inner_policy() {
        let server = QramServer::fat_tree_integer_layers(Capacity::new(8).unwrap());
        let noise = NoiseAwareAdmission::from_infidelity(0.16, 1e-3);
        let wrapped = QuotaAdmission::new(noise).with_quota(TenantId(1), 5);
        assert_eq!(
            wrapped.in_flight_cap(&server),
            noise.in_flight_cap(&server),
            "quota wrapper must not change the pipeline cap"
        );
    }

    #[test]
    fn stacked_quota_wrappers_compose_by_min() {
        let inner = QuotaAdmission::new(FifoAdmission)
            .with_quota(TenantId(1), 10)
            .with_slo(TenantId(2), SloClass::Standard);
        let outer = QuotaAdmission::new(inner)
            .with_quota(TenantId(1), 25)
            .with_slo(TenantId(2), SloClass::Interactive);
        // Constrain-only: the looser outer limits cannot relax the inner.
        assert_eq!(outer.tenant_quota(TenantId(1)), Some(10));
        assert_eq!(outer.tenant_slo(TenantId(2)), SloClass::Standard);
    }

    #[test]
    fn slo_queue_bounds_scale_with_share() {
        assert_eq!(SloClass::Interactive.queue_bound(16), 16);
        assert_eq!(SloClass::Standard.queue_bound(16), 12);
        assert_eq!(SloClass::Batch.queue_bound(16), 8);
        // Never starved to zero slots.
        assert_eq!(SloClass::Batch.queue_bound(1), 1);
        assert!(SloClass::Batch.queue_share() < SloClass::Standard.queue_share());
        assert_eq!(
            SloClass::Interactive.stricter(SloClass::Batch),
            SloClass::Batch
        );
    }

    #[test]
    #[should_panic(expected = "sheds all")]
    fn zero_quota_rejected() {
        let _ = QuotaAdmission::new(FifoAdmission).with_quota(TenantId(1), 0);
    }

    #[test]
    fn deadlines_compose_to_the_tighter_bound() {
        let inner =
            QuotaAdmission::new(FifoAdmission).with_deadline(TenantId(1), Layers::new(500.0));
        let outer = QuotaAdmission::new(inner)
            .with_deadline(TenantId(1), Layers::new(900.0))
            .with_deadline(TenantId(2), Layers::new(40.0));
        assert_eq!(outer.tenant_deadline(TenantId(1)), Some(Layers::new(500.0)));
        assert_eq!(outer.tenant_deadline(TenantId(2)), Some(Layers::new(40.0)));
        assert_eq!(outer.tenant_deadline(TenantId(3)), None);
    }

    #[test]
    #[should_panic(expected = "sheds all")]
    fn zero_deadline_rejected() {
        let _ = QuotaAdmission::new(FifoAdmission).with_deadline(TenantId(1), Layers::ZERO);
    }

    #[test]
    fn retry_backoff_doubles_and_saturates() {
        let retry = RetryPolicy::default();
        assert_eq!(retry.backoff(1), Layers::new(64.0));
        assert_eq!(retry.backoff(2), Layers::new(128.0));
        assert_eq!(retry.backoff(3), Layers::new(256.0));
        assert_eq!(retry.backoff(100), Layers::new(1024.0), "ceiling holds");
        assert!(retry.backoff(0) >= retry.base_backoff);
        assert!(!retry.budget_exhausted(2));
        assert!(retry.budget_exhausted(3));
    }

    #[test]
    #[should_panic(expected = "ceiling below")]
    fn inverted_backoff_bounds_rejected() {
        let _ = RetryPolicy::new(2, Layers::new(100.0), Layers::new(10.0));
    }
}
