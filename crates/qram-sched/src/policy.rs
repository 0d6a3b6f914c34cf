//! The pluggable scheduling stack: one admission core, interchangeable
//! policies (§5.2).
//!
//! `schedule_fifo` (offline), [`OnlineFifoScheduler`] (incremental), and
//! `simulate_streams` (closed-loop) all commit admissions through one
//! recurrence:
//!
//! * [`PipelineCore`] — the shared recurrence: a query ready at `r` starts
//!   at `max(r, last_start + interval, finish of the query `p` admissions
//!   back)` and occupies the pipeline for `latency`. Every scheduler in
//!   the workspace commits admissions through this one implementation,
//!   at the earliest feasible start (the latency-optimal FIFO of
//!   Appendix A.2).
//! * [`AdmissionPolicy`] — a strategy hook deciding *how many* queries may
//!   share the pipeline ([`AdmissionPolicy::in_flight_cap`]), plus the
//!   per-tenant limits the fleet router enforces. [`FifoAdmission`] admits
//!   at full parallelism; [`NoiseAwareAdmission`] trades parallelism for
//!   post-distillation fidelity (§8.2, Table 4).
//! * [`PolicyScheduler`] — the online admission surface: admit each
//!   arrival in order, and read back the committed admissions. It
//!   composes the core with any policy; [`OnlineFifoScheduler`] is its
//!   FIFO instantiation, kept as a named type for API stability.
//!
//! [`OnlineFifoScheduler`]: crate::OnlineFifoScheduler

use qram_core::QramModel;
use qram_metrics::Layers;
use qram_noise::{distilled_infidelity, query_infidelity_bound, GateErrorRates};

use crate::fifo::{QueryRequest, Schedule, ScheduledQuery};
use crate::online::OutOfOrderArrival;
use crate::server::QramServer;
use crate::tenant::{SloClass, TenantId};

/// Distillation depth past which admission degenerates to one query at a
/// time: even the widest architecture in Table 1 has parallelism far below
/// `2⁶⁴`, and `ε ≥ 1` can never reach a sub-one target.
const MAX_DISTILLATION_COPIES: u32 = 64;

/// The shared pipelined-admission state: committed admissions and the
/// recurrence that turns a ready time into the earliest feasible start.
///
/// Every scheduling entry point in the workspace — offline FIFO, the
/// online scheduler, the closed-loop stream simulator, and the
/// `qram-serve` event reactor's reference pin — commits admissions through
/// this type, so their timings agree bit-for-bit by construction.
#[derive(Debug, Clone)]
pub struct PipelineCore {
    server: QramServer,
    entries: Vec<ScheduledQuery>,
}

impl PipelineCore {
    /// An empty core for a server.
    #[must_use]
    pub fn new(server: QramServer) -> Self {
        PipelineCore {
            server,
            entries: Vec::new(),
        }
    }

    /// The server this core schedules onto.
    #[must_use]
    pub fn server(&self) -> &QramServer {
        &self.server
    }

    /// Number of committed admissions.
    #[must_use]
    pub fn admitted(&self) -> usize {
        self.entries.len()
    }

    /// The committed admissions, in admission order.
    #[must_use]
    pub fn entries(&self) -> &[ScheduledQuery] {
        &self.entries
    }

    /// The earliest feasible start for a query that becomes ready at
    /// `ready`, with at most `in_flight_cap` queries sharing the pipeline:
    /// no earlier than `ready`, at least one admission `interval` after
    /// the previous start, and no earlier than the finish of the query
    /// `cap` admissions back (the in-flight bound; `cap` is clamped into
    /// `[1, parallelism]`).
    #[must_use]
    pub fn earliest_start(&self, ready: Layers, in_flight_cap: u32) -> Layers {
        let mut start = ready;
        if let Some(prev) = self.entries.last() {
            start = start.max(prev.start + self.server.interval());
        }
        let k = self.entries.len();
        let p = in_flight_cap.clamp(1, self.server.parallelism()) as usize;
        if k >= p {
            start = start.max(self.entries[k - p].finish);
        }
        start
    }

    /// Commits an admission at `start`, returning the scheduled slot.
    ///
    /// # Panics
    ///
    /// Panics if `start` precedes the previous admission (the core's
    /// recurrence assumes monotone starts).
    pub fn commit(&mut self, request: QueryRequest, start: Layers) -> ScheduledQuery {
        if let Some(prev) = self.entries.last() {
            assert!(
                start >= prev.start,
                "admissions must be committed in start order: {} < {}",
                start.get(),
                prev.start.get()
            );
        }
        let finish = start + self.server.latency();
        let scheduled = ScheduledQuery {
            request,
            start,
            finish,
        };
        self.entries.push(scheduled);
        scheduled
    }

    /// Consumes the core, returning the realized schedule.
    #[must_use]
    pub fn into_schedule(self) -> Schedule {
        Schedule::from_entries(self.entries)
    }
}

/// A pluggable admission strategy over the [`PipelineCore`].
///
/// Policies constrain the core, never relax it: the cap is clamped into
/// the server's parallelism, and every admission starts at the earliest
/// pipeline-feasible instant under that cap.
///
/// # The tenant terms
///
/// [`tenant_quota`](Self::tenant_quota),
/// [`tenant_slo`](Self::tenant_slo) and
/// [`tenant_deadline`](Self::tenant_deadline) are a tenant's terms, and
/// each must be a pure function of the tenant: the same answer whenever
/// and however often it is asked. A serving run asks each distinct
/// tenant of its requests for each term once, before its first arrival,
/// and applies the answers to every arrival, retry, hedge and resolution
/// of that tenant. So a policy whose answers drift during a run (a
/// counter, a clock, interior mutability) is not honored mid-run. Every
/// policy in this crate answers from configuration fixed at construction.
pub trait AdmissionPolicy {
    /// Maximum queries allowed in flight concurrently. The default is the
    /// server's full pipeline parallelism; the returned value is clamped
    /// into `[1, parallelism]` by the callers.
    fn in_flight_cap(&self, server: &QramServer) -> u32 {
        server.parallelism()
    }

    /// Cap on a tenant's outstanding (queued + in-flight) requests across
    /// the whole fleet; `None` (the default) is unlimited. Enforced by the
    /// fleet router at arrival time — excess arrivals are shed, bounding
    /// the tenant's queue depth. See [`QuotaAdmission`]. One of the
    /// tenant terms: asked once per tenant per run.
    ///
    /// [`QuotaAdmission`]: crate::tenant::QuotaAdmission
    fn tenant_quota(&self, tenant: TenantId) -> Option<u32> {
        let _ = tenant;
        None
    }

    /// The tenant's shedding class under arrival-queue pressure. The
    /// default, [`SloClass::Interactive`], imposes no constraint beyond
    /// the queue bound itself. One of the tenant terms: asked once per
    /// tenant per run.
    fn tenant_slo(&self, tenant: TenantId) -> SloClass {
        let _ = tenant;
        SloClass::Interactive
    }

    /// Per-query response deadline for the tenant, measured from arrival:
    /// a query still undispatched at `arrival + deadline` is shed as
    /// deadline-exceeded instead of waiting without bound. `None` (the
    /// default) waits forever. See [`QuotaAdmission::with_deadline`]. One
    /// of the tenant terms: asked once per tenant per run.
    ///
    /// [`QuotaAdmission::with_deadline`]: crate::tenant::QuotaAdmission::with_deadline
    fn tenant_deadline(&self, tenant: TenantId) -> Option<Layers> {
        let _ = tenant;
        None
    }
}

/// First-come-first-served admission at full pipeline parallelism — the
/// latency-optimal policy of Appendix A.2.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FifoAdmission;

impl AdmissionPolicy for FifoAdmission {}

/// Noise-aware admission (§8.2): caps the number of concurrently served
/// queries so that each admitted query can be virtually distilled from
/// enough parallel copies to push its post-distillation infidelity below a
/// target.
///
/// A capacity-`N` query has infidelity `ε` (from
/// [`query_infidelity_bound`]); distilling `k` parallel copies suppresses
/// it to `≈ εᵏ` ([`distilled_infidelity`]). Meeting a target infidelity
/// `δ` therefore costs `k = min{k : εᵏ ≤ δ}` pipeline slots per logical
/// query, capping the concurrent batch at `⌊parallelism / k⌋` — smaller
/// batches than FIFO exactly when the target is tight (cf. Table 4's
/// parallelism–fidelity trade-off).
///
/// # Examples
///
/// ```
/// use qram_core::FatTreeQram;
/// use qram_metrics::{Capacity, TimingModel};
/// use qram_noise::GateErrorRates;
/// use qram_sched::{AdmissionPolicy, NoiseAwareAdmission, QramServer};
///
/// let qram = FatTreeQram::new(Capacity::new(16)?);
/// let server = QramServer::for_model(&qram, &TimingModel::paper_default());
/// // ε = 0.16 at ε₀ = 2·10⁻³ (Table 4); a 10⁻³ infidelity target needs
/// // 4 copies per query, so only ⌊4 / 4⌋ = 1 of the 4 pipeline slots
/// // serves a distinct query.
/// let policy = NoiseAwareAdmission::for_model(
///     &qram, &GateErrorRates::from_cswap_rate(2e-3), 1e-3);
/// assert_eq!(policy.copies(), 4);
/// assert_eq!(policy.in_flight_cap(&server), 1);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NoiseAwareAdmission {
    copies: u32,
}

impl NoiseAwareAdmission {
    /// Plans admission for a backend under the given gate-error rates and
    /// post-distillation infidelity target, deriving the per-query
    /// infidelity from [`query_infidelity_bound`].
    ///
    /// # Panics
    ///
    /// Panics if `target_infidelity` is outside `(0, 1]`.
    #[must_use]
    pub fn for_model<M: QramModel + ?Sized>(
        model: &M,
        rates: &GateErrorRates,
        target_infidelity: f64,
    ) -> Self {
        NoiseAwareAdmission::from_infidelity(
            query_infidelity_bound(model, rates),
            target_infidelity,
        )
    }

    /// Plans admission for a known per-query infidelity `eps`.
    ///
    /// # Panics
    ///
    /// Panics if `eps` is outside `[0, 1]` or `target_infidelity` outside
    /// `(0, 1]`.
    #[must_use]
    pub fn from_infidelity(eps: f64, target_infidelity: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&eps),
            "per-query infidelity must lie in [0, 1], got {eps}"
        );
        assert!(
            target_infidelity > 0.0 && target_infidelity <= 1.0,
            "target infidelity must lie in (0, 1], got {target_infidelity}"
        );
        let copies = (1..MAX_DISTILLATION_COPIES)
            .find(|&k| distilled_infidelity(eps, k) <= target_infidelity)
            .unwrap_or(MAX_DISTILLATION_COPIES);
        NoiseAwareAdmission { copies }
    }

    /// Parallel copies distilled per admitted query.
    #[must_use]
    pub fn copies(&self) -> u32 {
        self.copies
    }

    /// The concurrent-batch cap on a machine with the given parallelism:
    /// `max(1, ⌊parallelism / copies⌋)`.
    #[must_use]
    pub fn batch_cap(&self, parallelism: u32) -> u32 {
        (parallelism / self.copies).max(1)
    }
}

impl AdmissionPolicy for NoiseAwareAdmission {
    fn in_flight_cap(&self, server: &QramServer) -> u32 {
        self.batch_cap(server.parallelism())
    }
}

/// The online scheduler: the shared [`PipelineCore`] composed with any
/// [`AdmissionPolicy`], admitting each arrival in order at its earliest
/// feasible start.
///
/// # Examples
///
/// ```
/// use qram_metrics::{Capacity, Layers};
/// use qram_sched::{
///     FifoAdmission, PolicyScheduler, QramServer, QueryRequest,
/// };
///
/// let server = QramServer::fat_tree_integer_layers(Capacity::new(8)?);
/// let mut sched = PolicyScheduler::new(server, FifoAdmission);
/// let slot = sched.admit(QueryRequest { id: 0, arrival: Layers::ZERO })?;
/// assert_eq!(slot.start, Layers::ZERO);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct PolicyScheduler<P> {
    core: PipelineCore,
    policy: P,
}

impl<P: AdmissionPolicy> PolicyScheduler<P> {
    /// An empty scheduler for a server under a policy.
    #[must_use]
    pub fn new(server: QramServer, policy: P) -> Self {
        PolicyScheduler {
            core: PipelineCore::new(server),
            policy,
        }
    }

    /// Number of queries admitted so far.
    #[must_use]
    pub fn admitted(&self) -> usize {
        self.core.admitted()
    }

    /// Consumes the scheduler, returning the realized schedule.
    #[must_use]
    pub fn into_schedule(self) -> Schedule {
        self.core.into_schedule()
    }

    /// The server being scheduled onto.
    #[must_use]
    pub fn server(&self) -> &QramServer {
        self.core.server()
    }

    /// Admits the next arriving request, committing its slot immediately
    /// at the earliest start the policy's in-flight cap allows.
    ///
    /// # Errors
    ///
    /// Returns [`OutOfOrderArrival`] if `request.arrival` precedes an
    /// already-admitted arrival — an online scheduler sees time move
    /// forward only.
    pub fn admit(&mut self, request: QueryRequest) -> Result<ScheduledQuery, OutOfOrderArrival> {
        if let Some(last) = self.core.entries().last() {
            let previous = last.request.arrival;
            if request.arrival < previous {
                return Err(OutOfOrderArrival {
                    arrival: request.arrival,
                    previous,
                });
            }
        }
        let cap = self.policy.in_flight_cap(self.core.server());
        let start = self.core.earliest_start(request.arrival, cap);
        Ok(self.core.commit(request, start))
    }

    /// Admissions committed so far, in admission order.
    #[must_use]
    pub fn entries(&self) -> &[ScheduledQuery] {
        self.core.entries()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qram_metrics::Capacity;

    fn server() -> QramServer {
        QramServer::fat_tree_integer_layers(Capacity::new(8).unwrap())
    }

    fn requests(arrivals: &[f64]) -> Vec<QueryRequest> {
        arrivals
            .iter()
            .enumerate()
            .map(|(id, &a)| QueryRequest {
                id,
                arrival: Layers::new(a),
            })
            .collect()
    }

    #[test]
    fn fifo_policy_matches_pipeline_recurrence() {
        let mut sched = PolicyScheduler::new(server(), FifoAdmission);
        for r in requests(&[0.0, 0.0, 0.0]) {
            sched.admit(r).unwrap();
        }
        let starts: Vec<f64> = sched.entries().iter().map(|e| e.start.get()).collect();
        assert_eq!(starts, vec![0.0, 10.0, 20.0]);
    }

    #[test]
    fn policy_scheduler_rejects_out_of_order() {
        let mut sched = PolicyScheduler::new(server(), FifoAdmission);
        sched
            .admit(QueryRequest {
                id: 0,
                arrival: Layers::new(5.0),
            })
            .unwrap();
        let err = sched
            .admit(QueryRequest {
                id: 1,
                arrival: Layers::new(1.0),
            })
            .unwrap_err();
        assert_eq!(err.previous, Layers::new(5.0));
        assert_eq!(sched.admitted(), 1);
    }

    #[test]
    fn in_flight_cap_serializes_below_parallelism() {
        // Cap 1 on a parallelism-3 server: each query waits for the
        // previous finish, not just the interval.
        #[derive(Debug)]
        struct CapOne;
        impl AdmissionPolicy for CapOne {
            fn in_flight_cap(&self, _server: &QramServer) -> u32 {
                1
            }
        }
        let s = server();
        let mut sched = PolicyScheduler::new(s, CapOne);
        for r in requests(&[0.0, 0.0, 0.0]) {
            sched.admit(r).unwrap();
        }
        let starts: Vec<f64> = sched.entries().iter().map(|e| e.start.get()).collect();
        assert_eq!(starts, vec![0.0, 29.0, 58.0]);
    }

    #[test]
    fn noise_aware_copies_match_table4_operating_point() {
        // Table 4: ε = 0.16 (Fat-Tree N = 16 at ε₀ = 2·10⁻³); four copies
        // reach 0.16⁴ ≈ 6.6·10⁻⁴.
        let policy = NoiseAwareAdmission::from_infidelity(0.16, 1e-3);
        assert_eq!(policy.copies(), 4);
        assert_eq!(policy.batch_cap(4), 1);
        assert_eq!(policy.batch_cap(12), 3);
        // A loose target needs no distillation at all.
        let loose = NoiseAwareAdmission::from_infidelity(0.16, 0.5);
        assert_eq!(loose.copies(), 1);
    }

    #[test]
    fn noise_aware_caps_at_one_query_for_hopeless_noise() {
        // ε = 1 can never be distilled below a sub-one target: the copy
        // count saturates and the batch cap degenerates to 1.
        let policy = NoiseAwareAdmission::from_infidelity(1.0, 0.1);
        assert_eq!(policy.copies(), MAX_DISTILLATION_COPIES);
        assert_eq!(policy.batch_cap(10), 1);
    }

    #[test]
    fn noise_aware_schedule_is_slower_but_no_wider_than_fifo() {
        let s = server(); // parallelism 3, interval 10, latency 29
        let reqs = requests(&[0.0; 9]);
        let mut fifo = PolicyScheduler::new(s, FifoAdmission);
        let mut tight = PolicyScheduler::new(s, NoiseAwareAdmission::from_infidelity(0.16, 1e-3));
        for &r in &reqs {
            fifo.admit(r).unwrap();
            tight.admit(r).unwrap();
        }
        let fifo = fifo.into_schedule();
        let tight = tight.into_schedule();
        assert!(tight.makespan() > fifo.makespan());
        assert!(tight.total_latency() > fifo.total_latency());
    }

    #[test]
    #[should_panic(expected = "start order")]
    fn core_rejects_non_monotone_commits() {
        let mut core = PipelineCore::new(server());
        let reqs = requests(&[0.0, 0.0]);
        core.commit(reqs[0], Layers::new(10.0));
        core.commit(reqs[1], Layers::new(5.0));
    }
}
