//! The report of one fleet serving run: every served query, the shed
//! list, both ledgers, and the latency rollups folded on read.

use std::collections::BTreeMap;

use qram_metrics::{
    AvailabilityCounters, HistogramFamily, IntegrityCounters, LatencyHistogram, Layers, QueryRate,
    TimingModel,
};
use qram_sched::{QueryRequest, Schedule, TenantId};
use qsim::branch::QueryOutcome;

use crate::fleet::{ShedReason, ShedRequest};

/// One query served by the fleet, in completion order aligned with
/// [`FleetReport::outcomes`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FleetQuery {
    /// The request identifier.
    pub id: usize,
    /// The tenant that issued it.
    pub tenant: TenantId,
    /// Arrival instant at the router.
    pub arrival: Layers,
    /// Dispatch (admission) instant at the replica.
    pub start: Layers,
    /// Completion instant.
    pub finish: Layers,
    /// The replica that served the query.
    pub replica: usize,
    /// The shard within that replica.
    pub shard: usize,
    /// The memory epoch the replica had applied when the query
    /// dispatched.
    pub epoch: u64,
    /// True when the serving replica trailed the fleet epoch at dispatch:
    /// the read observed a superseded memory version. Stale results are
    /// always flagged, never silently reported as fresh.
    pub stale: bool,
    /// Dispatch attempts this query consumed, counting the first: `1` in
    /// fault-free serving, more when crashes or corrupted outcomes forced
    /// retries (hedges do not count against the attempt budget).
    pub attempts: u32,
}

impl FleetQuery {
    /// The latency the requester experienced: `finish − arrival`.
    #[must_use]
    pub fn response_latency(&self) -> Layers {
        self.finish - self.arrival
    }
}

/// The outcome of one fleet serving run.
#[derive(Debug, Clone)]
pub struct FleetReport {
    pub(crate) timing: TimingModel,
    pub(crate) completed: Vec<FleetQuery>,
    pub(crate) outcomes: Vec<QueryOutcome>,
    pub(crate) shed: Vec<ShedRequest>,
    pub(crate) per_replica_dispatches: Vec<u64>,
    pub(crate) stale_served: u64,
    pub(crate) fleet_epoch: u64,
    pub(crate) availability: AvailabilityCounters,
    pub(crate) integrity: IntegrityCounters,
}

impl FleetReport {
    /// Served queries in completion order.
    #[must_use]
    pub fn completed(&self) -> &[FleetQuery] {
        &self.completed
    }

    /// Query outcomes aligned with [`Self::completed`].
    #[must_use]
    pub fn outcomes(&self) -> &[QueryOutcome] {
        &self.outcomes
    }

    /// Requests that were shed (see [`ShedRequest`] for ordering).
    #[must_use]
    pub fn shed(&self) -> &[ShedRequest] {
        &self.shed
    }

    /// Shed requests with the given reason.
    #[must_use]
    pub fn shed_count(&self, reason: ShedReason) -> usize {
        self.shed.iter().filter(|s| s.reason == reason).count()
    }

    /// Shed counts rolled up per reason (reasons that shed nothing are
    /// absent).
    #[must_use]
    pub fn shed_by_reason(&self) -> BTreeMap<ShedReason, usize> {
        let mut rollup = BTreeMap::new();
        for s in &self.shed {
            *rollup.entry(s.reason).or_insert(0) += 1;
        }
        rollup
    }

    /// The fault-tolerance ledger of the run: retries, hedges, failovers,
    /// detected corruptions, crashes, recoveries, and downtime. All zero
    /// for a fault-free run.
    #[must_use]
    pub fn availability(&self) -> &AvailabilityCounters {
        &self.availability
    }

    /// The durability ledger of the run: WAL appends, checkpoints, scrub
    /// cycles, mismatched memory chunks, and repairs. All zero for runs
    /// without disk faults, scrubbing, or an external durable store.
    #[must_use]
    pub fn integrity(&self) -> &IntegrityCounters {
        &self.integrity
    }

    /// Mean time to repair (crash → rejoin), or `None` when no replica
    /// completed a recovery.
    #[must_use]
    pub fn mttr(&self) -> Option<Layers> {
        self.availability.mttr()
    }

    /// Queries dispatched per replica.
    #[must_use]
    pub fn per_replica_dispatches(&self) -> &[u64] {
        &self.per_replica_dispatches
    }

    /// Per-tenant response-latency histograms, tenant-ordered, folded
    /// over [`Self::completed`] on each call.
    #[must_use]
    pub fn per_tenant(&self) -> HistogramFamily<TenantId> {
        self.fold_latencies(|q| q.tenant)
    }

    /// Per-replica response-latency histograms, index-ordered, folded
    /// over [`Self::completed`] on each call.
    #[must_use]
    pub fn per_replica(&self) -> HistogramFamily<usize> {
        self.fold_latencies(|q| q.replica)
    }

    /// The fleet-wide response-latency histogram: [`Self::per_tenant`]
    /// with every tenant merged.
    #[must_use]
    pub fn latency_histogram(&self) -> LatencyHistogram {
        self.per_tenant().merged()
    }

    /// Response latencies keyed by `key`, recorded in completion order —
    /// the order the serving loop completes queries in.
    fn fold_latencies<K: Ord + Copy>(&self, key: impl Fn(&FleetQuery) -> K) -> HistogramFamily<K> {
        let mut family = HistogramFamily::new();
        for q in &self.completed {
            family.record(key(q), q.response_latency());
        }
        family
    }

    /// Queries served against a superseded memory version (and flagged).
    #[must_use]
    pub fn stale_served(&self) -> u64 {
        self.stale_served
    }

    /// The final fleet epoch: total writes committed during the run.
    #[must_use]
    pub fn fleet_epoch(&self) -> u64 {
        self.fleet_epoch
    }

    /// Completion instant of the last served query.
    #[must_use]
    pub fn makespan(&self) -> Layers {
        self.completed
            .iter()
            .map(|c| c.finish)
            .fold(Layers::ZERO, Layers::max)
    }

    /// The observation window: first arrival → last completion.
    /// [`Layers::ZERO`] when nothing completed.
    #[must_use]
    pub fn window(&self) -> Layers {
        let Some(first_arrival) = self.completed.iter().map(|c| c.arrival).reduce(Layers::min)
        else {
            return Layers::ZERO;
        };
        self.makespan() - first_arrival
    }

    /// Aggregate served queries per second under the fleet's timing
    /// model, over the first-arrival → makespan window;
    /// [`QueryRate::ZERO`] when nothing completed (never `NaN`).
    #[must_use]
    pub fn query_rate(&self) -> QueryRate {
        if self.completed.is_empty() {
            return QueryRate::ZERO;
        }
        QueryRate::new(self.completed.len() as f64 / self.timing.layers_to_seconds(self.window()))
    }

    /// The realized timings as a `qram-sched` [`Schedule`], for
    /// comparison against the analytic schedulers: at `R = 1` it is the
    /// online-FIFO schedule of the accepted requests.
    #[must_use]
    pub fn schedule(&self) -> Schedule {
        Schedule::from_entries(
            self.completed
                .iter()
                .map(|c| qram_sched::ScheduledQuery {
                    request: QueryRequest {
                        id: c.id,
                        arrival: c.arrival,
                    },
                    start: c.start,
                    finish: c.finish,
                })
                .collect(),
        )
    }
}
