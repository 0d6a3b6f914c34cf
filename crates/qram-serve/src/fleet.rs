//! The multi-tenant QRAM fleet: a routing tier over `R` serving replicas
//! with epoch-replicated writes.
//!
//! [`QramFleet`] scales the §5 quantum-data-center service *out*: it runs
//! `R` independent [`Replica`] cores — each a full sharded QRAM with its
//! own dispatcher, admission interval, and pipeline slots — behind a
//! front-end router, all inside one discrete-event reactor:
//!
//! ```text
//!        tenant streams (quotas, SLO classes — qram-sched)
//!                     │
//!                     ▼
//!   ┌────────────────────────────────────┐  routing tier (this module)
//!   │ quota / SLO shedding  →  placement │  ConsistentHashPlacement
//!   └────────┬──────────┬──────────┬─────┘  LeastLoadedPlacement
//!            ▼          ▼          ▼
//!       ┌─────────┐┌─────────┐┌─────────┐   R replica cores
//!       │Replica 0││Replica 1││Replica 2│   (dispatch queues, I/K
//!       └────┬────┘└────┬────┘└────┬────┘    spacing, backpressure)
//!            ▼          ▼          ▼
//!       ┌────────────────────────────────┐  epoch-replicated memory
//!       │ ReplicatedMemory: fleet epoch, │  (qram-core): stale reads
//!       │ per-replica applied epochs     │  flagged, never silent
//!       └────────────────────────────────┘
//! ```
//!
//! * **Placement** is pluggable ([`PlacementPolicy`]):
//!   [`ConsistentHashPlacement`] routes by the query's principal address
//!   modulo `R` — the same residue-class interleave `ShardedQram` uses
//!   for shards, giving exact fairness on uniform address sweeps and
//!   stable address → replica affinity (its repeats share one batch);
//!   [`LeastLoadedPlacement`] routes to the replica with the fewest
//!   queued + in-flight queries that still has queue room, so a shedding
//!   replica is never chosen while another can absorb the arrival.
//! * **Multi-tenancy** threads through the [`AdmissionPolicy`] stack's
//!   tenant hooks: a tenant at its outstanding-request quota is shed at
//!   the router ([`ShedReason::QuotaExceeded`]), and a sub-interactive
//!   [`SloClass`] only gets its class's share of a bounded replica queue
//!   ([`ShedReason::SloShed`]).
//! * **Writes** ([`FleetWrite`]) commit at one origin replica, bump the
//!   fleet epoch of a [`ReplicatedMemory`], and reach the other replicas
//!   one replication lag later. Every dispatch is stamped with its
//!   replica's applied epoch: queries that ran against a superseded
//!   memory version are reported with [`FleetQuery::stale`] set — the
//!   consistency contract is *detectability*, not freshness.
//!
//! With `R = 1`, no writes, and the default tenant, the fleet reduces
//! exactly to [`QramService`] — same timings, same outcomes, same
//! shedding (property-tested in `tests/fleet.rs`).
//!
//! **Fault tolerance.** [`QramFleet::serve_with_faults`] runs the same
//! loop under a deterministic [`FaultPlan`]: a per-replica health state
//! machine ([`ReplicaHealth`]) fed by heartbeat misses and
//! completion-latency assertions steers health-aware placement around
//! `Down` replicas; queries lost to a crash or a corrupted outcome are
//! re-dispatched under a capped exponential-backoff [`RetryPolicy`];
//! Interactive tenants may hedge; per-tenant deadlines convert unbounded
//! waiting into [`ShedReason::DeadlineExceeded`]; and an optional
//! [`BrownoutController`] sheds whole SLO classes, cheapest first, when
//! the routable fleet runs hot. Recovering replicas replay the
//! replication log before rejoining, so stale reads stay flagged across
//! failures. The empty plan with the default [`FaultConfig`] is
//! bit-identical to [`QramFleet::serve`]'s fault-free loop (pinned by
//! `tests/fleet_faults.rs` against [`QramFleet::serve_reference`]).
//!
//! [`SloClass`]: qram_sched::SloClass
//! [`QramService`]: crate::QramService
//! [`RetryPolicy`]: qram_sched::RetryPolicy

use std::collections::BTreeMap;
use std::fmt;

use qram_core::store::{frame, CheckpointPolicy, DurableFleet, SimDir, StoreError, SyncSummary};
use qram_core::{
    ExecError, JournalEntry, QramModel, ReplicatedMemory, ReplicatedWrite, ShardedQram,
};
use qram_metrics::{
    AvailabilityCounters, HistogramFamily, IntegrityCounters, LatencyHistogram, Layers, QueryRate,
    TimingModel,
};
use qram_sched::{
    AdmissionPolicy, FifoAdmission, QramServer, QueryRequest, RetryPolicy, Schedule, SloClass,
    TenantId,
};
use qsim::branch::{AddressState, ClassicalMemory, QueryOutcome};

use crate::fault::{
    corrupt_outcome, parity_bit, BrownoutController, Fault, FaultConfig, FaultPlan, ReplicaHealth,
    ReplicationFate,
};
use crate::reactor::{order_key, EventQueue};
use crate::replica::{Replica, ReplicaEvent};

/// A user query arriving at the fleet router.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetRequest {
    /// Caller-chosen request identifier (reported back in the
    /// [`FleetReport`]; need not be unique).
    pub id: usize,
    /// The tenant issuing the query (quota and SLO lookups key on this).
    pub tenant: TenantId,
    /// Arrival instant in virtual layer time.
    pub arrival: Layers,
    /// The queried address superposition.
    pub address: AddressState,
}

/// A memory write submitted to the fleet: committed at `origin` when the
/// reactor reaches `at`, replicated everywhere one replication lag later.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FleetWrite {
    /// Commit instant in virtual layer time.
    pub at: Layers,
    /// The replica the write commits at synchronously.
    pub origin: usize,
    /// The written global cell address.
    pub address: u64,
    /// The written value.
    pub value: u64,
}

/// Configuration of the fleet router.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FleetConfig {
    /// Per-replica bound on requests waiting in the dispatch queues.
    /// Arrivals beyond it (or beyond the tenant's SLO share of it) are
    /// shed. `None` queues without bound and disables SLO shedding.
    pub queue_capacity: Option<usize>,
    /// Delay between a write committing at its origin and every other
    /// replica applying it. Zero replicates within the same instant.
    pub replication_lag: Layers,
}

/// Why the router shed a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ShedReason {
    /// The placed replica's arrival queue was full.
    QueueFull,
    /// The tenant was at its outstanding-request quota.
    QuotaExceeded,
    /// The tenant's SLO class exhausted its share of the replica queue.
    SloShed,
    /// The query's per-tenant deadline passed before it could dispatch.
    DeadlineExceeded,
    /// Every dispatch attempt was lost (crash or corruption) and the
    /// retry backoff budget ran out.
    RetriesExhausted,
    /// The brownout controller was shedding the tenant's SLO class.
    Brownout,
    /// No routable (`Healthy` or `Suspect`) replica could take the query.
    NoHealthyReplica,
}

/// One shed request. Router sheds (quota, queue, SLO, brownout, no
/// healthy replica) append in arrival order; retry-budget and deadline
/// sheds append when they resolve, later in virtual time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShedRequest {
    /// The request identifier.
    pub id: usize,
    /// The tenant that issued it.
    pub tenant: TenantId,
    /// Why the router refused it.
    pub reason: ShedReason,
}

/// The load signal a [`PlacementPolicy`] ranks replicas by.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplicaLoad {
    /// Requests waiting in the replica's dispatch queues.
    pub queued: usize,
    /// Queries in flight in the replica's shard pipelines.
    pub in_flight: u32,
    /// True when the replica's bounded arrival queue still has room.
    pub has_room: bool,
    /// The replica's health as seen by the fleet's failure detector
    /// (always [`ReplicaHealth::Healthy`] in the fault-free loop).
    pub health: ReplicaHealth,
}

impl ReplicaLoad {
    /// Queued plus in-flight: the scalar load of the replica.
    #[must_use]
    pub fn load(&self) -> usize {
        self.queued + self.in_flight as usize
    }

    /// True when the router may place new queries here.
    #[must_use]
    pub fn routable(&self) -> bool {
        self.health.routable()
    }
}

/// Chooses the replica a request is routed to.
pub trait PlacementPolicy {
    /// The replica index for `request` given the current per-replica
    /// loads (`loads.len()` is the fleet size, always ≥ 1). Must return
    /// an index below `loads.len()`.
    fn place(&self, request: &FleetRequest, loads: &[ReplicaLoad]) -> usize;
}

/// Routes by the query's principal (first) basis address modulo the fleet
/// size — the same residue-class interleave [`ShardedQram`] uses across
/// shards, one level up.
///
/// Uniform cyclic address sweeps land exactly evenly (per-replica
/// dispatch counts never differ by more than one), and a given address
/// always revisits the same replica, so its repeats share one batch.
/// When the home replica is not routable (`Down` or `Recovering`), the
/// ring probes linearly to the next routable replica — address affinity
/// degrades gracefully around failures and snaps back on rejoin. With
/// every replica healthy the probe never moves, so the fault-free route
/// is unchanged.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ConsistentHashPlacement;

impl PlacementPolicy for ConsistentHashPlacement {
    fn place(&self, request: &FleetRequest, loads: &[ReplicaLoad]) -> usize {
        let principal = request
            .address
            .iter()
            .next()
            .map_or(0, |&(_, address)| address);
        let home = (principal % loads.len() as u64) as usize;
        (0..loads.len())
            .map(|step| (home + step) % loads.len())
            .find(|&r| loads[r].routable())
            .unwrap_or(home)
    }
}

/// Routes to the replica with the smallest queued + in-flight load that
/// still has queue room (ties break deterministically to the lowest
/// index). `Suspect` replicas rank after healthy ones at equal load, and
/// non-routable replicas are excluded while any routable one exists; only
/// when every routable replica is full does it fall back to the
/// least-loaded routable one — a shedding replica is never chosen while
/// another could absorb the arrival.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LeastLoadedPlacement;

impl PlacementPolicy for LeastLoadedPlacement {
    fn place(&self, _request: &FleetRequest, loads: &[ReplicaLoad]) -> usize {
        let least = |indices: &mut dyn Iterator<Item = usize>| {
            indices.min_by_key(|&r| {
                (
                    loads[r].health == ReplicaHealth::Suspect,
                    loads[r].load(),
                    r,
                )
            })
        };
        least(&mut (0..loads.len()).filter(|&r| loads[r].routable() && loads[r].has_room))
            .or_else(|| least(&mut (0..loads.len()).filter(|&r| loads[r].routable())))
            .or_else(|| least(&mut (0..loads.len())))
            .expect("a fleet has at least one replica")
    }
}

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

/// Reactor events of the fleet, in virtual layer time. Arrivals live in a
/// sorted list merged against the heap (arrival-first at ties), exactly
/// as in the single-replica service.
#[derive(Debug)]
enum Event {
    /// The run's write at this index (in supply order) commits at its
    /// origin replica.
    Write(usize),
    /// The log prefix up to `epoch` reaches every replica.
    Replicate { epoch: u64 },
    /// The `index`-th query dispatched at `replica` leaves its pipeline.
    Completion { replica: usize, index: usize },
    /// Wake `replica`'s dispatcher at an admission-interval boundary.
    Poll { replica: usize },
    /// An injected [`Fault::Crash`] fires at `replica`.
    Crash { replica: usize },
    /// An injected [`Fault::Recover`] restarts `replica`.
    Recover { replica: usize },
    /// `replica` finished replaying the replication log and rejoins.
    RejoinDone { replica: usize },
    /// An injected [`Fault::StallShard`] window opens.
    StallStart { replica: usize, shard: usize },
    /// An injected [`Fault::StallShard`] window closes.
    StallEnd { replica: usize, shard: usize },
    /// The health monitor samples heartbeats and brownout occupancy.
    MonitorTick,
    /// The anti-entropy scrubber audits the WAL and compares replica
    /// memories with the durable chain.
    ScrubTick,
    /// The open commit group's flush deadline: land it even if it never
    /// fills. `seq` is the durability tier's sync count when the group
    /// opened — a later sync makes the firing stale.
    WalFlush { seq: u64 },
    /// An injected [`Fault::DiskCorrupt`] flips a bit in one replica
    /// memory cell, bypassing the replication log.
    DiskCorrupt { replica: usize, cell: u64 },
    /// A lost query's backoff elapsed: re-place and re-dispatch it.
    Retry { qid: usize },
    /// An Interactive query may deserve a duplicate dispatch.
    HedgeCheck { qid: usize },
    /// A queued copy of query `qid` expired at its deadline.
    Expired { qid: usize },
}

/// The outcome of one fleet serving run.
#[derive(Debug, Clone)]
pub struct FleetReport {
    timing: TimingModel,
    completed: Vec<FleetQuery>,
    outcomes: Vec<QueryOutcome>,
    shed: Vec<ShedRequest>,
    per_replica_dispatches: Vec<u64>,
    stale_served: u64,
    fleet_epoch: u64,
    availability: AvailabilityCounters,
    integrity: IntegrityCounters,
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

    /// A response-latency quantile for one tenant, in the timing model's
    /// wall-clock microseconds, read from [`Self::per_tenant`].
    ///
    /// # Panics
    ///
    /// Panics if the tenant completed nothing or `q` is outside `[0, 1]`.
    #[must_use]
    pub fn tenant_latency_micros(&self, tenant: TenantId, q: f64) -> f64 {
        let per_tenant = self.per_tenant();
        let histogram = per_tenant
            .get(tenant)
            .expect("tenant has completed queries");
        self.timing.layers_to_micros(histogram.quantile(q))
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

    /// The realized timings as a `qram-sched` [`Schedule`], for the
    /// `R = 1` equivalence pin against [`QramService`].
    ///
    /// [`QramService`]: crate::QramService
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

/// A multi-tenant fleet of `R` QRAM serving replicas behind a routing
/// tier, with epoch-replicated writes.
///
/// # Examples
///
/// ```
/// use qram_core::ShardedQram;
/// use qram_metrics::{Capacity, Layers, TimingModel};
/// use qram_sched::TenantId;
/// use qram_serve::{FleetRequest, QramFleet};
/// use qsim::branch::{AddressState, ClassicalMemory};
///
/// let qram = ShardedQram::fat_tree(Capacity::new(16)?, 2);
/// let mut fleet = QramFleet::fifo(qram, 2, TimingModel::paper_default());
/// let memory = ClassicalMemory::from_words(1, &[1; 16])?;
/// let requests: Vec<FleetRequest> = (0..8)
///     .map(|id| FleetRequest {
///         id,
///         tenant: TenantId::DEFAULT,
///         arrival: Layers::ZERO,
///         address: AddressState::classical(4, id as u64).unwrap(),
///     })
///     .collect();
/// let report = fleet.serve(&memory, requests, Vec::new())?;
/// assert_eq!(report.completed().len(), 8);
/// // The residue-class ring splits a uniform sweep exactly evenly.
/// assert_eq!(report.per_replica_dispatches(), &[4, 4]);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct QramFleet<
    M: QramModel + Clone,
    P: AdmissionPolicy = FifoAdmission,
    L: PlacementPolicy = ConsistentHashPlacement,
> {
    backends: Vec<ShardedQram<M>>,
    timing: TimingModel,
    policy: P,
    placement: L,
    config: FleetConfig,
}

impl<M: QramModel + Clone> QramFleet<M, FifoAdmission, ConsistentHashPlacement> {
    /// A FIFO fleet of `replicas` copies of `qram` under consistent-hash
    /// placement, unbounded queues, and instant replication.
    ///
    /// # Panics
    ///
    /// Panics if `replicas` is zero.
    #[must_use]
    pub fn fifo(qram: ShardedQram<M>, replicas: usize, timing: TimingModel) -> Self {
        QramFleet::new(
            qram,
            replicas,
            timing,
            FifoAdmission,
            ConsistentHashPlacement,
            FleetConfig::default(),
        )
    }
}

impl<M: QramModel + Clone, P: AdmissionPolicy, L: PlacementPolicy> QramFleet<M, P, L> {
    /// A fleet of `replicas` copies of `qram` with explicit admission
    /// policy, placement policy, and configuration.
    ///
    /// # Panics
    ///
    /// Panics if `replicas` is zero.
    #[must_use]
    pub fn new(
        qram: ShardedQram<M>,
        replicas: usize,
        timing: TimingModel,
        policy: P,
        placement: L,
        config: FleetConfig,
    ) -> Self {
        assert!(replicas >= 1, "a fleet needs at least one replica");
        QramFleet {
            backends: vec![qram; replicas],
            timing,
            policy,
            placement,
            config,
        }
    }

    /// The fleet size `R`.
    #[must_use]
    pub fn num_replicas(&self) -> usize {
        self.backends.len()
    }

    /// The backend serving replica `replica`.
    #[must_use]
    pub fn backend(&self, replica: usize) -> &ShardedQram<M> {
        &self.backends[replica]
    }

    /// The pipelined server equivalent to each replica.
    #[must_use]
    pub fn equivalent_server(&self) -> QramServer {
        QramServer::for_model(&self.backends[0], &self.timing)
    }

    /// Serves a batch of requests (and write commits) to completion:
    /// routes every arrival through quota / SLO shedding and the
    /// placement policy onto a replica core, interleaves write commits
    /// and replication with dispatching in one discrete-event loop, then
    /// executes each replica's dispatched queries in one batch, each
    /// against the final image of the memory version it observed.
    ///
    /// Requests and writes may be supplied in any order (the reactor
    /// orders them by instant; same-instant arrivals precede write
    /// commits and completions, and writes among themselves keep supply
    /// order).
    ///
    /// # Errors
    ///
    /// Returns an error if query execution fails.
    ///
    /// # Panics
    ///
    /// Panics if a request's address width mismatches the QRAM capacity,
    /// a write's origin replica or cell address is out of range, or the
    /// placement policy returns an out-of-range replica.
    pub fn serve(
        &mut self,
        memory: &ClassicalMemory,
        requests: impl IntoIterator<Item = FleetRequest>,
        writes: impl IntoIterator<Item = FleetWrite>,
    ) -> Result<FleetReport, ExecError> {
        self.serve_with_faults(
            memory,
            requests,
            writes,
            &FaultPlan::none(),
            &FaultConfig::default(),
        )
    }

    /// The fault-free serving loop exactly as it stood before fault
    /// injection existed, kept verbatim as the bit-equality oracle:
    /// `tests/fleet_faults.rs` pins [`QramFleet::serve`] (which routes
    /// through [`QramFleet::serve_with_faults`] with an empty plan)
    /// against this loop — same schedules, same outcomes — for
    /// `R ∈ {1, 2, 4}`. It clones a memory snapshot per (replica, epoch)
    /// and executes one batch per epoch group, so with writes the pin is
    /// also a differential test of `serve`'s one journal sweep per
    /// replica. Not part of the supported API.
    ///
    /// # Errors
    ///
    /// Returns an error if query execution fails.
    #[doc(hidden)]
    pub fn serve_reference(
        &mut self,
        memory: &ClassicalMemory,
        requests: impl IntoIterator<Item = FleetRequest>,
        writes: impl IntoIterator<Item = FleetWrite>,
    ) -> Result<FleetReport, ExecError> {
        let num_replicas = self.backends.len();
        let server = self.equivalent_server();
        let aggregate_cap = self
            .policy
            .in_flight_cap(&server)
            .clamp(1, server.parallelism());
        let address_width = self.backends[0].capacity().address_width();
        let mut replicas: Vec<Replica> = (0..num_replicas)
            .map(|_| {
                Replica::new(
                    self.backends[0].num_shards() as usize,
                    self.backends[0].shard_parallelism(),
                    server.interval(),
                    server.latency(),
                    aggregate_cap,
                    self.config.queue_capacity,
                )
            })
            .collect();

        // Replicated memory + one snapshot per (replica, applied epoch):
        // a dispatched query executes against the exact memory version its
        // replica had applied at dispatch time.
        let mut replicated = ReplicatedMemory::new(memory.clone(), num_replicas);
        let mut snapshots: Vec<BTreeMap<u64, ClassicalMemory>> = (0..num_replicas)
            .map(|_| BTreeMap::from([(0, memory.clone())]))
            .collect();
        // Per-dispatch annotations, indexed [replica][dispatch index].
        let mut dispatch_epochs: Vec<Vec<u64>> = vec![Vec::new(); num_replicas];
        let mut dispatch_stale: Vec<Vec<bool>> = vec![Vec::new(); num_replicas];

        let mut arrivals: Vec<FleetRequest> = requests
            .into_iter()
            .inspect(|r| {
                assert_eq!(
                    r.address.address_width(),
                    address_width,
                    "request address width must match QRAM capacity"
                );
            })
            .collect();
        arrivals.sort_by(|a, b| {
            a.arrival
                .get()
                .partial_cmp(&b.arrival.get())
                .expect("event times are finite")
        });
        let total_requests = arrivals.len();
        let mut arrivals = arrivals.into_iter().peekable();

        let writes: Vec<FleetWrite> = writes.into_iter().collect();
        let mut events: EventQueue<Event> = EventQueue::new();
        for (i, write) in writes.iter().enumerate() {
            assert!(
                write.origin < num_replicas,
                "write origin replica {} out of range (R = {num_replicas})",
                write.origin
            );
            events.push(write.at, Event::Write(i));
        }

        let mut completed: Vec<FleetQuery> = Vec::with_capacity(total_requests);
        let mut shed: Vec<ShedRequest> = Vec::new();
        let mut outstanding: BTreeMap<TenantId, u32> = BTreeMap::new();
        let mut stale_served = 0u64;

        loop {
            let arrival_is_next = match (arrivals.peek(), events.peek_time()) {
                (Some(request), Some(next)) => request.arrival <= next,
                (Some(_), None) => true,
                (None, _) => false,
            };
            // Which replica's dispatcher to pump after handling the event
            // (writes and replication never unblock a dispatcher).
            let mut pump: Option<usize> = None;
            let now;
            if arrival_is_next {
                let request = arrivals.next().expect("peeked arrival exists");
                now = request.arrival;
                let tenant = request.tenant;
                if self
                    .policy
                    .tenant_quota(tenant)
                    .is_some_and(|quota| outstanding.get(&tenant).copied().unwrap_or(0) >= quota)
                {
                    shed.push(ShedRequest {
                        id: request.id,
                        tenant,
                        reason: ShedReason::QuotaExceeded,
                    });
                } else {
                    let loads: Vec<ReplicaLoad> = replicas
                        .iter()
                        .map(|r| ReplicaLoad {
                            queued: r.queued(),
                            in_flight: r.in_flight(),
                            has_room: r.has_queue_room(),
                            health: ReplicaHealth::Healthy,
                        })
                        .collect();
                    let target = self.placement.place(&request, &loads);
                    assert!(
                        target < num_replicas,
                        "placement returned replica {target} of {num_replicas}"
                    );
                    let slo_bound = self
                        .config
                        .queue_capacity
                        .map(|cap| self.policy.tenant_slo(tenant).queue_bound(cap));
                    if slo_bound.is_some_and(|bound| replicas[target].queued() >= bound) {
                        let reason = if replicas[target].has_queue_room() {
                            ShedReason::SloShed
                        } else {
                            ShedReason::QueueFull
                        };
                        shed.push(ShedRequest {
                            id: request.id,
                            tenant,
                            reason,
                        });
                    } else {
                        let offered = replicas[target].offer(
                            request.id,
                            request.id,
                            tenant,
                            request.arrival,
                            None,
                            request.address,
                        );
                        debug_assert!(offered, "the SLO bound is at most the queue bound");
                        *outstanding.entry(tenant).or_insert(0) += 1;
                        pump = Some(target);
                    }
                }
            } else if let Some((at, event)) = events.pop() {
                now = at;
                match event {
                    Event::Write(i) => {
                        let write = writes[i];
                        let epoch = replicated.write_at(write.origin, write.address, write.value);
                        let applied = replicated.applied_epoch(write.origin);
                        snapshots[write.origin]
                            .insert(applied, replicated.memory(write.origin).clone());
                        if num_replicas > 1 {
                            events.push(
                                now + self.config.replication_lag,
                                Event::Replicate { epoch },
                            );
                        }
                    }
                    Event::Replicate { epoch } => {
                        for (r, snaps) in snapshots.iter_mut().enumerate() {
                            if replicated.catch_up_to(r, epoch) > 0 {
                                snaps.insert(
                                    replicated.applied_epoch(r),
                                    replicated.memory(r).clone(),
                                );
                            }
                        }
                    }
                    Event::Completion { replica, index } => {
                        let tenant = replicas[replica].tenant_of(index);
                        let record = replicas[replica].complete(index, now);
                        let query = FleetQuery {
                            id: record.id,
                            tenant,
                            arrival: record.arrival,
                            start: record.start,
                            finish: record.finish,
                            replica,
                            shard: record.shard,
                            epoch: dispatch_epochs[replica][index],
                            stale: dispatch_stale[replica][index],
                            attempts: 1,
                        };
                        stale_served += u64::from(query.stale);
                        *outstanding.get_mut(&tenant).expect("tenant accepted") -= 1;
                        completed.push(query);
                        pump = Some(replica);
                    }
                    Event::Poll { replica } => {
                        replicas[replica].ack_poll(now);
                        pump = Some(replica);
                    }
                    Event::Crash { .. }
                    | Event::Recover { .. }
                    | Event::RejoinDone { .. }
                    | Event::StallStart { .. }
                    | Event::StallEnd { .. }
                    | Event::MonitorTick
                    | Event::ScrubTick
                    | Event::WalFlush { .. }
                    | Event::DiskCorrupt { .. }
                    | Event::Retry { .. }
                    | Event::HedgeCheck { .. }
                    | Event::Expired { .. } => {
                        unreachable!("the reference loop schedules no fault events")
                    }
                }
            } else {
                break;
            }
            if let Some(target) = pump {
                let range = replicas[target].pump(now, &mut self.policy, |time, ev| {
                    events.push(
                        time,
                        match ev {
                            ReplicaEvent::Completion { index } => Event::Completion {
                                replica: target,
                                index,
                            },
                            ReplicaEvent::Poll => Event::Poll { replica: target },
                            ReplicaEvent::Expired { .. } => {
                                unreachable!("the reference loop offers no deadlines")
                            }
                        },
                    );
                });
                // Stamp each new dispatch with the memory version its
                // replica observes and whether that version is stale.
                for _ in range {
                    dispatch_epochs[target].push(replicated.applied_epoch(target));
                    dispatch_stale[target].push(replicated.is_stale(target));
                }
            }
        }

        let per_replica_dispatches: Vec<u64> =
            replicas.iter().map(|r| r.dispatch_count() as u64).collect();
        debug_assert!(
            replicas.iter().all(|r| r.queued() == 0),
            "every accepted request dispatches"
        );
        debug_assert!(outstanding.values().all(|&n| n == 0));

        // Execute per replica: consecutive dispatches that observed the
        // same applied epoch form one batch against that version's
        // snapshot, flowing through the backend's compiled-plan hot path.
        let mut outcomes_by_replica: Vec<Vec<QueryOutcome>> = Vec::with_capacity(num_replicas);
        for (r, replica) in replicas.into_iter().enumerate() {
            let addresses = replica.into_addresses();
            let epochs = &dispatch_epochs[r];
            let mut outcomes: Vec<QueryOutcome> = Vec::with_capacity(addresses.len());
            let mut lo = 0;
            while lo < addresses.len() {
                let mut hi = lo + 1;
                while hi < addresses.len() && epochs[hi] == epochs[lo] {
                    hi += 1;
                }
                let snapshot = &snapshots[r][&epochs[lo]];
                outcomes.extend(self.backends[r].execute_queries(
                    snapshot,
                    &addresses[lo..hi],
                    &[],
                )?);
                lo = hi;
            }
            outcomes_by_replica.push(outcomes);
        }
        // Align outcomes with the completion-ordered report: each replica
        // completes its dispatches in order, so one cursor per replica
        // walks its outcome list front to back.
        let mut cursors = vec![0usize; num_replicas];
        let outcomes: Vec<QueryOutcome> = completed
            .iter()
            .map(|c| {
                let outcome = outcomes_by_replica[c.replica][cursors[c.replica]].clone();
                cursors[c.replica] += 1;
                outcome
            })
            .collect();

        Ok(FleetReport {
            timing: self.timing,
            completed,
            outcomes,
            shed,
            per_replica_dispatches,
            stale_served,
            fleet_epoch: replicated.fleet_epoch(),
            availability: AvailabilityCounters::default(),
            integrity: IntegrityCounters::default(),
        })
    }

    /// Serves a batch of requests under a deterministic [`FaultPlan`]:
    /// the fault-free loop of [`QramFleet::serve`] extended with a
    /// per-replica health state machine, crash failover, capped
    /// exponential-backoff retries, optional hedged dispatch for
    /// Interactive tenants, per-tenant deadlines, and brownout shedding
    /// (see the module docs). Every admitted query ends exactly once in
    /// [`FleetReport::completed`] or [`FleetReport::shed`] — faults lose
    /// dispatch *attempts*, never queries.
    ///
    /// With the empty plan and the default [`FaultConfig`] this is
    /// bit-identical to the fault-free loop: no monitor or fault events
    /// enter the reactor, so the event heap pops in the same order and
    /// the schedules and outcomes match [`QramFleet::serve_reference`]
    /// exactly.
    ///
    /// # Errors
    ///
    /// Returns an error if query execution fails.
    ///
    /// # Panics
    ///
    /// Panics on the same conditions as [`QramFleet::serve`], if the plan
    /// names an out-of-range replica or shard, if monitoring is active
    /// (non-empty plan or a brownout controller) with a non-positive
    /// `monitor_interval`, or if scrubbing is on with a non-positive
    /// `scrub_interval` or a zero `scrub_chunk_cells` (checked before
    /// the run starts).
    pub fn serve_with_faults(
        &mut self,
        memory: &ClassicalMemory,
        requests: impl IntoIterator<Item = FleetRequest>,
        writes: impl IntoIterator<Item = FleetWrite>,
        plan: &FaultPlan,
        fault_config: &FaultConfig,
    ) -> Result<FleetReport, ExecError> {
        match self.serve_faulty(memory, requests, writes, plan, fault_config, None) {
            Ok(report) => Ok(report),
            Err(DurableServeError::Exec(e)) => Err(e),
            // Without an external store the durability tier (when disk
            // faults or scrubbing activate it) runs on an in-memory
            // `SimDir`, which cannot fail I/O, and appends are contiguous
            // by construction.
            Err(DurableServeError::Store(e)) => {
                unreachable!("the ephemeral in-memory store cannot fail: {e}")
            }
        }
    }

    /// [`QramFleet::serve_with_faults`] backed by a crash-consistent
    /// [`DurableFleet`] store: every committed write is appended to the
    /// store's write-ahead log (and checkpointed per its policy) before
    /// replication fans out, the Recovering → rejoin flow replays a
    /// restarted replica from the durable chain instead of the in-memory
    /// log, and [`FaultConfig::scrub_interval`] schedules anti-entropy
    /// scrubs that audit the WAL and compare replica memories with the
    /// chain.
    ///
    /// The store's durable chain must end at `memory` (a fresh
    /// [`DurableFleet::create`] from the same image, or a recovered store
    /// whose shadow equals it); this run's fleet epoch `e` is persisted
    /// at store epoch `durable_epoch + e`.
    ///
    /// # Errors
    ///
    /// Returns [`DurableServeError::Exec`] if query execution fails and
    /// [`DurableServeError::Store`] if the store's directory fails.
    ///
    /// # Panics
    ///
    /// As [`QramFleet::serve_with_faults`].
    pub fn serve_durable(
        &mut self,
        memory: &ClassicalMemory,
        requests: impl IntoIterator<Item = FleetRequest>,
        writes: impl IntoIterator<Item = FleetWrite>,
        plan: &FaultPlan,
        fault_config: &FaultConfig,
        store: &mut DurableFleet,
    ) -> Result<FleetReport, DurableServeError> {
        self.serve_faulty(memory, requests, writes, plan, fault_config, Some(store))
    }

    #[allow(clippy::too_many_lines)]
    fn serve_faulty(
        &mut self,
        memory: &ClassicalMemory,
        requests: impl IntoIterator<Item = FleetRequest>,
        writes: impl IntoIterator<Item = FleetWrite>,
        plan: &FaultPlan,
        fault_config: &FaultConfig,
        store: Option<&mut DurableFleet>,
    ) -> Result<FleetReport, DurableServeError> {
        let num_replicas = self.backends.len();
        let num_shards = self.backends[0].num_shards() as usize;
        let server = self.equivalent_server();
        let aggregate_cap = self
            .policy
            .in_flight_cap(&server)
            .clamp(1, server.parallelism());
        let latency = server.latency();
        let address_width = self.backends[0].capacity().address_width();
        let mut replicas: Vec<Replica> = (0..num_replicas)
            .map(|_| {
                Replica::new(
                    num_shards,
                    self.backends[0].shard_parallelism(),
                    server.interval(),
                    latency,
                    aggregate_cap,
                    self.config.queue_capacity,
                )
            })
            .collect();

        // Each replica's journal records the cell changes it applies; a
        // dispatch's stamped epoch selects its prefix at execution.
        let mut replicated = ReplicatedMemory::new(memory.clone(), num_replicas);
        // One record per dispatch, indexed [replica][dispatch index].
        let mut dispatches: Vec<Vec<Dispatch>> = vec![Vec::new(); num_replicas];

        let mut arrivals: Vec<FleetRequest> = requests
            .into_iter()
            .inspect(|r| {
                assert_eq!(
                    r.address.address_width(),
                    address_width,
                    "request address width must match QRAM capacity"
                );
            })
            .collect();
        arrivals.sort_by_key(|r| order_key(r.arrival.get()));
        let total_requests = arrivals.len();
        let mut arrivals = arrivals.into_iter().peekable();

        let writes: Vec<FleetWrite> = writes.into_iter().collect();
        let mut events: EventQueue<Event> = EventQueue::new();
        for (i, write) in writes.iter().enumerate() {
            assert!(
                write.origin < num_replicas,
                "write origin replica {} out of range (R = {num_replicas})",
                write.origin
            );
            events.push(write.at, Event::Write(i));
        }

        // Fault-tolerance state. Nothing below schedules an event unless
        // the plan is non-empty or a brownout controller is configured —
        // the empty plan keeps the reactor's event sequence (and so its
        // FIFO tie-breaking) identical to the fault-free loop.
        let retry = &fault_config.retry;
        let mut brownout: Option<BrownoutController> =
            fault_config.brownout.map(BrownoutController::new);
        let monitoring =
            !plan.is_empty() || brownout.is_some() || fault_config.adaptive_group_commit.is_some();
        let has_slow = plan.has_slow_faults();
        let keep_address = !plan.is_empty() || fault_config.hedge_delay.is_some();
        let replica_slots = aggregate_cap as usize
            + self
                .config
                .queue_capacity
                .unwrap_or(4 * aggregate_cap as usize);
        let mut states: Vec<QueryState> = Vec::with_capacity(total_requests);
        let mut health = vec![ReplicaHealth::Healthy; num_replicas];
        let mut alive = vec![true; num_replicas];
        let mut misses = vec![0u32; num_replicas];
        let mut down_since: Vec<Option<Layers>> = vec![None; num_replicas];
        let mut rejoin_at: Vec<Option<f64>> = vec![None; num_replicas];
        // Queries stranded on a crashed replica, re-dispatched when the
        // detector declares it Down (or it recovers, whichever first).
        let mut pending_failover: Vec<Vec<usize>> = vec![Vec::new(); num_replicas];
        let mut counters = AvailabilityCounters::default();
        let mut completed_dispatch: Vec<(usize, usize)> = Vec::with_capacity(total_requests);
        let mut corrupted_served: Vec<(usize, usize)> = Vec::new();
        let mut open = 0usize;
        // The placement snapshot, refilled before every placement.
        let mut loads: Vec<ReplicaLoad> = Vec::with_capacity(num_replicas);

        // The durability tier. An external store (serve_durable) always
        // activates it; otherwise disk faults or a scrub interval spin up
        // an ephemeral in-memory store so the faults have a durable chain
        // to lie against and be audited by. Like monitoring, a run that
        // activates none of this schedules no events and touches no disk,
        // keeping the empty-plan reactor bit-identical to the fault-free
        // loop.
        let total_cells = memory.cells().len() as u64;
        let mut ephemeral: Option<DurableFleet> = None;
        let mut durability: Option<Durability<'_>> = match store {
            Some(s) => {
                debug_assert_eq!(
                    s.shadow().cells(),
                    memory.cells(),
                    "the durable chain must end at the run's starting memory"
                );
                s.set_group_commit(fault_config.group_commit);
                Some(Durability::new(s))
            }
            None if plan.has_disk_faults()
                || fault_config.scrub_interval.is_some()
                || fault_config.adaptive_group_commit.is_some() =>
            {
                let fresh = DurableFleet::create_with(
                    Box::new(SimDir::new()),
                    memory,
                    CheckpointPolicy::never(),
                )?
                .with_group_commit(fault_config.group_commit);
                Some(Durability::new(ephemeral.insert(fresh)))
            }
            None => None,
        };
        // Fleet epochs whose Replicate fan-out is already scheduled.
        // With a durability tier, replication only fans out from
        // *synced* epochs (ack-at-sync); the watermark is monotone so a
        // lying-disk rollback and re-append never duplicates an event.
        let mut repl_scheduled = 0u64;

        if monitoring {
            assert!(
                fault_config.monitor_interval.get() > 0.0,
                "monitoring needs a positive monitor interval"
            );
            for fault in plan.faults() {
                match *fault {
                    Fault::Crash { replica, at } => {
                        assert!(replica < num_replicas, "crash names replica {replica}");
                        events.push(at, Event::Crash { replica });
                    }
                    Fault::Recover { replica, at } => {
                        assert!(replica < num_replicas, "recover names replica {replica}");
                        events.push(at, Event::Recover { replica });
                    }
                    Fault::StallShard {
                        replica,
                        shard,
                        from,
                        until,
                    } => {
                        assert!(replica < num_replicas, "stall names replica {replica}");
                        assert!(shard < num_shards, "stall names shard {shard}");
                        events.push(from, Event::StallStart { replica, shard });
                        events.push(until, Event::StallEnd { replica, shard });
                    }
                    Fault::SlowReplica { replica, .. } | Fault::CorruptOutcome { replica, .. } => {
                        assert!(replica < num_replicas, "fault names replica {replica}");
                    }
                    Fault::DiskCorrupt { replica, at, cell } => {
                        assert!(replica < num_replicas, "corruption names replica {replica}");
                        events.push(at, Event::DiskCorrupt { replica, cell });
                    }
                    Fault::DropReplication { .. }
                    | Fault::DelayReplication { .. }
                    | Fault::TornWrite { .. } => {}
                }
            }
            events.push(fault_config.monitor_interval, Event::MonitorTick);
        }
        if durability.is_some() {
            if let Some(interval) = fault_config.scrub_interval {
                assert!(
                    interval.get() > 0.0,
                    "scrubbing needs a positive scrub interval"
                );
                assert!(
                    fault_config.scrub_chunk_cells > 0,
                    "scrub chunks must hold at least one cell"
                );
                events.push(interval, Event::ScrubTick);
            }
        }

        let mut completed: Vec<FleetQuery> = Vec::with_capacity(total_requests);
        let mut shed: Vec<ShedRequest> = Vec::new();
        let mut outstanding: BTreeMap<TenantId, u32> = BTreeMap::new();
        let mut stale_served = 0u64;

        loop {
            let arrival_is_next = match (arrivals.peek(), events.peek_time()) {
                (Some(request), Some(next)) => request.arrival <= next,
                (Some(_), None) => true,
                (None, _) => false,
            };
            let mut pump: Option<usize> = None;
            let now;
            if arrival_is_next {
                let request = arrivals.next().expect("peeked arrival exists");
                now = request.arrival;
                let tenant = request.tenant;
                if brownout
                    .as_ref()
                    .is_some_and(|controller| controller.sheds(self.policy.tenant_slo(tenant)))
                {
                    shed.push(ShedRequest {
                        id: request.id,
                        tenant,
                        reason: ShedReason::Brownout,
                    });
                } else if self
                    .policy
                    .tenant_quota(tenant)
                    .is_some_and(|quota| outstanding.get(&tenant).copied().unwrap_or(0) >= quota)
                {
                    shed.push(ShedRequest {
                        id: request.id,
                        tenant,
                        reason: ShedReason::QuotaExceeded,
                    });
                } else {
                    snapshot_loads(&replicas, &health, &mut loads);
                    let target = self.placement.place(&request, &loads);
                    assert!(
                        target < num_replicas,
                        "placement returned replica {target} of {num_replicas}"
                    );
                    let slo_bound = self
                        .config
                        .queue_capacity
                        .map(|cap| self.policy.tenant_slo(tenant).queue_bound(cap));
                    if !loads[target].routable() {
                        shed.push(ShedRequest {
                            id: request.id,
                            tenant,
                            reason: ShedReason::NoHealthyReplica,
                        });
                    } else if slo_bound.is_some_and(|bound| replicas[target].queued() >= bound) {
                        let reason = if replicas[target].has_queue_room() {
                            ShedReason::SloShed
                        } else {
                            ShedReason::QueueFull
                        };
                        shed.push(ShedRequest {
                            id: request.id,
                            tenant,
                            reason,
                        });
                    } else {
                        let qid = states.len();
                        let deadline = self
                            .policy
                            .tenant_deadline(tenant)
                            .map(|budget| request.arrival + budget);
                        let address = keep_address.then(|| request.address.clone());
                        let offered = replicas[target].offer(
                            request.id,
                            qid,
                            tenant,
                            request.arrival,
                            deadline,
                            request.address,
                        );
                        debug_assert!(offered, "the SLO bound is at most the queue bound");
                        states.push(QueryState {
                            id: request.id,
                            tenant,
                            arrival: request.arrival,
                            deadline,
                            address,
                            attempts: 1,
                            outstanding: 1,
                            done: false,
                            last_replica: target,
                            hedged: false,
                            hedge_replica: None,
                        });
                        *outstanding.entry(tenant).or_insert(0) += 1;
                        open += 1;
                        if let Some(delay) = fault_config.hedge_delay {
                            if self.policy.tenant_slo(tenant) == SloClass::Interactive {
                                events.push(request.arrival + delay, Event::HedgeCheck { qid });
                            }
                        }
                        pump = Some(target);
                    }
                }
            } else if let Some((at, event)) = events.pop() {
                now = at;
                match event {
                    Event::Write(i) => {
                        let write = writes[i];
                        // A write addressed at a dead origin commits at
                        // the first live replica instead: writes survive
                        // crashes even when the client's affinity target
                        // is down.
                        let origin = if alive[write.origin] {
                            write.origin
                        } else {
                            (0..num_replicas)
                                .find(|&r| alive[r])
                                .unwrap_or(write.origin)
                        };
                        let epoch = replicated.write_at(origin, write.address, write.value);
                        // Ack-at-sync: with a durability tier, replication
                        // (and with it the stale-read watermark) only fans
                        // out from synced epochs.
                        let mut replicate_to = durability.is_none().then_some(epoch);
                        if let Some(d) = durability.as_mut() {
                            // Log the write durably before replication
                            // fans out: the commit-group sync is the
                            // acknowledgment point (per-record policy
                            // syncs right here). A planned torn write
                            // arms the lying-disk hook — the append
                            // reports success, the platter keeps only a
                            // partial record, and a later scrub's rescan
                            // finds and repairs the damage.
                            let w = ReplicatedWrite {
                                epoch,
                                origin,
                                address: write.address,
                                value: write.value,
                            };
                            let summary = d.append(&w, plan.tears(epoch))?;
                            if summary.synced_records > 0 {
                                replicate_to = Some(d.synced_fleet_epoch());
                            } else if d.store.pending_records() == 1 {
                                // This write opened a fresh commit
                                // group: arm its flush deadline so a
                                // lull in writes cannot hold the
                                // acknowledgment hostage.
                                let delay = d.store.group_commit().max_delay;
                                if delay > 0.0 {
                                    events.push(
                                        now + Layers::new(delay),
                                        Event::WalFlush { seq: d.syncs },
                                    );
                                }
                            }
                        }
                        if let Some(to) = replicate_to {
                            schedule_replication(
                                &mut events,
                                plan,
                                self.config.replication_lag,
                                now,
                                num_replicas,
                                &mut repl_scheduled,
                                to,
                            );
                        }
                    }
                    Event::Replicate { epoch } => {
                        // Dead replicas miss the catch-up; recovery replay
                        // carries them past it before they rejoin.
                        for r in (0..num_replicas).filter(|&r| alive[r]) {
                            replicated.catch_up_to(r, epoch);
                        }
                    }
                    Event::Completion { replica, index } => {
                        let dispatch = dispatches[replica][index];
                        if dispatch.handled {
                            // A crash already failed this dispatch over.
                        } else {
                            dispatches[replica][index].handled = true;
                            let qid = dispatch.qid;
                            let tenant = replicas[replica].tenant_of(index);
                            let record = replicas[replica].complete(index, now);
                            if monitoring
                                && health[replica] == ReplicaHealth::Healthy
                                && (record.finish - record.start).get()
                                    > latency.get() * fault_config.latency_margin
                            {
                                // Completion-latency assertion: a replica
                                // serving far over nominal is suspect.
                                health[replica] = ReplicaHealth::Suspect;
                            }
                            if plan.corrupts(replica, index) {
                                corrupted_served.push((replica, index));
                                lose_attempt(
                                    qid,
                                    now,
                                    retry,
                                    &mut states,
                                    &mut events,
                                    &mut shed,
                                    &mut outstanding,
                                    &mut counters,
                                    &mut open,
                                );
                            } else if states[qid].done {
                                // The hedge's other copy already won.
                                states[qid].outstanding = states[qid].outstanding.saturating_sub(1);
                            } else {
                                let state = &mut states[qid];
                                state.done = true;
                                state.outstanding = state.outstanding.saturating_sub(1);
                                if state.hedge_replica == Some(replica) {
                                    counters.hedge_wins += 1;
                                }
                                let query = FleetQuery {
                                    id: state.id,
                                    tenant,
                                    arrival: state.arrival,
                                    start: record.start,
                                    finish: record.finish,
                                    replica,
                                    shard: record.shard,
                                    epoch: dispatch.epoch,
                                    stale: dispatch.stale,
                                    attempts: state.attempts,
                                };
                                stale_served += u64::from(query.stale);
                                *outstanding.get_mut(&tenant).expect("tenant accepted") -= 1;
                                open -= 1;
                                completed.push(query);
                                completed_dispatch.push((replica, index));
                            }
                            pump = Some(replica);
                        }
                    }
                    Event::Poll { replica } => {
                        if alive[replica] {
                            replicas[replica].ack_poll(now);
                            pump = Some(replica);
                        }
                    }
                    Event::Crash { replica } => {
                        if alive[replica] {
                            alive[replica] = false;
                            counters.crashes += 1;
                            down_since[replica] = Some(now);
                            rejoin_at[replica] = None;
                            for qid in replicas[replica].fail() {
                                strand(qid, &mut states, &mut pending_failover[replica]);
                            }
                            for dispatch in &mut dispatches[replica] {
                                if !dispatch.handled {
                                    dispatch.handled = true;
                                    strand(
                                        dispatch.qid,
                                        &mut states,
                                        &mut pending_failover[replica],
                                    );
                                }
                            }
                        }
                    }
                    Event::Recover { replica } => {
                        if !alive[replica] {
                            alive[replica] = true;
                            health[replica] = ReplicaHealth::Recovering;
                            misses[replica] = 0;
                            for qid in std::mem::take(&mut pending_failover[replica]) {
                                counters.failovers += 1;
                                lose_attempt(
                                    qid,
                                    now,
                                    retry,
                                    &mut states,
                                    &mut events,
                                    &mut shed,
                                    &mut outstanding,
                                    &mut counters,
                                    &mut open,
                                );
                            }
                            let replay = Layers::new(
                                fault_config.replay_per_entry.get()
                                    * replicated.lag(replica) as f64,
                            );
                            rejoin_at[replica] = Some((now + replay).get());
                            events.push(now + replay, Event::RejoinDone { replica });
                        }
                    }
                    Event::RejoinDone { replica } => {
                        // The token guards against a crash during replay:
                        // a re-crash clears it and this firing is stale.
                        if alive[replica] && rejoin_at[replica] == Some(now.get()) {
                            rejoin_at[replica] = None;
                            if let Some(d) = durability.as_mut() {
                                // Land the open commit group first so
                                // the rejoin audit sees the full synced
                                // prefix, and fan out replication for
                                // whatever that sync acknowledged.
                                d.flush()?;
                                schedule_replication(
                                    &mut events,
                                    plan,
                                    self.config.replication_lag,
                                    now,
                                    num_replicas,
                                    &mut repl_scheduled,
                                    d.synced_fleet_epoch(),
                                );
                                // Replay from disk, not the in-memory
                                // log: audit the WAL, then reset the
                                // restarted replica to the durable
                                // chain's image at its watermark.
                                d.rejoin_from_disk(replica, &mut replicated)?;
                            }
                            // Drain whatever the durable chain did not
                            // cover from the in-memory log (everything,
                            // when no durability tier is active; chunk 0
                            // means "all in one call").
                            let chunk = fault_config.replay_chunk;
                            while replicated.catch_up_by(replica, chunk) > 0 {}
                            debug_assert_eq!(
                                replicated.lag(replica),
                                0,
                                "a rejoined replica is fully caught up"
                            );
                            health[replica] = ReplicaHealth::Healthy;
                            counters.recoveries += 1;
                            if let Some(since) = down_since[replica].take() {
                                counters.record_downtime(now - since);
                            }
                            pump = Some(replica);
                        }
                    }
                    Event::StallStart { replica, shard } => {
                        replicas[replica].set_shard_stall(shard, true);
                    }
                    Event::StallEnd { replica, shard } => {
                        replicas[replica].set_shard_stall(shard, false);
                        if alive[replica] {
                            pump = Some(replica);
                        }
                    }
                    Event::MonitorTick => {
                        for r in 0..num_replicas {
                            if alive[r] {
                                misses[r] = 0;
                                if health[r] == ReplicaHealth::Suspect {
                                    health[r] = ReplicaHealth::Healthy;
                                }
                            } else {
                                misses[r] += 1;
                                if misses[r] >= 2 && health[r] != ReplicaHealth::Down {
                                    health[r] = ReplicaHealth::Down;
                                    // Scoop queries offered between the
                                    // crash and its detection, then fail
                                    // everything stranded here over.
                                    for qid in replicas[r].fail() {
                                        strand(qid, &mut states, &mut pending_failover[r]);
                                    }
                                    for qid in std::mem::take(&mut pending_failover[r]) {
                                        counters.failovers += 1;
                                        lose_attempt(
                                            qid,
                                            now,
                                            retry,
                                            &mut states,
                                            &mut events,
                                            &mut shed,
                                            &mut outstanding,
                                            &mut counters,
                                            &mut open,
                                        );
                                    }
                                } else if misses[r] == 1 && health[r] != ReplicaHealth::Down {
                                    health[r] = ReplicaHealth::Suspect;
                                }
                            }
                        }
                        if let Some(controller) = brownout.as_mut() {
                            let routable: Vec<usize> = (0..num_replicas)
                                .filter(|&r| health[r].routable())
                                .collect();
                            let occupancy = if routable.is_empty() {
                                1.0
                            } else {
                                routable.iter().map(|&r| replicas[r].load()).sum::<usize>() as f64
                                    / (routable.len() * replica_slots) as f64
                            };
                            controller.observe(occupancy);
                        }
                        if let (Some(bounds), Some(d)) =
                            (fault_config.adaptive_group_commit, durability.as_mut())
                        {
                            // Observe the append rate over the tick,
                            // adapt the batching knob, assert nothing:
                            // the ack-at-sync contract is untouched
                            // because only group *size* moves. Double
                            // while the interval outran the group,
                            // halve when it ran at most half full.
                            let appends = d.counters.wal_appends - d.appends_at_tick;
                            d.appends_at_tick = d.counters.wal_appends;
                            let mut g = d.store.group_commit();
                            let current = g.max_records;
                            let next = if appends > current as u64 {
                                current.saturating_mul(2).min(bounds.max_records)
                            } else if appends <= (current as u64) / 2 {
                                (current / 2).max(bounds.min_records)
                            } else {
                                current
                            };
                            if next != current {
                                g.max_records = next.max(1);
                                d.store.set_group_commit(g);
                            }
                        }
                        if open > 0 || arrivals.peek().is_some() {
                            events.push(now + fault_config.monitor_interval, Event::MonitorTick);
                        }
                    }
                    Event::ScrubTick => {
                        if let Some(d) = durability.as_mut() {
                            // Land the open commit group (and schedule
                            // replication for what it synced) before
                            // auditing, so the disk and the in-memory
                            // view describe the same prefix.
                            d.flush()?;
                            schedule_replication(
                                &mut events,
                                plan,
                                self.config.replication_lag,
                                now,
                                num_replicas,
                                &mut repl_scheduled,
                                d.synced_fleet_epoch(),
                            );
                            d.scrub(&mut replicated, &alive, fault_config.scrub_chunk_cells)?;
                        }
                        if let Some(interval) = fault_config.scrub_interval {
                            if open > 0 || arrivals.peek().is_some() {
                                events.push(now + interval, Event::ScrubTick);
                            }
                        }
                    }
                    Event::WalFlush { seq } => {
                        if let Some(d) = durability.as_mut() {
                            // Stale when a fuller group already synced
                            // (seq moved on) or the group emptied.
                            if d.syncs == seq && d.store.pending_records() > 0 {
                                d.flush()?;
                                schedule_replication(
                                    &mut events,
                                    plan,
                                    self.config.replication_lag,
                                    now,
                                    num_replicas,
                                    &mut repl_scheduled,
                                    d.synced_fleet_epoch(),
                                );
                            }
                        }
                    }
                    Event::DiskCorrupt { replica, cell } => {
                        // Media corruption: one bit flips in the live
                        // replica image, bypassing the replication log —
                        // invisible to staleness tracking, caught only by
                        // a scrub's chunk comparison. The journal tags
                        // the flip with the replica's applied epoch and
                        // every dispatch reads its epoch's final image, so
                        // reads of that version and later ones observe the
                        // flip until a scrub's repair; a repair within the
                        // same epoch cleans the whole version.
                        replicated.corrupt_replica_cell(replica, cell % total_cells);
                    }
                    Event::Retry { qid } => {
                        if !states[qid].done {
                            snapshot_loads(&replicas, &health, &mut loads);
                            let probe = FleetRequest {
                                id: states[qid].id,
                                tenant: states[qid].tenant,
                                arrival: states[qid].arrival,
                                address: states[qid]
                                    .address
                                    .clone()
                                    .expect("faulty runs keep addresses"),
                            };
                            let target = self.placement.place(&probe, &loads);
                            assert!(
                                target < num_replicas,
                                "placement returned replica {target} of {num_replicas}"
                            );
                            let offered = loads[target].routable()
                                && replicas[target].offer(
                                    probe.id,
                                    qid,
                                    probe.tenant,
                                    probe.arrival,
                                    states[qid].deadline,
                                    probe.address,
                                );
                            states[qid].attempts += 1;
                            if offered {
                                states[qid].outstanding += 1;
                                states[qid].last_replica = target;
                                pump = Some(target);
                            } else {
                                // Nowhere routable (or the queue was
                                // full): the failed placement consumes an
                                // attempt so the budget still bounds the
                                // loop.
                                lose_attempt(
                                    qid,
                                    now,
                                    retry,
                                    &mut states,
                                    &mut events,
                                    &mut shed,
                                    &mut outstanding,
                                    &mut counters,
                                    &mut open,
                                );
                            }
                        }
                    }
                    Event::HedgeCheck { qid } => {
                        let eligible = !states[qid].done
                            && states[qid].outstanding == 1
                            && !states[qid].hedged;
                        if eligible {
                            let candidate = (0..num_replicas)
                                .filter(|&r| {
                                    health[r].routable()
                                        && replicas[r].has_queue_room()
                                        && r != states[qid].last_replica
                                })
                                .min_by_key(|&r| (replicas[r].load(), r));
                            if let Some(target) = candidate {
                                let offered = replicas[target].offer(
                                    states[qid].id,
                                    qid,
                                    states[qid].tenant,
                                    states[qid].arrival,
                                    states[qid].deadline,
                                    states[qid]
                                        .address
                                        .clone()
                                        .expect("hedging runs keep addresses"),
                                );
                                if offered {
                                    let state = &mut states[qid];
                                    state.hedged = true;
                                    state.hedge_replica = Some(target);
                                    state.outstanding += 1;
                                    counters.hedges += 1;
                                    pump = Some(target);
                                }
                            }
                        }
                    }
                    Event::Expired { qid } => {
                        states[qid].outstanding = states[qid].outstanding.saturating_sub(1);
                        if !states[qid].done && states[qid].outstanding == 0 {
                            counters.deadline_expirations += 1;
                            finish_shed(
                                qid,
                                ShedReason::DeadlineExceeded,
                                &mut states,
                                &mut shed,
                                &mut outstanding,
                                &mut open,
                            );
                        }
                    }
                }
            } else {
                break;
            }
            if let Some(target) = pump {
                if alive[target] {
                    let range = replicas[target].pump(now, &mut self.policy, |time, ev| {
                        match ev {
                            ReplicaEvent::Completion { index } => {
                                // A slow-replica window stretches the
                                // service time of completions starting
                                // inside it (guarded so the fault-free
                                // path never round-trips the timestamp
                                // through float arithmetic).
                                let mut at = time;
                                if has_slow {
                                    let start = time - latency;
                                    let factor = plan.slow_factor(target, start);
                                    if factor != 1.0 {
                                        at = start + Layers::new(latency.get() * factor);
                                    }
                                }
                                events.push(
                                    at,
                                    Event::Completion {
                                        replica: target,
                                        index,
                                    },
                                );
                            }
                            ReplicaEvent::Poll => {
                                events.push(time, Event::Poll { replica: target });
                            }
                            ReplicaEvent::Expired { tag } => {
                                events.push(time, Event::Expired { qid: tag });
                            }
                        }
                    });
                    // Replicated memory cannot change inside a pump, so
                    // every new dispatch observes the same epoch.
                    let epoch = replicated.applied_epoch(target);
                    let stale = replicated.is_stale(target);
                    let replica = &replicas[target];
                    dispatches[target].extend(range.map(|index| Dispatch {
                        qid: replica.tag_of(index),
                        epoch,
                        stale,
                        handled: false,
                    }));
                }
            }
        }

        // Drain any still-open commit group: a run ending mid-group
        // (max_delay 0, or the deadline never fired because the reactor
        // emptied) must not report its last writes as unsynced.
        if let Some(d) = durability.as_mut() {
            d.flush()?;
        }

        // A final anti-entropy sweep: divergence injected after the last
        // scheduled tick (or in runs too short to reach one) is still
        // found and repaired before the report closes.
        if fault_config.scrub_interval.is_some() {
            if let Some(d) = durability.as_mut() {
                d.scrub(&mut replicated, &alive, fault_config.scrub_chunk_cells)?;
            }
        }

        let per_replica_dispatches: Vec<u64> =
            replicas.iter().map(|r| r.dispatch_count() as u64).collect();
        // The no-lost-queries invariant: every admitted query resolved as
        // Completed or Shed. (Queued hedge-loser copies may legitimately
        // strand on a crashed-and-never-detected replica, so queue
        // emptiness is NOT asserted here, unlike the fault-free loop.)
        debug_assert!(
            states.iter().all(|s| s.done),
            "every admitted query completes or sheds"
        );
        debug_assert!(outstanding.values().all(|&n| n == 0));

        // Execute per replica in one §7.2 sweep over the run's starting
        // memory plus the replica's journal (see `sweep_updates`).
        let mut outcomes_by_replica: Vec<Vec<QueryOutcome>> = Vec::with_capacity(num_replicas);
        for (r, replica) in replicas.into_iter().enumerate() {
            let addresses = replica.into_addresses();
            let updates = sweep_updates(&self.backends[r], &dispatches[r], replicated.journal(r));
            outcomes_by_replica
                .push(self.backends[r].execute_queries(memory, &addresses, &updates)?);
        }
        // Align outcomes with the completion-ordered report. Unlike the
        // fault-free cursor walk, crashed and corrupted dispatches leave
        // holes in a replica's completion order, so each completed query
        // fetches its outcome by its recorded dispatch index (identical
        // to the cursor walk when nothing faults).
        let outcomes: Vec<QueryOutcome> = completed_dispatch
            .iter()
            .map(|&(r, index)| outcomes_by_replica[r][index].clone())
            .collect();

        // Corrupted completions were re-served under the retry budget;
        // verify the parity check would indeed have caught each one.
        for &(r, index) in &corrupted_served {
            let clean = &outcomes_by_replica[r][index];
            let delivered = corrupt_outcome(clean);
            if parity_bit(&delivered) != parity_bit(clean) {
                counters.corruptions_detected += 1;
            }
        }

        Ok(FleetReport {
            timing: self.timing,
            completed,
            outcomes,
            shed,
            per_replica_dispatches,
            stale_served,
            fleet_epoch: replicated.fleet_epoch(),
            availability: counters,
            integrity: durability.map(|d| d.counters).unwrap_or_default(),
        })
    }
}

/// Error from a durable serving run ([`QramFleet::serve_durable`]).
#[derive(Debug)]
pub enum DurableServeError {
    /// Query execution failed.
    Exec(ExecError),
    /// The durable store's directory failed.
    Store(StoreError),
}

impl fmt::Display for DurableServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DurableServeError::Exec(e) => write!(f, "query execution failed: {e}"),
            DurableServeError::Store(e) => write!(f, "durable store failed: {e}"),
        }
    }
}

impl std::error::Error for DurableServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DurableServeError::Exec(e) => Some(e),
            DurableServeError::Store(e) => Some(e),
        }
    }
}

impl From<ExecError> for DurableServeError {
    fn from(e: ExecError) -> Self {
        DurableServeError::Exec(e)
    }
}

impl From<StoreError> for DurableServeError {
    fn from(e: StoreError) -> Self {
        DurableServeError::Store(e)
    }
}

/// Bytes of a torn WAL append the lying disk keeps: header plus part of
/// the record payload, so the defect lands mid-frame.
const TORN_KEEP_BYTES: usize = frame::HEADER_LEN + 7;

/// Durability bookkeeping for one serving run: the WAL + checkpoint
/// store, the epoch offset between this run's fleet epochs and the
/// store's chain, and the integrity ledger.
struct Durability<'a> {
    store: &'a mut DurableFleet,
    /// The store's durable epoch when the run started: fleet epoch `e`
    /// of this run lives at store epoch `wal_base + e`.
    wal_base: u64,
    counters: IntegrityCounters,
    /// Commit-group syncs paid so far — the freshness token carried by
    /// armed [`Event::WalFlush`] deadlines: a deadline whose `seq` is
    /// behind this counter raced a size-triggered flush and is stale.
    syncs: u64,
    /// `counters.wal_appends` at the last monitor tick, for the
    /// adaptive group-commit controller's per-tick append rate.
    appends_at_tick: u64,
}

impl<'a> Durability<'a> {
    fn new(store: &'a mut DurableFleet) -> Self {
        let wal_base = store.durable_epoch();
        Durability {
            store,
            wal_base,
            counters: IntegrityCounters::default(),
            syncs: 0,
            appends_at_tick: 0,
        }
    }

    /// Folds one store [`SyncSummary`] into the integrity ledger and
    /// the sync sequence number.
    fn note(&mut self, summary: SyncSummary) {
        if summary.synced_records > 0 {
            self.syncs += 1;
            self.counters.wal_syncs += 1;
            self.counters.max_group_records = self
                .counters
                .max_group_records
                .max(summary.synced_records as u64);
        }
        if summary.checkpointed {
            if summary.delta {
                self.counters.delta_checkpoints += 1;
            } else {
                self.counters.checkpoints += 1;
            }
            self.counters.delta_chain_len = Some(self.store.delta_chain_len() as u64);
        }
    }

    /// Logs one committed fleet write durably; `torn` arms the
    /// lying-disk hook so the append reports success while the platter
    /// keeps only [`TORN_KEEP_BYTES`]. Under group commit the record
    /// may buffer; the returned summary says whether a sync landed.
    fn append(&mut self, w: &ReplicatedWrite, torn: bool) -> Result<SyncSummary, StoreError> {
        if torn {
            self.store.dir_mut().tear_next_write(TORN_KEEP_BYTES);
        }
        let stored = ReplicatedWrite {
            epoch: self.wal_base + w.epoch,
            ..*w
        };
        let summary = self.store.append(&stored)?;
        self.counters.wal_appends += 1;
        self.note(summary);
        Ok(summary)
    }

    /// Lands any buffered commit group now (deadline flush, pre-audit
    /// barrier, end-of-run drain).
    fn flush(&mut self) -> Result<SyncSummary, StoreError> {
        let summary = self.store.flush()?;
        self.note(summary);
        Ok(summary)
    }

    /// The highest fleet epoch whose record has reached a synced group
    /// — the ack/replication watermark.
    fn synced_fleet_epoch(&self) -> u64 {
        self.store.durable_epoch().saturating_sub(self.wal_base)
    }

    /// Audits the on-disk WAL against the store's view: a torn tail is
    /// truncated, the watermark rolled back, and the lost acknowledged
    /// epochs re-appended from the fleet's in-memory log (each counted
    /// as a repair).
    fn audit_disk(&mut self, replicated: &ReplicatedMemory) -> Result<(), StoreError> {
        // Land the open group through the ledger first, so the store's
        // own pre-rescan flush has nothing left to sync invisibly.
        self.flush()?;
        let summary = self.store.rescan()?;
        if summary.truncated_bytes > 0 {
            self.counters.torn_tails_truncated += 1;
        }
        if summary.lost_epochs > 0 {
            let from = self.store.durable_epoch();
            for w in replicated.log() {
                let stored_epoch = self.wal_base + w.epoch;
                if stored_epoch > from {
                    let stored = ReplicatedWrite {
                        epoch: stored_epoch,
                        ..*w
                    };
                    let summary = self.store.append(&stored)?;
                    self.counters.wal_appends += 1;
                    self.counters.repairs += 1;
                    self.note(summary);
                }
            }
            // Re-appends buffer under the same group policy — the
            // audit's promise is a durable tail, so land them now.
            self.flush()?;
        }
        Ok(())
    }

    /// Replays a restarted replica from the durable chain: disk audit,
    /// then a reset to the chain's image at its watermark. The caller
    /// drains any remaining in-memory log suffix afterwards.
    fn rejoin_from_disk(
        &mut self,
        replica: usize,
        replicated: &mut ReplicatedMemory,
    ) -> Result<(), StoreError> {
        self.audit_disk(replicated)?;
        let durable_fleet_epoch = self.store.durable_epoch() - self.wal_base;
        if durable_fleet_epoch > replicated.applied_epoch(replica) {
            replicated.reset_replica(replica, self.store.shadow().clone(), durable_fleet_epoch);
        }
        Ok(())
    }

    /// One anti-entropy scrub cycle: audit the WAL, then compare each
    /// live replica's memory, chunk by chunk, with the durable chain's
    /// expected image at that replica's applied epoch, repairing
    /// divergence by resetting the replica to the expected image.
    fn scrub(
        &mut self,
        replicated: &mut ReplicatedMemory,
        alive: &[bool],
        chunk_cells: usize,
    ) -> Result<(), StoreError> {
        self.counters.scrub_cycles += 1;
        self.audit_disk(replicated)?;
        for r in (0..replicated.num_replicas()).filter(|&r| alive[r]) {
            let applied = replicated.applied_epoch(r);
            // An epoch already compacted behind a checkpoint is not
            // reconstructible — the replica is audited next cycle, once
            // catch-up moves it past the checkpoint watermark.
            let Some(expected) = self.store.state_at(self.wal_base + applied) else {
                continue;
            };
            let want = expected.cells().chunks(chunk_cells);
            let have = replicated.memory(r).cells().chunks(chunk_cells);
            self.counters.chunks_verified += have.len() as u64;
            let diverged = want.zip(have).filter(|(w, h)| w != h).count() as u64;
            if diverged > 0 {
                self.counters.mismatches += diverged;
                self.counters.repairs += 1;
                // The reset journals the repaired cells at the same
                // epoch, so the version's final image — what its
                // dispatches read — is clean again.
                replicated.reset_replica(r, expected, applied);
            }
        }
        Ok(())
    }
}

/// One dispatch of a replica, stamped when the replica's pump admits it.
#[derive(Debug, Clone, Copy)]
struct Dispatch {
    /// The admitted query it serves (an index into the query states).
    qid: usize,
    /// The memory epoch its replica had applied at dispatch.
    epoch: u64,
    /// True when that epoch trailed the fleet epoch.
    stale: bool,
    /// Its completion was consumed, or a crash invalidated it.
    handled: bool,
}

/// Driver-private bookkeeping for one admitted query in the
/// fault-tolerant loop.
#[derive(Debug)]
struct QueryState {
    id: usize,
    tenant: TenantId,
    arrival: Layers,
    deadline: Option<Layers>,
    /// The queried address, kept for re-dispatch. `None` in fault-free
    /// runs without hedging (no clone on the hot path).
    address: Option<AddressState>,
    /// Dispatch attempts consumed, counting the first.
    attempts: u32,
    /// Live copies: queued or in-flight offers of this query.
    outstanding: u32,
    /// Resolved — completed or shed. Terminal.
    done: bool,
    last_replica: usize,
    hedged: bool,
    hedge_replica: Option<usize>,
}

/// Fans replication catch-ups out for fleet epochs `(*scheduled, to]`,
/// each through the fault plan's per-epoch fate (a single-replica fleet
/// has no one to replicate to), then advances the `scheduled` watermark
/// to `to`. Under the durability tier replication is gated on
/// commit-group syncs, so a single sync may acknowledge — and here
/// schedule — a whole group of epochs at once; the monotone watermark
/// means rollbacks and re-appends never fan the same epoch out twice.
fn schedule_replication(
    events: &mut EventQueue<Event>,
    plan: &FaultPlan,
    lag: Layers,
    now: Layers,
    num_replicas: usize,
    scheduled: &mut u64,
    to: u64,
) {
    for epoch in (*scheduled + 1..=to).filter(|_| num_replicas > 1) {
        match plan.replication_fate(epoch) {
            ReplicationFate::Deliver => {
                events.push(now + lag, Event::Replicate { epoch });
            }
            ReplicationFate::Drop => {}
            ReplicationFate::Delay(by) => {
                events.push(now + lag + by, Event::Replicate { epoch });
            }
        }
    }
    *scheduled = (*scheduled).max(to);
}

/// The memory updates of a replica's single §7.2 sweep: journal entry
/// `(t, address, value)` lands at the retrieval layer of the first
/// dispatch whose epoch is at least `t`. An update at a query's
/// retrieval layer is visible to it, so every dispatch reads its epoch's
/// final image — corruption and scrub repairs at that epoch included.
/// Entries tagged past the last dispatch's epoch reach no read and are
/// dropped, so a read-only replica passes no updates and keeps the
/// update-free kernel path.
fn sweep_updates<M: QramModel>(
    backend: &ShardedQram<M>,
    dispatches: &[Dispatch],
    journal: &[JournalEntry],
) -> Vec<(u64, u64, u64)> {
    debug_assert!(
        dispatches.windows(2).all(|w| w[0].epoch <= w[1].epoch),
        "per-replica dispatch epochs never decrease"
    );
    let mut first = 0;
    let mut updates = Vec::new();
    for entry in journal {
        // Journal tags never decrease, so the cursor only moves forward.
        while first < dispatches.len() && dispatches[first].epoch < entry.tag {
            first += 1;
        }
        if first == dispatches.len() {
            break;
        }
        updates.push((backend.retrieval_layer(first), entry.address, entry.value));
    }
    updates
}

/// Refills `loads` with every replica's current load and health.
fn snapshot_loads(replicas: &[Replica], health: &[ReplicaHealth], loads: &mut Vec<ReplicaLoad>) {
    loads.clear();
    loads.extend(replicas.iter().zip(health).map(|(r, &h)| ReplicaLoad {
        queued: r.queued(),
        in_flight: r.in_flight(),
        has_room: r.has_queue_room(),
        health: h,
    }));
}

/// A copy of query `qid` was lost on a crashed replica: already-resolved
/// queries just drop the copy, live ones wait in `pending` for failover.
fn strand(qid: usize, states: &mut [QueryState], pending: &mut Vec<usize>) {
    if states[qid].done {
        states[qid].outstanding = states[qid].outstanding.saturating_sub(1);
    } else {
        pending.push(qid);
    }
}

/// Resolves query `qid` as shed, releasing its quota slot.
fn finish_shed(
    qid: usize,
    reason: ShedReason,
    states: &mut [QueryState],
    shed: &mut Vec<ShedRequest>,
    outstanding_map: &mut BTreeMap<TenantId, u32>,
    open: &mut usize,
) {
    debug_assert!(!states[qid].done, "a query resolves exactly once");
    states[qid].done = true;
    shed.push(ShedRequest {
        id: states[qid].id,
        tenant: states[qid].tenant,
        reason,
    });
    *outstanding_map
        .get_mut(&states[qid].tenant)
        .expect("tenant admitted") -= 1;
    *open -= 1;
}

/// One dispatch attempt of query `qid` was lost (crash, corruption, or an
/// unplaceable retry). When no other copy is live, schedule a retry after
/// the backoff — or shed if the budget is exhausted or the backoff would
/// overrun the deadline.
#[allow(clippy::too_many_arguments)]
fn lose_attempt(
    qid: usize,
    now: Layers,
    retry: &RetryPolicy,
    states: &mut [QueryState],
    events: &mut EventQueue<Event>,
    shed: &mut Vec<ShedRequest>,
    outstanding_map: &mut BTreeMap<TenantId, u32>,
    counters: &mut AvailabilityCounters,
    open: &mut usize,
) {
    states[qid].outstanding = states[qid].outstanding.saturating_sub(1);
    if states[qid].done || states[qid].outstanding > 0 {
        return;
    }
    let attempts = states[qid].attempts;
    if retry.budget_exhausted(attempts) {
        finish_shed(
            qid,
            ShedReason::RetriesExhausted,
            states,
            shed,
            outstanding_map,
            open,
        );
        return;
    }
    let at = now + retry.backoff(attempts);
    if states[qid].deadline.is_some_and(|deadline| at > deadline) {
        counters.deadline_expirations += 1;
        finish_shed(
            qid,
            ShedReason::DeadlineExceeded,
            states,
            shed,
            outstanding_map,
            open,
        );
        return;
    }
    counters.retries += 1;
    events.push(at, Event::Retry { qid });
}

#[cfg(test)]
mod tests {
    use super::*;
    use qram_metrics::Capacity;
    use qram_sched::QuotaAdmission;

    fn cap(n: u64) -> Capacity {
        Capacity::new(n).unwrap()
    }

    fn classical_requests(arrivals: &[f64], width: u32, modulus: u64) -> Vec<FleetRequest> {
        arrivals
            .iter()
            .enumerate()
            .map(|(id, &a)| FleetRequest {
                id,
                tenant: TenantId::DEFAULT,
                arrival: Layers::new(a),
                address: AddressState::classical(width, id as u64 % modulus).unwrap(),
            })
            .collect()
    }

    fn checkerboard(n: u64) -> ClassicalMemory {
        let cells: Vec<u64> = (0..n).map(|i| (i * 5 + 1) % 2).collect();
        ClassicalMemory::from_words(1, &cells).unwrap()
    }

    #[test]
    fn consistent_hash_spreads_a_uniform_sweep_exactly() {
        let qram = ShardedQram::fat_tree(cap(64), 2);
        let mut fleet = QramFleet::fifo(qram, 4, TimingModel::paper_default());
        let requests = classical_requests(&[0.0; 24], 6, 64);
        let report = fleet
            .serve(&checkerboard(64), requests, Vec::new())
            .unwrap();
        assert_eq!(report.per_replica_dispatches(), &[6, 6, 6, 6]);
        for c in report.completed() {
            assert_eq!(c.replica, c.id % 4, "address residue picks the replica");
        }
    }

    #[test]
    fn more_replicas_finish_a_saturated_burst_sooner() {
        let run = |replicas: usize| {
            let qram = ShardedQram::fat_tree(cap(256), 2);
            let mut fleet = QramFleet::fifo(qram, replicas, TimingModel::paper_default());
            let requests = classical_requests(&[0.0; 64], 8, 256);
            fleet
                .serve(&checkerboard(256), requests, Vec::new())
                .unwrap()
                .makespan()
        };
        let one = run(1);
        let two = run(2);
        let four = run(4);
        assert!(two < one, "R = 2 beats R = 1: {two:?} vs {one:?}");
        assert!(four < two, "R = 4 beats R = 2: {four:?} vs {two:?}");
    }

    #[test]
    fn writes_replicate_after_the_lag_and_stale_reads_are_flagged() {
        let qram = ShardedQram::fat_tree(cap(16), 1);
        let mut fleet = QramFleet::new(
            qram,
            2,
            TimingModel::paper_default(),
            FifoAdmission,
            ConsistentHashPlacement,
            FleetConfig {
                queue_capacity: None,
                replication_lag: Layers::new(1000.0),
            },
        );
        let memory = ClassicalMemory::from_words(1, &[0; 16]).unwrap();
        // Address 5 routes to replica 1 (5 mod 2); the write commits at
        // replica 0, so replica 1 serves the old value, flagged stale,
        // until replication lands at t = 1050.
        let read = |id: usize, at: f64| FleetRequest {
            id,
            tenant: TenantId::DEFAULT,
            arrival: Layers::new(at),
            address: AddressState::classical(4, 5).unwrap(),
        };
        let write = FleetWrite {
            at: Layers::new(50.0),
            origin: 0,
            address: 5,
            value: 1,
        };
        let report = fleet
            .serve(
                &memory,
                vec![read(0, 0.0), read(1, 100.0), read(2, 2000.0)],
                vec![write],
            )
            .unwrap();
        assert_eq!(report.fleet_epoch(), 1);
        let by_id = |id: usize| {
            report
                .completed()
                .iter()
                .position(|c| c.id == id)
                .expect("completed")
        };
        // Before the write: fresh at epoch 0.
        assert!(!report.completed()[by_id(0)].stale);
        assert_eq!(report.outcomes()[by_id(0)].data_for(5), Some(0));
        // After the write, before replication: flagged stale, old value.
        assert!(report.completed()[by_id(1)].stale);
        assert_eq!(report.completed()[by_id(1)].epoch, 0);
        assert_eq!(report.outcomes()[by_id(1)].data_for(5), Some(0));
        // After replication: fresh at epoch 1, new value.
        assert!(!report.completed()[by_id(2)].stale);
        assert_eq!(report.completed()[by_id(2)].epoch, 1);
        assert_eq!(report.outcomes()[by_id(2)].data_for(5), Some(1));
        assert_eq!(report.stale_served(), 1);
    }

    #[test]
    fn quota_sheds_the_hot_tenant_only() {
        let qram = ShardedQram::fat_tree(cap(64), 1);
        let policy = QuotaAdmission::new(FifoAdmission).with_quota(TenantId(1), 2);
        let mut fleet = QramFleet::new(
            qram,
            1,
            TimingModel::paper_default(),
            policy,
            ConsistentHashPlacement,
            FleetConfig::default(),
        );
        let requests: Vec<FleetRequest> = (0..12)
            .map(|id| FleetRequest {
                id,
                tenant: TenantId(u32::from(id % 2 == 0)),
                arrival: Layers::ZERO,
                address: AddressState::classical(6, id as u64).unwrap(),
            })
            .collect();
        let report = fleet
            .serve(&checkerboard(64), requests, Vec::new())
            .unwrap();
        // The hot tenant keeps its 2 outstanding; the unlimited tenant
        // keeps all 6.
        assert_eq!(report.shed_count(ShedReason::QuotaExceeded), 4);
        assert!(report.shed().iter().all(|s| s.tenant == TenantId(1)));
        assert_eq!(report.per_tenant().get(TenantId(0)).unwrap().count(), 6);
        assert_eq!(report.per_tenant().get(TenantId(1)).unwrap().count(), 2);
    }

    #[test]
    fn slo_class_gets_only_its_queue_share() {
        let qram = ShardedQram::fat_tree(cap(64), 1);
        let policy =
            QuotaAdmission::new(FifoAdmission).with_slo(TenantId(2), qram_sched::SloClass::Batch);
        let mut fleet = QramFleet::new(
            qram,
            1,
            TimingModel::paper_default(),
            policy,
            ConsistentHashPlacement,
            FleetConfig {
                queue_capacity: Some(8),
                replication_lag: Layers::ZERO,
            },
        );
        // A burst at t = 0: one dispatches immediately, the rest queue.
        // The batch-class tenant only gets floor(8 · 0.5) = 4 queue slots.
        let requests: Vec<FleetRequest> = (0..12)
            .map(|id| FleetRequest {
                id,
                tenant: TenantId(2),
                arrival: Layers::ZERO,
                address: AddressState::classical(6, id as u64).unwrap(),
            })
            .collect();
        let report = fleet
            .serve(&checkerboard(64), requests, Vec::new())
            .unwrap();
        assert_eq!(report.completed().len(), 5);
        assert_eq!(report.shed_count(ShedReason::SloShed), 7);
        assert_eq!(report.shed_count(ShedReason::QueueFull), 0);
    }

    #[test]
    fn least_loaded_avoids_full_replicas_while_others_have_room() {
        let qram = ShardedQram::fat_tree(cap(64), 1);
        let mut fleet = QramFleet::new(
            qram,
            2,
            TimingModel::paper_default(),
            FifoAdmission,
            LeastLoadedPlacement,
            FleetConfig {
                queue_capacity: Some(2),
                replication_lag: Layers::ZERO,
            },
        );
        // 6 simultaneous arrivals fill both replicas to the brim (1
        // dispatched + 2 queued each); nothing sheds until every replica
        // is actually full.
        let requests = classical_requests(&[0.0; 7], 6, 64);
        let report = fleet
            .serve(&checkerboard(64), requests, Vec::new())
            .unwrap();
        assert_eq!(report.completed().len(), 6);
        assert_eq!(report.shed_count(ShedReason::QueueFull), 1);
        assert_eq!(report.per_replica_dispatches(), &[3, 3]);
    }

    fn load(queued: usize, in_flight: u32, health: ReplicaHealth) -> ReplicaLoad {
        ReplicaLoad {
            queued,
            in_flight,
            has_room: true,
            health,
        }
    }

    fn probe() -> FleetRequest {
        FleetRequest {
            id: 0,
            tenant: TenantId::DEFAULT,
            arrival: Layers::ZERO,
            address: AddressState::classical(6, 0).unwrap(),
        }
    }

    #[test]
    fn least_loaded_breaks_load_ties_to_the_lowest_index() {
        // Regression: equal loads must pick the lowest index
        // deterministically, not whichever the iterator happened to
        // yield — replicas 1 and 3 tie below replica 0's load.
        let h = ReplicaHealth::Healthy;
        let loads = [load(2, 1, h), load(1, 1, h), load(4, 0, h), load(0, 2, h)];
        assert_eq!(LeastLoadedPlacement.place(&probe(), &loads), 1);
        // A full tie across the fleet picks replica 0.
        let tied = [load(1, 1, h), load(2, 0, h), load(0, 2, h)];
        assert_eq!(LeastLoadedPlacement.place(&probe(), &tied), 0);
    }

    #[test]
    fn least_loaded_ranks_suspects_after_healthy_and_skips_the_down() {
        let loads = [
            load(0, 0, ReplicaHealth::Suspect),
            load(3, 1, ReplicaHealth::Healthy),
            load(1, 0, ReplicaHealth::Down),
        ];
        // The idle suspect loses to the loaded healthy replica; the even
        // less loaded Down replica is not routable at all.
        assert_eq!(LeastLoadedPlacement.place(&probe(), &loads), 1);
        // With every routable replica suspect, the least-loaded suspect
        // wins; only a fully unroutable fleet falls back to anyone.
        let suspects = [
            load(2, 0, ReplicaHealth::Suspect),
            load(1, 0, ReplicaHealth::Suspect),
            load(0, 0, ReplicaHealth::Down),
        ];
        assert_eq!(LeastLoadedPlacement.place(&probe(), &suspects), 1);
        let unroutable = [
            load(2, 0, ReplicaHealth::Down),
            load(1, 0, ReplicaHealth::Recovering),
        ];
        assert_eq!(LeastLoadedPlacement.place(&probe(), &unroutable), 1);
    }

    #[test]
    fn consistent_hash_probes_the_ring_past_down_replicas() {
        // Address 0 homes at replica 0; with it Down the probe walks the
        // ring to the next routable replica.
        let loads = [
            load(0, 0, ReplicaHealth::Down),
            load(5, 2, ReplicaHealth::Recovering),
            load(9, 3, ReplicaHealth::Healthy),
        ];
        assert_eq!(ConsistentHashPlacement.place(&probe(), &loads), 2);
        // Fully healthy, the probe never moves off the home replica.
        let healthy = [
            load(9, 3, ReplicaHealth::Healthy),
            load(0, 0, ReplicaHealth::Healthy),
        ];
        assert_eq!(ConsistentHashPlacement.place(&probe(), &healthy), 0);
        // Nothing routable: fall back to the home replica (the arrival is
        // then shed as NoHealthyReplica by the router).
        let dead = [
            load(0, 0, ReplicaHealth::Down),
            load(0, 0, ReplicaHealth::Down),
        ];
        assert_eq!(ConsistentHashPlacement.place(&probe(), &dead), 0);
    }
}
