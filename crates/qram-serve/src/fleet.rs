//! The multi-tenant QRAM fleet: a routing tier over `R` serving replicas
//! with epoch-replicated writes.
//!
//! [`QramFleet`] is the §5 quantum-data-center service, scaled *out*: it
//! runs `R` independent replica cores — each a full sharded QRAM with its
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
//!       │Replica 0││Replica 1││Replica 2│   (one FIFO queue, I/K
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
//! One replica is the §5 single machine: with `R = 1`, no writes, and the
//! default tenant, the realized schedule is the analytic online-FIFO
//! schedule of the requests the replica accepted (property-tested in
//! `tests/fleet.rs` and `tests/serving.rs`).
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
//! failures. Every entry point runs one loop: a run state with one record
//! per replica and one handler method per reactor event. The empty plan
//! with the default [`FaultConfig`] schedules no fault events. In such a
//! run each replica is a §5 machine over the requests routed to it, and
//! `tests/fleet.rs` and `tests/fleet_faults.rs` pin every router verdict,
//! schedule, shard, epoch and outcome against an independent replay of
//! the online admission recurrence per replica.
//!
//! [`SloClass`]: qram_sched::SloClass
//! [`RetryPolicy`]: qram_sched::RetryPolicy
//! [`ReplicatedMemory`]: qram_core::ReplicatedMemory
//! [`BrownoutController`]: crate::BrownoutController

use std::fmt;

use qram_core::store::{DurableFleet, StoreError};
use qram_core::{ExecError, QramModel, ShardedQram};
use qram_metrics::{Layers, TimingModel};
use qram_sched::{AdmissionPolicy, FifoAdmission, QramServer, TenantId};
use qsim::branch::{AddressState, ClassicalMemory};

use crate::fault::{Fault, FaultConfig, FaultPlan, ReplicaHealth};
pub use crate::report::{FleetQuery, FleetReport};
use crate::run::serve_faulty;

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
    /// Per-replica bound on requests waiting in the dispatch queue.
    /// Arrivals beyond it (or beyond the tenant's SLO share of it) are
    /// shed. `None` queues without bound and disables SLO shedding;
    /// `Some(0)` is refused with [`ServeError::ZeroQueueCapacity`].
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
    /// Requests waiting in the replica's dispatch queue.
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
        let n = loads.len();
        let home = (principal % n as u64) as usize;
        // Probe the ring from home, wrapping by compare, not division;
        // a full lap ends back at home.
        let mut r = home;
        while !loads[r].routable() {
            r = if r + 1 == n { 0 } else { r + 1 };
            if r == home {
                break;
            }
        }
        r
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
/// let fleet = QramFleet::fifo(qram, 2, TimingModel::paper_default());
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
    M: QramModel,
    P: AdmissionPolicy = FifoAdmission,
    L: PlacementPolicy = ConsistentHashPlacement,
> {
    /// The one backend every replica serves on: replicas differ only in
    /// their run state, never in their model.
    pub(crate) backend: ShardedQram<M>,
    pub(crate) replicas: usize,
    pub(crate) timing: TimingModel,
    pub(crate) policy: P,
    pub(crate) placement: L,
    pub(crate) config: FleetConfig,
}

impl<M: QramModel> QramFleet<M, FifoAdmission, ConsistentHashPlacement> {
    /// A FIFO fleet of `replicas` replicas serving on `qram` under
    /// consistent-hash placement, unbounded queues, and instant
    /// replication.
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

impl<M: QramModel, P: AdmissionPolicy, L: PlacementPolicy> QramFleet<M, P, L> {
    /// A fleet of `replicas` replicas serving on `qram` with explicit
    /// admission policy, placement policy, and configuration.
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
            backend: qram,
            replicas,
            timing,
            policy,
            placement,
            config,
        }
    }

    /// The fleet size `R`.
    #[must_use]
    pub fn num_replicas(&self) -> usize {
        self.replicas
    }

    /// The backend serving replica `replica` (every replica serves on the
    /// same one).
    ///
    /// # Panics
    ///
    /// Panics if the fleet has no replica `replica`.
    #[must_use]
    pub fn backend(&self, replica: usize) -> &ShardedQram<M> {
        let replicas = self.replicas;
        assert!(replica < replicas, "replica {replica} of {replicas}");
        &self.backend
    }

    /// The pipelined server equivalent to each replica.
    #[must_use]
    pub fn equivalent_server(&self) -> QramServer {
        QramServer::for_model(&self.backend, &self.timing)
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
    /// Returns, before serving anything:
    /// * [`ServeError::ZeroQueueCapacity`] if
    ///   [`FleetConfig::queue_capacity`] is `Some(0)`;
    /// * [`ServeError::MemoryCapacity`] if `memory`'s cell count is not
    ///   the QRAM capacity;
    /// * [`ServeError::AddressWidth`] if a request's address width is not
    ///   the QRAM capacity's;
    /// * [`ServeError::WriteOrigin`], [`ServeError::WriteCell`] or
    ///   [`ServeError::WriteValue`] if a write names a replica the fleet
    ///   lacks or a cell outside `memory`, or its value is wider than
    ///   `memory`'s bus.
    ///
    /// Returns [`ServeError::Exec`] if query execution fails.
    ///
    /// # Panics
    ///
    /// Panics if the placement policy returns an out-of-range replica.
    pub fn serve(
        &self,
        memory: &ClassicalMemory,
        requests: impl IntoIterator<Item = FleetRequest>,
        writes: impl IntoIterator<Item = FleetWrite>,
    ) -> Result<FleetReport, ServeError> {
        self.serve_with_faults(
            memory,
            requests,
            writes,
            &FaultPlan::none(),
            &FaultConfig::default(),
        )
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
    /// With the empty plan and the default [`FaultConfig`] no monitor or
    /// fault events enter the reactor: the run is [`QramFleet::serve`],
    /// whose schedules, sheds and outcomes `tests/fleet_faults.rs` pins
    /// against an independent per-replica replay of the online admission
    /// recurrence.
    ///
    /// # Errors
    ///
    /// Returns, before serving anything, the errors of
    /// [`QramFleet::serve`]'s refusals (a memory of the wrong size among
    /// them), [`ServeError::Fault`] for a plan entry and
    /// [`ServeError::FaultConfig`] for a config field the run cannot
    /// serve. Returns [`ServeError::Exec`] if query execution fails and
    /// [`ServeError::Store`] if the in-memory store that disk faults or
    /// scrubbing spin up fails.
    ///
    /// # Panics
    ///
    /// As [`QramFleet::serve`].
    pub fn serve_with_faults(
        &self,
        memory: &ClassicalMemory,
        requests: impl IntoIterator<Item = FleetRequest>,
        writes: impl IntoIterator<Item = FleetWrite>,
        plan: &FaultPlan,
        fault_config: &FaultConfig,
    ) -> Result<FleetReport, ServeError> {
        serve_faulty(self, memory, requests, writes, plan, fault_config, None)
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
    /// The store's durable chain must end at `memory`, bus width
    /// included (a fresh [`DurableFleet::create`] from the same image, or
    /// a recovered store whose shadow equals it); this run's fleet epoch
    /// `e` is persisted at store epoch `durable_epoch + e`.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::StoreMismatch`] if the store's chain does not
    /// end at `memory`, and the errors of
    /// [`QramFleet::serve_with_faults`]'s refusals
    /// ([`ServeError::MemoryCapacity`] and [`ServeError::FaultConfig`]
    /// among them), all before the store logs anything; and
    /// [`ServeError::Exec`] if query execution fails and
    /// [`ServeError::Store`] if the store's directory fails.
    ///
    /// # Panics
    ///
    /// As [`QramFleet::serve`].
    pub fn serve_durable(
        &self,
        memory: &ClassicalMemory,
        requests: impl IntoIterator<Item = FleetRequest>,
        writes: impl IntoIterator<Item = FleetWrite>,
        plan: &FaultPlan,
        fault_config: &FaultConfig,
        store: &mut DurableFleet,
    ) -> Result<FleetReport, ServeError> {
        if store.shadow() != memory {
            return Err(ServeError::StoreMismatch);
        }
        serve_faulty(
            self,
            memory,
            requests,
            writes,
            plan,
            fault_config,
            Some(store),
        )
    }
}

/// Error from a serving run.
#[derive(Debug)]
pub enum ServeError {
    /// Query execution failed.
    Exec(ExecError),
    /// The durable store's directory failed.
    Store(StoreError),
    /// The durable store's chain does not end at the run's starting
    /// memory (its cells or its bus width differ), so its scrubs and
    /// rejoins would reset replicas toward another image.
    StoreMismatch,
    /// [`FleetConfig::queue_capacity`] is `Some(0)`: no replica queue
    /// could hold an admitted request.
    ZeroQueueCapacity,
    /// The memory's cell count is not the QRAM capacity.
    MemoryCapacity {
        /// The memory's cell count.
        cells: usize,
        /// The QRAM capacity `N`.
        capacity: u64,
    },
    /// A request's address register is not as wide as the QRAM
    /// capacity's address.
    AddressWidth {
        /// The request's identifier.
        id: usize,
        /// Its address width.
        width: u32,
        /// The capacity's address width.
        expected: u32,
    },
    /// A write names an origin replica the fleet does not have.
    WriteOrigin {
        /// The write's position in supply order.
        write: usize,
        /// The origin it names.
        origin: usize,
        /// The fleet size `R`.
        replicas: usize,
    },
    /// A write names a cell outside the memory.
    WriteCell {
        /// The write's position in supply order.
        write: usize,
        /// The cell it names.
        address: u64,
        /// The memory's cell count.
        cells: usize,
    },
    /// A write's value does not fit in the memory's bus width.
    WriteValue {
        /// The write's position in supply order.
        write: usize,
        /// The value it writes.
        value: u64,
        /// The memory's bus width in bits.
        bus_width: u32,
    },
    /// A fault plan entry names a replica or shard the fleet lacks, a
    /// stall window that ends before it opens, or a slowdown factor that
    /// is NaN, below 1, or stretches the latency past every finite
    /// instant.
    Fault {
        /// The entry's position in the plan.
        index: usize,
        /// The entry.
        fault: Fault,
    },
    /// A [`FaultConfig`] field the run cannot serve: a zero
    /// `monitor_interval` while the monitor runs, `brownout` thresholds
    /// that are not `0 ≤ low < high`, a zero `scrub_interval` or
    /// `scrub_chunk_cells` while scrubbing, or a `group_commit` deadline
    /// that is not finite while disk faults, scrubbing, the adaptive group
    /// commit or `serve_durable`'s store log the run's writes.
    FaultConfig {
        /// The field's name.
        field: &'static str,
    },
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Exec(e) => write!(f, "query execution failed: {e}"),
            ServeError::Store(e) => write!(f, "durable store failed: {e}"),
            ServeError::StoreMismatch => {
                write!(f, "the durable chain does not end at the starting memory")
            }
            ServeError::ZeroQueueCapacity => write!(f, "the queue capacity is zero"),
            ServeError::MemoryCapacity { cells, capacity } => {
                write!(f, "the memory has {cells} cells, the QRAM {capacity}")
            }
            ServeError::AddressWidth {
                id,
                width,
                expected,
            } => write!(
                f,
                "request {id} has a {width}-bit address, but the capacity needs {expected}"
            ),
            ServeError::WriteOrigin {
                write,
                origin,
                replicas,
            } => write!(
                f,
                "write {write} names origin replica {origin} of {replicas}"
            ),
            ServeError::WriteCell {
                write,
                address,
                cells,
            } => write!(f, "write {write} names cell {address} of {cells}"),
            ServeError::WriteValue {
                write,
                value,
                bus_width,
            } => write!(
                f,
                "write {write} has value {value}, wider than the {bus_width}-bit bus"
            ),
            ServeError::Fault { index, fault } => {
                write!(f, "fault plan entry {index} cannot be served: {fault:?}")
            }
            ServeError::FaultConfig { field } => {
                write!(f, "fault config field {field} cannot be served")
            }
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Exec(e) => Some(e),
            ServeError::Store(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ExecError> for ServeError {
    fn from(e: ExecError) -> Self {
        ServeError::Exec(e)
    }
}

impl From<StoreError> for ServeError {
    fn from(e: StoreError) -> Self {
        ServeError::Store(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::BrownoutConfig;
    use qram_core::store::GroupCommitPolicy;
    use qram_core::FatTreeQram;
    use qram_metrics::{Capacity, QueryRate};
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

    /// A one-replica FIFO fleet over `shards` shards: the §5 single
    /// machine, with an optional bounded arrival queue.
    fn machine(n: u64, shards: u32, queue_capacity: Option<usize>) -> QramFleet<FatTreeQram> {
        QramFleet::new(
            ShardedQram::fat_tree(cap(n), shards),
            1,
            TimingModel::paper_default(),
            FifoAdmission,
            ConsistentHashPlacement,
            FleetConfig {
                queue_capacity,
                replication_lag: Layers::ZERO,
            },
        )
    }

    /// Serves `requests` on `machine(n, shards, None)` over a checkerboard.
    fn serve_machine(n: u64, shards: u32, requests: Vec<FleetRequest>) -> FleetReport {
        machine(n, shards, None)
            .serve(&checkerboard(n), requests, Vec::new())
            .unwrap()
    }

    #[test]
    fn round_robin_assignment_fills_queues_evenly() {
        let report = serve_machine(256, 4, classical_requests(&[0.0; 22], 8, 256));
        let mut per_shard = [0; 4];
        for (i, c) in report.completed().iter().enumerate() {
            assert_eq!(c.id, i, "strict FIFO dispatch order");
            assert_eq!(c.shard, i % 4, "round-robin queue assignment");
            per_shard[c.shard] += 1;
        }
        assert_eq!(per_shard, [6, 6, 5, 5]);
    }

    #[test]
    fn saturated_dispatches_space_at_divided_interval() {
        let report = serve_machine(4096, 4, classical_requests(&[0.0; 16], 12, 4096));
        let starts: Vec<f64> = report.completed().iter().map(|c| c.start.get()).collect();
        for w in starts.windows(2) {
            assert!((w[1] - w[0] - 8.25 / 4.0).abs() < 1e-9, "{starts:?}");
        }
    }

    #[test]
    fn outcomes_match_ideal_semantics() {
        let memory = checkerboard(64);
        let requests: Vec<FleetRequest> = (0..8)
            .map(|id| FleetRequest {
                id,
                tenant: TenantId::DEFAULT,
                arrival: Layers::new(id as f64),
                address: AddressState::uniform(6, &[id as u64, id as u64 + 17, id as u64 + 40])
                    .unwrap(),
            })
            .collect();
        let report = serve_machine(64, 4, requests.clone());
        assert_eq!(report.completed().len(), 8);
        for (c, out) in report.completed().iter().zip(report.outcomes()) {
            let ideal = memory.ideal_query(&requests[c.id].address);
            assert!((out.fidelity(&ideal) - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn bounded_queue_sheds_excess_load() {
        // A burst far beyond queue + pipeline capacity at t = 0: the first
        // request dispatches immediately, four more fit in the queue, and
        // the rest are shed (the queue only drains at the admission
        // interval, long after the instantaneous burst has passed).
        let requests = classical_requests(&[0.0; 40], 6, 64);
        let report = machine(64, 2, Some(4))
            .serve(&checkerboard(64), requests, Vec::new())
            .unwrap();
        assert_eq!(report.completed().len(), 5);
        assert_eq!(report.shed_count(ShedReason::QueueFull), 35);
        let shed: Vec<usize> = report.shed().iter().map(|s| s.id).collect();
        assert_eq!(shed, (5..40).collect::<Vec<_>>(), "shed in arrival order");
        let ids: Vec<usize> = report.completed().iter().map(|c| c.id).collect();
        assert_eq!(ids, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn unsorted_submissions_are_ordered_by_arrival() {
        let mut requests = classical_requests(&[30.0, 0.0, 60.0, 15.0], 6, 64);
        requests.swap(0, 2);
        let report = serve_machine(64, 2, requests);
        let ids: Vec<usize> = report.completed().iter().map(|c| c.id).collect();
        assert_eq!(ids, vec![1, 3, 0, 2]);
    }

    #[test]
    fn throughput_window_excludes_idle_prefix() {
        // A trace starting deep into virtual time reports the same
        // sustained rate as the identical trace shifted to t = 0.
        let run = |offset: f64| {
            let arrivals: Vec<f64> = (0..10).map(|i| offset + 3.0 * i as f64).collect();
            serve_machine(64, 2, classical_requests(&arrivals, 6, 64))
        };
        let at_zero = run(0.0);
        let delayed = run(10_000.0);
        assert!(at_zero.query_rate().get() > 0.0);
        assert!((delayed.window() - at_zero.window()).get().abs() < 1e-9);
        assert!((delayed.query_rate().get() - at_zero.query_rate().get()).abs() < 1e-6);
    }

    #[test]
    fn empty_run_reports_zero_rates_without_panicking() {
        let report = serve_machine(64, 2, Vec::new());
        assert_eq!(report.window(), Layers::ZERO);
        assert_eq!(report.query_rate(), QueryRate::ZERO);
        assert_eq!(report.latency_histogram().p99(), None);
    }

    #[test]
    fn mismatched_address_width_rejected() {
        let mut requests = classical_requests(&[0.0, 1.0], 6, 64);
        requests[1].address = AddressState::classical(3, 1).unwrap();
        let refused = machine(64, 2, None).serve(&checkerboard(64), requests, Vec::new());
        assert!(matches!(
            refused,
            Err(ServeError::AddressWidth {
                id: 1,
                width: 3,
                expected: 6
            })
        ));
    }

    /// An 8-bit memory of `cells` zeros.
    fn zeros(cells: usize) -> ClassicalMemory {
        ClassicalMemory::from_words(8, &vec![0; cells]).unwrap()
    }

    /// Serves two reads and `writes` on an R = 2, K = 2, 64-cell fleet
    /// over `memory`, through every entry point (`serve` ignores `plan`
    /// and `config`). Returns what each returned, and the durable epoch
    /// `serve_durable` left its store at, a store created from `memory`.
    fn serve_under(
        memory: &ClassicalMemory,
        writes: &[FleetWrite],
        plan: &FaultPlan,
        config: &FaultConfig,
    ) -> (Vec<Result<FleetReport, ServeError>>, u64) {
        let fleet = || {
            let qram = ShardedQram::fat_tree(cap(64), 2);
            QramFleet::fifo(qram, 2, TimingModel::paper_default())
        };
        let requests = classical_requests(&[0.0, 100.0], 6, 64);
        let mut store =
            DurableFleet::create(Box::new(qram_core::store::SimDir::new()), memory).unwrap();
        let results = vec![
            fleet().serve(memory, requests.clone(), writes.to_vec()),
            fleet().serve_with_faults(memory, requests.clone(), writes.to_vec(), plan, config),
            fleet().serve_durable(memory, requests, writes.to_vec(), plan, config, &mut store),
        ];
        (results, store.durable_epoch())
    }

    /// [`serve_under`] with the empty plan and the default config.
    fn serve_writes(
        memory: &ClassicalMemory,
        writes: &[FleetWrite],
    ) -> (Vec<Result<FleetReport, ServeError>>, u64) {
        serve_under(memory, writes, &FaultPlan::none(), &FaultConfig::default())
    }

    fn write(origin: usize, address: u64, value: u64) -> FleetWrite {
        FleetWrite {
            at: Layers::new(10.0),
            origin,
            address,
            value,
        }
    }

    #[test]
    fn a_write_origin_outside_the_fleet_is_refused() {
        let writes = [write(1, 0, 1), write(2, 0, 1)];
        for refused in serve_writes(&zeros(64), &writes).0 {
            assert!(matches!(
                refused,
                Err(ServeError::WriteOrigin {
                    write: 1,
                    origin: 2,
                    replicas: 2
                })
            ));
        }
    }

    #[test]
    fn a_write_cell_outside_the_memory_is_refused() {
        // The first write is valid: the check runs before any commits.
        let writes = [write(0, 63, 1), write(0, 64, 1)];
        for refused in serve_writes(&zeros(64), &writes).0 {
            assert!(matches!(
                refused,
                Err(ServeError::WriteCell {
                    write: 1,
                    address: 64,
                    cells: 64
                })
            ));
        }
    }

    #[test]
    fn a_write_value_wider_than_the_bus_is_refused() {
        let writes = [write(0, 5, 255), write(1, 5, 256)];
        for refused in serve_writes(&zeros(64), &writes).0 {
            assert!(matches!(
                refused,
                Err(ServeError::WriteValue {
                    write: 1,
                    value: 256,
                    bus_width: 8
                })
            ));
        }
        // The widest value that fits serves.
        for report in serve_writes(&zeros(64), &writes[..1]).0 {
            assert_eq!(report.unwrap().fleet_epoch(), 1);
        }
    }

    #[test]
    fn a_memory_of_the_wrong_size_is_refused_before_the_run() {
        // The one write is valid on either memory: the check runs before
        // any commits, so the store syncs nothing.
        for cells in [32, 128] {
            let (results, durable_epoch) = serve_writes(&zeros(cells), &[write(0, 5, 1)]);
            for refused in results {
                assert!(
                    matches!(
                        refused,
                        Err(ServeError::MemoryCapacity { cells: c, capacity: 64 }) if c == cells
                    ),
                    "{cells} cells: {refused:?}"
                );
            }
            assert_eq!(durable_epoch, 0, "{cells} cells");
        }
    }

    #[test]
    fn an_unservable_plan_entry_or_config_field_is_refused_by_name() {
        // Each plan entry sits behind a servable one, so the error must
        // name index 1; the one write is valid, so a refused durable run
        // must leave the store's epoch at 0.
        let (at, until) = (Layers::new(20.0), Layers::new(40.0));
        let slow = |replica, factor| Fault::SlowReplica {
            replica,
            from: at,
            until,
            factor,
        };
        let stall = |replica, shard, until| Fault::StallShard {
            replica,
            shard,
            from: at,
            until,
        };
        let faults = [
            Fault::Crash { replica: 2, at },
            Fault::Recover { replica: 2, at },
            Fault::CorruptOutcome {
                replica: 2,
                dispatch: 0,
            },
            Fault::DiskCorrupt {
                replica: 2,
                at,
                cell: 0,
            },
            slow(2, 2.0),
            slow(0, f64::NAN),
            slow(0, 0.5),
            slow(0, f64::INFINITY),
            slow(0, 1e308),
            stall(2, 0, until),
            stall(0, 2, until),
            stall(0, 0, Layers::new(10.0)),
        ];
        let writes = [write(0, 5, 1)];
        for fault in faults {
            let plan = FaultPlan::none()
                .with(Fault::DropReplication { epoch: 9 })
                .with(fault);
            let (results, epoch) = serve_under(&zeros(64), &writes, &plan, &FaultConfig::default());
            // Debug text compares a NaN factor too.
            let (want, got) = (format!("{fault:?}"), |f: &Fault| format!("{f:?}"));
            for refused in &results[1..] {
                assert!(
                    matches!(refused, Err(ServeError::Fault { index: 1, fault: f }) if got(f) == want),
                    "{want}: {refused:?}"
                );
            }
            assert_eq!(epoch, 0, "{fault:?}");
        }
        let default = FaultConfig::default();
        let brownout = |high, low| Some(BrownoutConfig { high, low });
        let (scrub, endless) = (
            Some(Layers::new(50.0)),
            GroupCommitPolicy::group(4, f64::INFINITY),
        );
        let configs = [
            (
                "monitor_interval",
                FaultConfig {
                    monitor_interval: Layers::ZERO,
                    brownout: brownout(0.75, 0.4),
                    ..default
                },
            ),
            (
                "brownout",
                FaultConfig {
                    brownout: brownout(0.3, 0.5),
                    ..default
                },
            ),
            (
                "brownout",
                FaultConfig {
                    brownout: brownout(0.5, f64::NAN),
                    ..default
                },
            ),
            (
                "scrub_interval",
                FaultConfig {
                    scrub_interval: Some(Layers::ZERO),
                    ..default
                },
            ),
            (
                "scrub_chunk_cells",
                FaultConfig {
                    scrub_interval: scrub,
                    scrub_chunk_cells: 0,
                    ..default
                },
            ),
            (
                "group_commit",
                FaultConfig {
                    scrub_interval: scrub,
                    group_commit: endless,
                    ..default
                },
            ),
        ];
        for (field, config) in configs {
            let (results, epoch) = serve_under(&zeros(64), &writes, &FaultPlan::none(), &config);
            for refused in &results[1..] {
                assert!(
                    matches!(refused, Err(ServeError::FaultConfig { field: f }) if *f == field),
                    "{field}: {refused:?}"
                );
            }
            assert_eq!(epoch, 0, "{field}");
        }
        // The same values serve where nothing reads them: no monitor, no
        // scrubber, and no log but serve_durable's.
        let unread = FaultConfig {
            monitor_interval: Layers::ZERO,
            scrub_chunk_cells: 0,
            group_commit: endless,
            ..default
        };
        let (results, _) = serve_under(&zeros(64), &writes, &FaultPlan::none(), &unread);
        assert!(results[1].is_ok(), "{:?}", results[1]);
        assert!(matches!(
            results[2],
            Err(ServeError::FaultConfig {
                field: "group_commit"
            })
        ));
    }

    #[test]
    fn consistent_hash_spreads_a_uniform_sweep_exactly() {
        let qram = ShardedQram::fat_tree(cap(64), 2);
        let fleet = QramFleet::fifo(qram, 4, TimingModel::paper_default());
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
            let fleet = QramFleet::fifo(qram, replicas, TimingModel::paper_default());
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
        let fleet = QramFleet::new(
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
        let fleet = QramFleet::new(
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
        let fleet = QramFleet::new(
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
        let fleet = QramFleet::new(
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
