//! The one serving loop: the state of a run, one handler method per
//! reactor event, and the per-replica §7.2 sweep that executes what the
//! run dispatched.
//!
//! An admitted query costs the loop as little as its schedule allows:
//!
//! * **One tenant table per run.** [`Run::new`] asks the admission
//!   policy for each distinct tenant's terms once, into a table sorted by
//!   [`TenantId`] that also keeps the tenant's outstanding count. An
//!   arrival finds its row by binary search, and its query state keeps
//!   the row for retries, hedges and resolution. This relies on the
//!   [`AdmissionPolicy`] contract that a tenant's terms depend only on
//!   the tenant.
//! * **No pump that cannot act.** [`Run::pump`] returns before it reads
//!   the replicated memory when the replica's dispatcher is idle at the
//!   instant ([`Replica::is_idle_at`]): its queue is empty, or its front
//!   waits for a poll armed later.
//! * **One pass per batch.** A query state counts its dispatch records
//!   as the pumps report them, so [`Run::finish`] builds each replica's
//!   batch straight from the query states, moving each address at its
//!   query's last dispatch.

use std::iter::Peekable;

use qram_core::store::{DurableFleet, StoreError};
use qram_core::{JournalEntry, QramModel, ReplicatedMemory, ReplicatedWrite, ShardedQram};
use qram_metrics::{AvailabilityCounters, Layers};
use qram_sched::{AdmissionPolicy, RetryPolicy, SloClass, TenantId};
use qsim::branch::{AddressState, ClassicalMemory, QueryOutcome};

use crate::durability::{self, Durability};
use crate::fault::{
    corrupt_outcome, parity_bit, BrownoutController, Fault, FaultConfig, FaultPlan, ReplicaHealth,
    ReplicationFate,
};
use crate::fleet::{
    FleetRequest, FleetWrite, PlacementPolicy, QramFleet, ReplicaLoad, ServeError, ShedReason,
    ShedRequest,
};
use crate::reactor::{order_key, EventQueue};
use crate::replica::{Replica, ReplicaEvent};
use crate::report::{FleetQuery, FleetReport};

/// A completion whose service time exceeds this many nominal latencies
/// marks its replica [`ReplicaHealth::Suspect`].
const LATENCY_MARGIN: f64 = 4.0;

/// Virtual layers a recovering replica replays per lagged log entry
/// before it rejoins rotation.
const REPLAY_PER_ENTRY: f64 = 1.0;

/// Reactor events of the fleet, in virtual layer time. Arrivals live in a
/// sorted list merged against the event queue (arrival-first at ties).
#[derive(Debug)]
enum Event {
    /// The run's write at this index (in supply order) commits at its
    /// origin replica. Every write is pushed before the run starts, in
    /// supply order, onto the writes lane (out-of-order ones go to the
    /// heap), so writes at one instant commit in supply order and before
    /// any event pushed later at that instant.
    Write(usize),
    /// The log prefix up to `epoch` reaches every replica.
    Replicate { epoch: u64 },
    /// Record `index` of `replica`'s dispatch log leaves its pipeline.
    /// Pushed onto `replica`'s completion lane.
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

/// The run's one record of a dispatch, appended when the replica's pump
/// reports it; its completion and the plan's corruption name its index.
#[derive(Debug, Clone, Copy)]
struct Dispatch {
    /// The admitted query it serves (an index into the query states).
    qid: usize,
    /// The dispatch (admission) instant.
    start: Layers,
    /// The shard it ran on.
    shard: usize,
    /// The memory epoch its replica had applied at dispatch.
    epoch: u64,
    /// True when that epoch trailed the fleet epoch.
    stale: bool,
    /// Its completion was consumed, or a crash invalidated it.
    handled: bool,
}

/// The serving loop's bookkeeping for one admitted query, and the one
/// owner of its request. A replica queues and dispatches the query by
/// its index, a retry re-places the request where it lies, and
/// [`Run::finish`] moves the address into the batch of the query's last
/// dispatch, so no path copies it but a second dispatch.
#[derive(Debug)]
struct QueryState {
    /// The admitted request, address included.
    request: FleetRequest,
    deadline: Option<Layers>,
    /// Its tenant's row in the run's tenant table.
    row: u32,
    /// Dispatch attempts consumed, counting the first.
    attempts: u32,
    /// Live copies: queued or in-flight offers of this query.
    outstanding: u32,
    /// The dispatch records naming it, across every replica's log.
    dispatches: u32,
    /// Resolved — completed or shed. Terminal.
    done: bool,
    last_replica: usize,
    /// The replica its one hedged copy went to.
    hedge_replica: Option<usize>,
}

/// One row of a run's tenant table: a tenant's terms, asked of the
/// admission policy once per run, and its outstanding count.
#[derive(Debug)]
struct TenantTerms {
    tenant: TenantId,
    /// The cap on its outstanding queries ([`AdmissionPolicy::tenant_quota`]).
    quota: Option<u32>,
    /// Its shedding class ([`AdmissionPolicy::tenant_slo`]).
    slo: SloClass,
    /// The class's share of a bounded replica queue, if queues are bounded.
    slo_bound: Option<usize>,
    /// Its per-query budget ([`AdmissionPolicy::tenant_deadline`]).
    deadline: Option<Layers>,
    /// Its admitted queries not yet resolved, against `quota`.
    outstanding: u32,
}

/// One replica of a serving run: its admission core, its dispatch log,
/// and what the failure detector knows about it.
#[derive(Debug)]
pub(crate) struct ReplicaState {
    core: Replica,
    /// The dispatch log, in dispatch order. A crash marks its in-flight
    /// records handled, so completed work keeps its indices.
    dispatches: Vec<Dispatch>,
    health: ReplicaHealth,
    /// False from a crash until its recovery.
    pub(crate) alive: bool,
    /// Consecutive monitor ticks the dead replica missed.
    misses: u32,
    down_since: Option<Layers>,
    /// The instant its armed `RejoinDone` fires; a re-crash during
    /// replay clears it, making that firing stale.
    rejoin_at: Option<f64>,
    /// Queries stranded here by a crash, failed over when the detector
    /// declares the replica Down or it recovers, whichever comes first.
    pending_failover: Vec<usize>,
}

impl ReplicaState {
    /// The load and health the placement policy ranks this replica by.
    fn load(&self) -> ReplicaLoad {
        ReplicaLoad {
            queued: self.core.queued(),
            in_flight: self.core.in_flight(),
            has_room: self.core.has_queue_room(),
            health: self.health,
        }
    }

    /// One monitor heartbeat: a live replica clears its misses and any
    /// Suspect verdict; a dead one is Suspect after one miss and Down
    /// after two. True when this tick declared it Down.
    fn heartbeat(&mut self) -> bool {
        if self.alive {
            self.misses = 0;
            if self.health == ReplicaHealth::Suspect {
                self.health = ReplicaHealth::Healthy;
            }
            return false;
        }
        self.misses += 1;
        if self.health == ReplicaHealth::Down {
            return false;
        }
        self.health = match self.misses {
            1 => ReplicaHealth::Suspect,
            _ => ReplicaHealth::Down,
        };
        self.health == ReplicaHealth::Down
    }
}

/// The one serving loop behind every entry point: seeds a [`Run`], drains
/// its reactor, and executes and reports what it dispatched. A free
/// function, so the run's methods share its codegen unit and inline into it.
pub(crate) fn serve_faulty<M: QramModel, P: AdmissionPolicy, L: PlacementPolicy>(
    fleet: &QramFleet<M, P, L>,
    memory: &ClassicalMemory,
    requests: impl IntoIterator<Item = FleetRequest>,
    writes: impl IntoIterator<Item = FleetWrite>,
    plan: &FaultPlan,
    fault_config: &FaultConfig,
    store: Option<&mut DurableFleet>,
) -> Result<FleetReport, ServeError> {
    if fleet.config.queue_capacity == Some(0) {
        return Err(ServeError::ZeroQueueCapacity);
    }
    let requests: Vec<FleetRequest> = requests.into_iter().collect();
    let writes: Vec<FleetWrite> = writes.into_iter().collect();
    let durable = store.is_some() || durability::needs_store(plan, fault_config);
    check_inputs(fleet, memory, &requests, &writes)?;
    check_faults(fleet, plan, fault_config, durable)?;
    let mut ephemeral = None;
    let mut run = Run::new(fleet, memory, requests, writes, plan, fault_config);
    run.durability = Durability::open(store, &mut ephemeral, memory, plan, fault_config)?;
    run.schedule_faults();
    run.run()?;
    run.finish(memory)
}

/// Refuses caller input the run could not serve, before it starts: a
/// memory whose cell count is not the capacity, a request whose address
/// width is not the capacity's, and a write to a replica the fleet lacks,
/// to a cell outside `memory`, or of a value wider than its bus.
fn check_inputs<M: QramModel, P: AdmissionPolicy, L: PlacementPolicy>(
    fleet: &QramFleet<M, P, L>,
    memory: &ClassicalMemory,
    requests: &[FleetRequest],
    writes: &[FleetWrite],
) -> Result<(), ServeError> {
    let (cells, capacity) = (memory.capacity(), fleet.backend.capacity());
    if cells as u64 != capacity.get() {
        let capacity = capacity.get();
        return Err(ServeError::MemoryCapacity { cells, capacity });
    }
    let expected = capacity.address_width();
    if let Some(request) = (requests.iter()).find(|r| r.address.address_width() != expected) {
        return Err(ServeError::AddressWidth {
            id: request.id,
            width: request.address.address_width(),
            expected,
        });
    }
    let (replicas, bus_width) = (fleet.num_replicas(), memory.bus_width());
    for (write, w) in writes.iter().enumerate() {
        let FleetWrite {
            origin,
            address,
            value,
            ..
        } = *w;
        if origin >= replicas {
            return Err(ServeError::WriteOrigin {
                write,
                origin,
                replicas,
            });
        }
        if address >= cells as u64 {
            return Err(ServeError::WriteCell {
                write,
                address,
                cells,
            });
        }
        if value >> bus_width != 0 {
            return Err(ServeError::WriteValue {
                write,
                value,
                bus_width,
            });
        }
    }
    Ok(())
}

/// Refuses a fault plan entry or config field the run could not serve,
/// before it starts (see [`ServeError::Fault`] and
/// [`ServeError::FaultConfig`]); `durable` says the run logs its writes.
fn check_faults<M: QramModel, P: AdmissionPolicy, L: PlacementPolicy>(
    fleet: &QramFleet<M, P, L>,
    plan: &FaultPlan,
    config: &FaultConfig,
    durable: bool,
) -> Result<(), ServeError> {
    let replicas = fleet.num_replicas();
    let shards = fleet.backend.num_shards() as usize;
    let latency = fleet.equivalent_server().latency().get();
    for (index, &fault) in plan.faults().iter().enumerate() {
        let servable = match fault {
            Fault::Crash { replica, .. }
            | Fault::Recover { replica, .. }
            | Fault::CorruptOutcome { replica, .. }
            | Fault::DiskCorrupt { replica, .. } => replica < replicas,
            Fault::SlowReplica {
                replica, factor, ..
            } => replica < replicas && factor >= 1.0 && (latency * factor).is_finite(),
            Fault::StallShard {
                replica,
                shard,
                from,
                until,
            } => replica < replicas && shard < shards && from <= until,
            Fault::DropReplication { .. }
            | Fault::DelayReplication { .. }
            | Fault::TornWrite { .. } => true,
        };
        if !servable {
            return Err(ServeError::Fault { index, fault });
        }
    }
    let field = if monitors(plan, config) && config.monitor_interval == Layers::ZERO {
        "monitor_interval"
    } else if config.brownout.is_some_and(|b| !b.is_valid()) {
        "brownout"
    } else if config.scrub_interval == Some(Layers::ZERO) {
        "scrub_interval"
    } else if config.scrub_interval.is_some() && config.scrub_chunk_cells == 0 {
        "scrub_chunk_cells"
    } else if durable && !config.group_commit.max_delay.is_finite() {
        "group_commit"
    } else {
        return Ok(());
    };
    Err(ServeError::FaultConfig { field })
}

/// True when the run keeps a health monitor: a non-empty plan, a
/// brownout controller or the adaptive group commit.
fn monitors(plan: &FaultPlan, config: &FaultConfig) -> bool {
    !plan.is_empty() || config.brownout.is_some() || config.adaptive_group_commit.is_some()
}

/// The state of one serving run: the replicas, the reactor's event queue
/// and pending arrivals, every admitted query, the shed list, the tenant
/// table, both ledgers and the durability tier. Each event kind has one
/// handler method; a handler that may unblock a dispatcher ends by
/// pumping it.
pub(crate) struct Run<'a, M: QramModel, P: AdmissionPolicy, L: PlacementPolicy> {
    fleet: &'a QramFleet<M, P, L>,
    plan: &'a FaultPlan,
    config: &'a FaultConfig,
    /// One replica's nominal query latency.
    latency: Layers,
    /// A non-empty plan, a brownout controller or the adaptive group
    /// commit runs the health monitor. Nothing else schedules a monitor
    /// or fault event, so the empty plan keeps the reactor's event
    /// sequence, and its FIFO tie-breaks, identical to the fault-free loop.
    monitoring: bool,
    has_slow: bool,
    /// The backoff budget of every lost attempt.
    retry: RetryPolicy,
    /// Brownout occupancy slots per replica: in-flight cap + queue bound.
    replica_slots: usize,
    replicas: Vec<ReplicaState>,
    /// Each replica's journal records the cell changes it applies; a
    /// dispatch's stamped epoch selects its prefix at execution. The
    /// replicas borrow the caller's memory until their first change.
    replicated: ReplicatedMemory<'a>,
    /// The event heap beside one completion lane per replica and, after
    /// them, the writes lane.
    events: EventQueue<Event>,
    /// Sorted arrivals, merged against the events (arrival-first at ties).
    arrivals: Peekable<std::vec::IntoIter<FleetRequest>>,
    writes: Vec<FleetWrite>,
    states: Vec<QueryState>,
    /// Admitted queries not yet completed or shed.
    open: usize,
    /// One row per distinct tenant of the run's requests, sorted by id.
    tenants: Vec<TenantTerms>,
    completed: Vec<FleetQuery>,
    /// The (replica, dispatch index) that served each completed query.
    completed_dispatch: Vec<(usize, usize)>,
    corrupted_served: Vec<(usize, usize)>,
    shed: Vec<ShedRequest>,
    counters: AvailabilityCounters,
    brownout: Option<BrownoutController>,
    pub(crate) durability: Option<Durability<'a>>,
    /// Fleet epochs whose Replicate fan-out is already scheduled (see
    /// [`Run::schedule_replication`]).
    repl_scheduled: u64,
    /// The placement snapshot, refilled before every placement.
    loads: Vec<ReplicaLoad>,
}

impl<'a, M: QramModel, P: AdmissionPolicy, L: PlacementPolicy> Run<'a, M, P, L> {
    /// A run of `fleet` over `requests`, sorted by arrival instant (the
    /// stable sort keeps supply order among ties), with one commit event
    /// scheduled per write, in supply order, on the writes lane. Its
    /// replicas borrow `memory` as their base image and copy it only on
    /// their first change, so a read-only run copies no image. Each
    /// distinct tenant of the requests gets one row of terms, asked of
    /// the admission policy here and nowhere else.
    pub(crate) fn new(
        fleet: &'a QramFleet<M, P, L>,
        memory: &'a ClassicalMemory,
        mut arrivals: Vec<FleetRequest>,
        writes: Vec<FleetWrite>,
        plan: &'a FaultPlan,
        config: &'a FaultConfig,
    ) -> Self {
        let server = fleet.equivalent_server();
        let aggregate_cap = fleet
            .policy
            .in_flight_cap(&server)
            .clamp(1, server.parallelism());
        let backend = &fleet.backend;
        let queue_capacity = fleet.config.queue_capacity;
        let replicas: Vec<ReplicaState> = (0..fleet.replicas)
            .map(|_| ReplicaState {
                core: Replica::new(
                    backend.num_shards() as usize,
                    backend.shard_parallelism(),
                    server.interval(),
                    aggregate_cap,
                    queue_capacity,
                ),
                dispatches: Vec::new(),
                health: ReplicaHealth::Healthy,
                alive: true,
                misses: 0,
                down_since: None,
                rejoin_at: None,
                pending_failover: Vec::new(),
            })
            .collect();
        arrivals.sort_by_key(|r| order_key(r.arrival.get()));
        let mut ids: Vec<TenantId> = arrivals.iter().map(|r| r.tenant).collect();
        ids.sort_unstable();
        ids.dedup();
        let policy = &fleet.policy;
        let tenants = (ids.into_iter())
            .map(|tenant| {
                let slo = policy.tenant_slo(tenant);
                TenantTerms {
                    tenant,
                    quota: policy.tenant_quota(tenant),
                    slo,
                    slo_bound: queue_capacity.map(|cap| slo.queue_bound(cap)),
                    deadline: policy.tenant_deadline(tenant),
                    outstanding: 0,
                }
            })
            .collect();
        let total = arrivals.len();
        let n = replicas.len();
        let mut events = EventQueue::with_lanes(n + 1);
        for (i, write) in writes.iter().enumerate() {
            events.push_lane(n, write.at, Event::Write(i));
        }
        let brownout = config.brownout.map(BrownoutController::new);
        let cap = aggregate_cap as usize;
        Run {
            plan,
            config,
            latency: server.latency(),
            monitoring: monitors(plan, config),
            has_slow: plan.has_slow_faults(),
            retry: RetryPolicy::default(),
            replica_slots: cap + queue_capacity.unwrap_or(4 * cap),
            replicated: ReplicatedMemory::borrowed(memory, replicas.len()),
            loads: Vec::with_capacity(replicas.len()),
            replicas,
            events,
            arrivals: arrivals.into_iter().peekable(),
            writes,
            states: Vec::with_capacity(total),
            open: 0,
            tenants,
            completed: Vec::with_capacity(total),
            completed_dispatch: Vec::with_capacity(total),
            corrupted_served: Vec::new(),
            shed: Vec::new(),
            counters: AvailabilityCounters::default(),
            brownout,
            durability: None,
            repl_scheduled: 0,
            fleet,
        }
    }

    /// Schedules, when monitoring, the plan's fault events and the first
    /// monitor tick, then, when scrubbing, the first scrub tick. Every
    /// replica, shard and interval they name was checked before the run
    /// (`check_faults`).
    pub(crate) fn schedule_faults(&mut self) {
        let events = &mut self.events;
        if self.monitoring {
            for fault in self.plan.faults() {
                let (at, event) = match *fault {
                    Fault::Crash { replica, at } => (at, Event::Crash { replica }),
                    Fault::Recover { replica, at } => (at, Event::Recover { replica }),
                    Fault::DiskCorrupt { replica, at, cell } => {
                        (at, Event::DiskCorrupt { replica, cell })
                    }
                    Fault::StallShard {
                        replica,
                        shard,
                        from,
                        until,
                    } => {
                        events.push(from, Event::StallStart { replica, shard });
                        (until, Event::StallEnd { replica, shard })
                    }
                    Fault::SlowReplica { .. }
                    | Fault::CorruptOutcome { .. }
                    | Fault::DropReplication { .. }
                    | Fault::DelayReplication { .. }
                    | Fault::TornWrite { .. } => continue,
                };
                events.push(at, event);
            }
            events.push(self.config.monitor_interval, Event::MonitorTick);
        }
        if let (Some(interval), Some(_)) = (self.config.scrub_interval, &self.durability) {
            events.push(interval, Event::ScrubTick);
        }
    }

    /// Runs the reactor until every arrival and event is handled. An
    /// arrival at the same instant as a queued event goes first: each
    /// iteration pops the next event due strictly before the next
    /// arrival, or else routes that arrival.
    pub(crate) fn run(&mut self) -> Result<(), StoreError> {
        loop {
            let next_arrival = self.arrivals.peek().map(|request| request.arrival);
            let Some((now, event)) = self.events.pop_before(next_arrival) else {
                match self.arrivals.next() {
                    Some(request) => self.on_arrival(request),
                    None => return Ok(()),
                }
                continue;
            };
            match event {
                Event::Write(i) => self.on_write(now, i)?,
                Event::Replicate { epoch } => self.on_replicate(epoch),
                Event::Completion { replica, index } => self.on_completion(now, replica, index),
                Event::Poll { replica } => self.on_poll(now, replica),
                Event::Crash { replica } => self.on_crash(now, replica),
                Event::Recover { replica } => self.on_recover(now, replica),
                Event::RejoinDone { replica } => self.on_rejoin(now, replica)?,
                Event::StallStart { replica, shard } => self.on_stall(now, replica, shard, true),
                Event::StallEnd { replica, shard } => self.on_stall(now, replica, shard, false),
                Event::MonitorTick => self.on_monitor_tick(now),
                Event::ScrubTick => self.on_scrub_tick(now)?,
                Event::WalFlush { seq } => self.on_wal_flush(now, seq)?,
                Event::DiskCorrupt { replica, cell } => self.on_disk_corrupt(replica, cell),
                Event::Retry { qid } => self.on_retry(now, qid),
                Event::HedgeCheck { qid } => self.on_hedge_check(now, qid),
                Event::Expired { qid } => self.on_expired(qid),
            }
        }
    }

    /// An arrival reaches the router: it is shed with a reason, or
    /// admitted at the placed replica.
    fn on_arrival(&mut self, request: FleetRequest) {
        let row = (self.tenants)
            .binary_search_by_key(&request.tenant, |terms| terms.tenant)
            .expect("every request's tenant has a row");
        match self.route(&request, row) {
            Ok(target) => {
                let now = request.arrival;
                self.admit(request, target, row);
                self.pump(now, target);
            }
            Err(reason) => self.shed.push(ShedRequest {
                id: request.id,
                tenant: request.tenant,
                reason,
            }),
        }
    }

    /// The router's verdict on an arrival of the tenant in table row
    /// `row`: brownout, then the tenant's quota, then placement, the
    /// placed replica's health, and the tenant's SLO share of its queue.
    fn route(&mut self, request: &FleetRequest, row: usize) -> Result<usize, ShedReason> {
        let terms = &self.tenants[row];
        if self.brownout.as_ref().is_some_and(|c| c.sheds(terms.slo)) {
            return Err(ShedReason::Brownout);
        }
        if terms.quota.is_some_and(|quota| terms.outstanding >= quota) {
            return Err(ShedReason::QuotaExceeded);
        }
        let slo_bound = terms.slo_bound;
        let target = place(
            &self.fleet.placement,
            &self.replicas,
            &mut self.loads,
            request,
        );
        if !self.loads[target].routable() {
            return Err(ShedReason::NoHealthyReplica);
        }
        let core = &self.replicas[target].core;
        if slo_bound.is_some_and(|bound| core.queued() >= bound) {
            return Err(if core.has_queue_room() {
                ShedReason::SloShed
            } else {
                ShedReason::QueueFull
            });
        }
        Ok(target)
    }

    /// Queues an admitted arrival of the tenant in table row `row` at
    /// `target` and opens its query state, arming a hedge check for an
    /// Interactive tenant when hedging is on.
    fn admit(&mut self, request: FleetRequest, target: usize, row: usize) {
        let (qid, arrival) = (self.states.len(), request.arrival);
        let terms = &mut self.tenants[row];
        terms.outstanding += 1;
        let (slo, deadline) = (terms.slo, terms.deadline.map(|budget| arrival + budget));
        let core = &mut self.replicas[target].core;
        let offered = core.offer(qid, arrival, deadline);
        debug_assert!(offered, "the SLO bound is at most the queue bound");
        self.states.push(QueryState {
            request,
            deadline,
            row: row as u32,
            attempts: 1,
            outstanding: 1,
            dispatches: 0,
            done: false,
            last_replica: target,
            hedge_replica: None,
        });
        self.open += 1;
        if let Some(delay) = self.config.hedge_delay {
            if slo == SloClass::Interactive {
                let check = arrival + delay;
                self.events.push(check, Event::HedgeCheck { qid });
            }
        }
    }

    /// The run's write at index `i` commits. A write addressed at a dead
    /// origin commits at the first live replica instead: writes survive
    /// crashes even when the client's affinity target is down.
    fn on_write(&mut self, now: Layers, i: usize) -> Result<(), StoreError> {
        let write = self.writes[i];
        let alive = |r: usize| self.replicas[r].alive;
        let origin = if alive(write.origin) {
            write.origin
        } else {
            (0..self.replicas.len())
                .find(|&r| alive(r))
                .unwrap_or(write.origin)
        };
        let epoch = self.replicated.write_at(origin, write.address, write.value);
        // Ack-at-sync: with a durability tier, replication (and with it
        // the stale-read watermark) only fans out from synced epochs.
        let mut replicate_to = self.durability.is_none().then_some(epoch);
        if let Some(d) = self.durability.as_mut() {
            // Log the write before replication fans out: the commit-group
            // sync is the acknowledgment point. A planned torn write arms
            // the lying-disk hook — the append reports success, the platter
            // keeps a partial record, and a later scrub's rescan repairs it.
            let w = ReplicatedWrite {
                epoch,
                origin,
                address: write.address,
                value: write.value,
            };
            let summary = d.append(&w, self.plan.tears(epoch))?;
            if summary.synced_records > 0 {
                replicate_to = Some(d.synced_fleet_epoch());
            } else if d.store.pending_records() == 1 {
                // This write opened a fresh commit group: arm its flush
                // deadline so a lull in writes cannot hold the
                // acknowledgment hostage.
                let delay = d.store.group_commit().max_delay;
                if delay > 0.0 {
                    let flush = Event::WalFlush { seq: d.syncs };
                    self.events.push(now + Layers::new(delay), flush);
                }
            }
        }
        if let Some(to) = replicate_to {
            self.schedule_replication(now, to);
        }
        Ok(())
    }

    /// The log prefix up to `epoch` reaches every live replica. Dead
    /// replicas miss the catch-up; recovery replay carries them past it
    /// before they rejoin.
    fn on_replicate(&mut self, epoch: u64) {
        for (r, replica) in self.replicas.iter().enumerate() {
            if replica.alive {
                self.replicated.catch_up_to(r, epoch);
            }
        }
    }

    /// The `index`-th dispatch of replica `r` leaves its pipeline.
    fn on_completion(&mut self, now: Layers, r: usize, index: usize) {
        let replica = &mut self.replicas[r];
        let dispatch = replica.dispatches[index];
        if dispatch.handled {
            // A crash already failed this dispatch over.
            return;
        }
        replica.dispatches[index].handled = true;
        replica.core.release(dispatch.shard);
        // Completion-latency assertion: a replica serving far over nominal
        // is suspect.
        let slow = (now - dispatch.start).get() > self.latency.get() * LATENCY_MARGIN;
        if self.monitoring && replica.health == ReplicaHealth::Healthy && slow {
            replica.health = ReplicaHealth::Suspect;
        }
        let qid = dispatch.qid;
        if self.plan.corrupts(r, index) {
            self.corrupted_served.push((r, index));
            self.lose_attempt(now, qid);
        } else {
            let state = &mut self.states[qid];
            state.outstanding = state.outstanding.saturating_sub(1);
            // A done query's hedge copy already won.
            if !state.done {
                if state.hedge_replica == Some(r) {
                    self.counters.hedge_wins += 1;
                }
                let query = FleetQuery {
                    id: state.request.id,
                    tenant: state.request.tenant,
                    arrival: state.request.arrival,
                    start: dispatch.start,
                    finish: now,
                    replica: r,
                    shard: dispatch.shard,
                    epoch: dispatch.epoch,
                    stale: dispatch.stale,
                    attempts: state.attempts,
                };
                self.completed.push(query);
                self.completed_dispatch.push((r, index));
                self.resolve(qid);
            }
        }
        self.pump(now, r);
    }

    /// Replica `r`'s dispatcher wakes at an admission-interval boundary
    /// (a dead replica's wake-up is stale).
    fn on_poll(&mut self, now: Layers, r: usize) {
        if self.replicas[r].alive {
            self.replicas[r].core.ack_poll(now);
            self.pump(now, r);
        }
    }

    /// An injected crash takes replica `r` down: its queued copies (in
    /// accepted order), then its in-flight dispatches, are stranded for
    /// failover.
    fn on_crash(&mut self, now: Layers, r: usize) {
        let replica = &mut self.replicas[r];
        if !replica.alive {
            return;
        }
        replica.alive = false;
        replica.down_since = Some(now);
        replica.rejoin_at = None;
        self.counters.crashes += 1;
        let mut lost = replica.core.fail();
        for dispatch in replica.dispatches.iter_mut().filter(|d| !d.handled) {
            dispatch.handled = true;
            lost.push(dispatch.qid);
        }
        self.strand(r, lost);
    }

    /// An injected recovery restarts replica `r`: what it stranded fails
    /// over now, and it rejoins after replaying its replication lag.
    fn on_recover(&mut self, now: Layers, r: usize) {
        let replica = &mut self.replicas[r];
        if replica.alive {
            return;
        }
        replica.alive = true;
        replica.health = ReplicaHealth::Recovering;
        replica.misses = 0;
        self.fail_over(now, r);
        let replay = REPLAY_PER_ENTRY * self.replicated.lag(r) as f64;
        let rejoin = now + Layers::new(replay);
        self.replicas[r].rejoin_at = Some(rejoin.get());
        self.events.push(rejoin, Event::RejoinDone { replica: r });
    }

    /// Replica `r` finished replaying and rejoins rotation, unless a
    /// re-crash during replay made this firing stale.
    fn on_rejoin(&mut self, now: Layers, r: usize) -> Result<(), StoreError> {
        let replica = &mut self.replicas[r];
        if !replica.alive || replica.rejoin_at != Some(now.get()) {
            return Ok(());
        }
        replica.rejoin_at = None;
        // Land the open commit group so the rejoin audit sees the full
        // synced prefix, then reset the replica to the durable chain's
        // image at its watermark: replay from disk, not the in-memory log.
        self.flush_and_replicate(now)?;
        if let Some(d) = self.durability.as_mut() {
            d.rejoin_from_disk(r, &mut self.replicated)?;
        }
        // Drain whatever the durable chain did not cover from the
        // in-memory log (everything, when no durability tier is active).
        self.replicated.catch_up(r);
        let replica = &mut self.replicas[r];
        replica.health = ReplicaHealth::Healthy;
        self.counters.recoveries += 1;
        if let Some(since) = replica.down_since.take() {
            self.counters.record_downtime(now - since);
        }
        self.pump(now, r);
        Ok(())
    }

    /// An injected stall window on one of replica `r`'s shards opens or
    /// closes; a thaw re-pumps the dispatcher.
    fn on_stall(&mut self, now: Layers, r: usize, shard: usize, stalled: bool) {
        self.replicas[r].core.set_shard_stall(shard, stalled);
        if !stalled {
            self.pump(now, r);
        }
    }

    /// The health monitor's tick: heartbeats (failing over every replica
    /// this tick declares Down), brownout occupancy, the adaptive group
    /// commit, and the next tick while work remains.
    fn on_monitor_tick(&mut self, now: Layers) {
        for r in 0..self.replicas.len() {
            if self.replicas[r].heartbeat() {
                // Scoop queries offered between the crash and its
                // detection, then fail everything stranded here over.
                let lost = self.replicas[r].core.fail();
                self.strand(r, lost);
                self.fail_over(now, r);
            }
        }
        if let Some(controller) = self.brownout.as_mut() {
            let routable = self.replicas.iter().filter(|r| r.health.routable());
            let (count, load) = routable.fold((0, 0), |(n, l), r| (n + 1, l + r.core.load()));
            let occupancy = if count == 0 {
                1.0
            } else {
                load as f64 / (count * self.replica_slots) as f64
            };
            controller.observe(occupancy);
        }
        if let (Some(bounds), Some(d)) = (self.config.adaptive_group_commit, &mut self.durability) {
            d.adapt_group_commit(bounds);
        }
        if self.open > 0 || self.arrivals.peek().is_some() {
            let next = now + self.config.monitor_interval;
            self.events.push(next, Event::MonitorTick);
        }
    }

    /// The anti-entropy scrubber's tick: land the open commit group (and
    /// replicate what it synced) so the disk and the in-memory view
    /// describe the same prefix, audit, and re-arm while work remains.
    fn on_scrub_tick(&mut self, now: Layers) -> Result<(), StoreError> {
        self.flush_and_replicate(now)?;
        self.scrub()?;
        if let Some(interval) = self.config.scrub_interval {
            if self.open > 0 || self.arrivals.peek().is_some() {
                self.events.push(now + interval, Event::ScrubTick);
            }
        }
        Ok(())
    }

    /// An open commit group's flush deadline; stale when a fuller group
    /// already synced (`seq` moved on) or the group emptied.
    fn on_wal_flush(&mut self, now: Layers, seq: u64) -> Result<(), StoreError> {
        match &self.durability {
            Some(d) if d.syncs == seq && d.store.pending_records() > 0 => {
                self.flush_and_replicate(now)
            }
            _ => Ok(()),
        }
    }

    /// Media corruption: one bit flips in replica `r`'s live image,
    /// bypassing the replication log — invisible to staleness tracking,
    /// caught only by a scrub's chunk comparison. The journal tags the
    /// flip with the replica's applied epoch and every dispatch reads its
    /// epoch's final image, so reads of that version and later ones
    /// observe the flip until a scrub's repair; a repair within the same
    /// epoch cleans the whole version.
    fn on_disk_corrupt(&mut self, r: usize, cell: u64) {
        let cells = self.replicated.memory(r).capacity() as u64;
        self.replicated.corrupt_replica_cell(r, cell % cells);
    }

    /// A lost query's backoff elapsed: re-place and re-offer it. A failed
    /// placement (nowhere routable, or the queue full) consumes the
    /// attempt too, so the budget still bounds the loop.
    fn on_retry(&mut self, now: Layers, qid: usize) {
        let state = &self.states[qid];
        if state.done {
            return;
        }
        let target = place(
            &self.fleet.placement,
            &self.replicas,
            &mut self.loads,
            &state.request,
        );
        let offered = self.loads[target].routable() && self.reoffer(qid, target);
        let state = &mut self.states[qid];
        state.attempts += 1;
        if offered {
            state.outstanding += 1;
            state.last_replica = target;
            self.pump(now, target);
        } else {
            self.lose_attempt(now, qid);
        }
    }

    /// An Interactive query still waiting on its one copy gets a
    /// duplicate offer at the least-loaded other routable replica with
    /// queue room.
    fn on_hedge_check(&mut self, now: Layers, qid: usize) {
        let state = &self.states[qid];
        if state.done || state.outstanding != 1 || state.hedge_replica.is_some() {
            return;
        }
        let candidate = (0..self.replicas.len())
            .filter(|&r| {
                let replica = &self.replicas[r];
                replica.health.routable()
                    && replica.core.has_queue_room()
                    && r != state.last_replica
            })
            .min_by_key(|&r| (self.replicas[r].core.load(), r));
        let Some(target) = candidate else {
            return;
        };
        if self.reoffer(qid, target) {
            let state = &mut self.states[qid];
            state.hedge_replica = Some(target);
            state.outstanding += 1;
            self.counters.hedges += 1;
            self.pump(now, target);
        }
    }

    /// Offers another copy of admitted query `qid` to replica `target`.
    fn reoffer(&mut self, qid: usize, target: usize) -> bool {
        let s = &self.states[qid];
        let core = &mut self.replicas[target].core;
        core.offer(qid, s.request.arrival, s.deadline)
    }

    /// A queued copy of query `qid` expired at its deadline; the query
    /// sheds once no copy is left.
    fn on_expired(&mut self, qid: usize) {
        let state = &mut self.states[qid];
        state.outstanding = state.outstanding.saturating_sub(1);
        if !state.done && state.outstanding == 0 {
            self.counters.deadline_expirations += 1;
            self.finish_shed(qid, ShedReason::DeadlineExceeded);
        }
    }

    /// Runs replica `target`'s dispatcher at `now` (a dead replica, or
    /// one idle at `now`, dispatches nothing). Each dispatch it reports
    /// is appended to the replica's log, stamped with the memory version
    /// the replica observes, and counted on its query; its completion
    /// goes on the replica's lane.
    fn pump(&mut self, now: Layers, target: usize) {
        let replica = &mut self.replicas[target];
        if !replica.alive || replica.core.is_idle_at(now) {
            return;
        }
        // Replicated memory cannot change inside a pump, so every
        // dispatch it makes observes the same epoch.
        let epoch = self.replicated.applied_epoch(target);
        let stale = self.replicated.is_stale(target);
        let (events, states, plan, latency, has_slow) = (
            &mut self.events,
            &mut self.states,
            self.plan,
            self.latency,
            self.has_slow,
        );
        let dispatches = &mut replica.dispatches;
        replica.core.pump(now, |event| match event {
            ReplicaEvent::Dispatched { tag, start, shard } => {
                // A slow-replica window stretches the service time of
                // a dispatch starting inside it.
                let factor = if has_slow {
                    plan.slow_factor(target, start)
                } else {
                    1.0
                };
                let finish = start + Layers::new(latency.get() * factor);
                states[tag].dispatches += 1;
                let index = dispatches.len();
                dispatches.push(Dispatch {
                    qid: tag,
                    start,
                    shard,
                    epoch,
                    stale,
                    handled: false,
                });
                let replica = target;
                events.push_lane(replica, finish, Event::Completion { replica, index });
            }
            ReplicaEvent::Poll { at } => events.push(at, Event::Poll { replica: target }),
            ReplicaEvent::Expired { tag } => events.push(now, Event::Expired { qid: tag }),
        });
    }

    /// Copies of the `lost` queries died with crashed replica `r`:
    /// resolved queries just drop the copy, live ones wait there for
    /// failover.
    fn strand(&mut self, r: usize, lost: Vec<usize>) {
        for qid in lost {
            let state = &mut self.states[qid];
            if state.done {
                state.outstanding = state.outstanding.saturating_sub(1);
            } else {
                self.replicas[r].pending_failover.push(qid);
            }
        }
    }

    /// Fails every query stranded on replica `r` over: each loses its
    /// attempt and retries after its backoff, or sheds.
    fn fail_over(&mut self, now: Layers, r: usize) {
        for qid in std::mem::take(&mut self.replicas[r].pending_failover) {
            self.counters.failovers += 1;
            self.lose_attempt(now, qid);
        }
    }

    /// One dispatch attempt of query `qid` was lost (crash, corruption,
    /// or an unplaceable retry). When no other copy is live, schedule a
    /// retry after the backoff — or shed if the budget is exhausted or
    /// the backoff would overrun the deadline.
    fn lose_attempt(&mut self, now: Layers, qid: usize) {
        let state = &mut self.states[qid];
        state.outstanding = state.outstanding.saturating_sub(1);
        if state.done || state.outstanding > 0 {
            return;
        }
        let retry = &self.retry;
        if retry.budget_exhausted(state.attempts) {
            return self.finish_shed(qid, ShedReason::RetriesExhausted);
        }
        let at = now + retry.backoff(state.attempts);
        if state.deadline.is_some_and(|deadline| at > deadline) {
            self.counters.deadline_expirations += 1;
            return self.finish_shed(qid, ShedReason::DeadlineExceeded);
        }
        self.counters.retries += 1;
        self.events.push(at, Event::Retry { qid });
    }

    /// Resolves query `qid` as shed.
    fn finish_shed(&mut self, qid: usize, reason: ShedReason) {
        self.resolve(qid);
        let state = &self.states[qid];
        self.shed.push(ShedRequest {
            id: state.request.id,
            tenant: state.request.tenant,
            reason,
        });
    }

    /// Marks query `qid` resolved — completed or shed — releasing its
    /// quota slot.
    fn resolve(&mut self, qid: usize) {
        let state = &mut self.states[qid];
        debug_assert!(!state.done, "a query resolves exactly once");
        state.done = true;
        self.tenants[state.row as usize].outstanding -= 1;
        self.open -= 1;
    }

    /// Fans replication out for fleet epochs `(repl_scheduled, to]`, each
    /// through the plan's per-epoch fate (one replica has no one to
    /// replicate to), and advances the monotone watermark to `to`, so a
    /// rollback and re-append never fans an epoch out twice. One sync
    /// may acknowledge a whole commit group of epochs.
    fn schedule_replication(&mut self, now: Layers, to: u64) {
        let at = now + self.fleet.config.replication_lag;
        for epoch in (self.repl_scheduled + 1..=to).filter(|_| self.replicas.len() > 1) {
            match self.plan.replication_fate(epoch) {
                ReplicationFate::Deliver => self.events.push(at, Event::Replicate { epoch }),
                ReplicationFate::Drop => {}
                ReplicationFate::Delay(by) => self.events.push(at + by, Event::Replicate { epoch }),
            }
        }
        self.repl_scheduled = self.repl_scheduled.max(to);
    }

    /// Lands the open commit group, if a durability tier is active, and
    /// fans replication out for the epochs its sync acknowledged.
    fn flush_and_replicate(&mut self, now: Layers) -> Result<(), StoreError> {
        if let Some(d) = self.durability.as_mut() {
            d.flush()?;
            let to = d.synced_fleet_epoch();
            self.schedule_replication(now, to);
        }
        Ok(())
    }

    /// One scrub cycle over the live replicas, if a durability tier is
    /// active.
    fn scrub(&mut self) -> Result<(), StoreError> {
        let chunk = self.config.scrub_chunk_cells;
        match self.durability.as_mut() {
            Some(d) => d.scrub(&mut self.replicated, &self.replicas, chunk),
            None => Ok(()),
        }
    }

    /// Closes the run: lands the last commit group, runs a final scrub,
    /// executes each replica's dispatches in one §7.2 sweep over the
    /// run's starting memory plus its journal (see `sweep_updates`), and
    /// builds the report. A replica's batch is built from its dispatch
    /// records, in dispatch order, straight from the query states: each
    /// query's address moves into the batch at its last dispatch (its
    /// count of dispatch records runs out), and only a query dispatched
    /// more than once (a retry after a lost attempt, or a hedge) is
    /// cloned for its earlier dispatches. Each completed query's outcome
    /// moves out of its replica's batch into the report.
    pub(crate) fn finish(mut self, memory: &ClassicalMemory) -> Result<FleetReport, ServeError> {
        // A run ending mid-group (max_delay 0, or the deadline never fired
        // because the reactor emptied) must not report its last writes as
        // unsynced; divergence injected after the last scheduled scrub
        // tick is still found and repaired before the report closes.
        if let Some(d) = self.durability.as_mut() {
            d.flush()?;
        }
        if self.config.scrub_interval.is_some() {
            self.scrub()?;
        }
        // No query is lost: every admitted one completed or shed. (A queued
        // hedge loser may strand on an undetected crash, so queues may not
        // be empty.)
        debug_assert!(
            self.states.iter().all(|s| s.done),
            "every admitted query completes or sheds"
        );
        debug_assert!(self.tenants.iter().all(|terms| terms.outstanding == 0));
        let stale_served = self.completed.iter().filter(|q| q.stale).count() as u64;
        // What a moved-out address leaves behind: a lone inline term.
        let moved = AddressState::classical(0, 0).expect("a 0-bit register holds address 0");
        let mut states = self.states;
        let (mut per_replica_dispatches, mut outcomes_by_replica) = (Vec::new(), Vec::new());
        for (r, replica) in self.replicas.into_iter().enumerate() {
            per_replica_dispatches.push(replica.dispatches.len() as u64);
            let backend = &self.fleet.backend;
            let updates = sweep_updates(backend, &replica.dispatches, self.replicated.journal(r));
            let addresses: Vec<AddressState> = (replica.dispatches.iter())
                .map(|dispatch| {
                    let state = &mut states[dispatch.qid];
                    state.dispatches -= 1;
                    if state.dispatches == 0 {
                        std::mem::replace(&mut state.request.address, moved.clone())
                    } else {
                        state.request.address.clone()
                    }
                })
                .collect();
            let outcomes = backend.execute_queries(memory, &addresses, &updates)?;
            outcomes_by_replica.push(outcomes.into_iter().map(Some).collect::<Vec<_>>());
        }
        // Corrupted completions were re-served under the retry budget;
        // verify the parity check would indeed have caught each one. It
        // reads the clean outcomes before any moves out below.
        for &(r, index) in &self.corrupted_served {
            let clean = outcomes_by_replica[r][index].as_ref();
            let clean = clean.expect("an outcome moves only at its completion");
            if parity_bit(&corrupt_outcome(clean)) != parity_bit(clean) {
                self.counters.corruptions_detected += 1;
            }
        }
        // Crashed and corrupted dispatches leave holes in a replica's
        // completion order, so each completed query takes its outcome by
        // its recorded dispatch index. A dispatch completes at most once,
        // so each outcome is moved, not cloned.
        let outcomes: Vec<QueryOutcome> = self
            .completed_dispatch
            .iter()
            .map(|&(r, index)| {
                let outcome = outcomes_by_replica[r][index].take();
                outcome.expect("a dispatch completes at most once")
            })
            .collect();
        Ok(FleetReport {
            timing: self.fleet.timing,
            completed: self.completed,
            outcomes,
            shed: self.shed,
            per_replica_dispatches,
            stale_served,
            fleet_epoch: self.replicated.fleet_epoch(),
            availability: self.counters,
            integrity: self.durability.map(|d| d.counters).unwrap_or_default(),
        })
    }
}

/// Refills the placement snapshot `loads` from `replicas` and asks
/// `placement` for a replica for `request`.
fn place<L: PlacementPolicy>(
    placement: &L,
    replicas: &[ReplicaState],
    loads: &mut Vec<ReplicaLoad>,
    request: &FleetRequest,
) -> usize {
    loads.clear();
    loads.extend(replicas.iter().map(ReplicaState::load));
    let target = placement.place(request, loads);
    let n = replicas.len();
    assert!(target < n, "placement returned replica {target} of {n}");
    target
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::BrownoutConfig;
    use crate::fleet::{ConsistentHashPlacement, FleetConfig};
    use proptest::prelude::*;
    use qram_metrics::{Capacity, TimingModel};
    use qram_sched::{FifoAdmission, QramServer, QuotaAdmission};
    use std::cell::Cell;
    use std::collections::BTreeMap;

    /// An admission policy that counts the tenant questions it is asked:
    /// quota, class and deadline, in that order.
    struct Counting<'a> {
        inner: QuotaAdmission<FifoAdmission>,
        calls: &'a [Cell<u32>; 3],
    }

    impl Counting<'_> {
        fn ask(&self, question: usize) {
            self.calls[question].set(self.calls[question].get() + 1);
        }
    }

    impl AdmissionPolicy for Counting<'_> {
        fn in_flight_cap(&self, server: &QramServer) -> u32 {
            self.inner.in_flight_cap(server)
        }

        fn tenant_quota(&self, tenant: TenantId) -> Option<u32> {
            self.ask(0);
            self.inner.tenant_quota(tenant)
        }

        fn tenant_slo(&self, tenant: TenantId) -> SloClass {
            self.ask(1);
            self.inner.tenant_slo(tenant)
        }

        fn tenant_deadline(&self, tenant: TenantId) -> Option<Layers> {
            self.ask(2);
            self.inner.tenant_deadline(tenant)
        }
    }

    /// Serves `requests` under `plan` and `config` on an R = 4, K = 2
    /// fleet over 64 cells with queues of 6.
    fn serve_at_four<P: AdmissionPolicy>(
        policy: P,
        requests: &[FleetRequest],
        plan: &FaultPlan,
        config: &FaultConfig,
    ) -> FleetReport {
        let qram = ShardedQram::fat_tree(Capacity::new(64).unwrap(), 2);
        let config_fleet = FleetConfig {
            queue_capacity: Some(6),
            replication_lag: Layers::ZERO,
        };
        let timing = TimingModel::paper_default();
        let fleet = QramFleet::new(
            qram,
            4,
            timing,
            policy,
            ConsistentHashPlacement,
            config_fleet,
        );
        let cells: Vec<u64> = (0..64).map(|i| (i * 5 + 1) % 2).collect();
        let memory = ClassicalMemory::from_words(1, &cells).unwrap();
        let requests = requests.to_vec();
        (fleet.serve_with_faults(&memory, requests, Vec::new(), plan, config)).unwrap()
    }

    /// The tenant table asks the admission policy for each distinct
    /// tenant's quota, class and deadline once per run, however many
    /// arrivals, brownout and quota checks, hedges, retries and
    /// resolutions the run makes; and the run serves, sheds and counts
    /// exactly what it does under the bare policy.
    #[test]
    fn tenant_terms_are_asked_once_per_run() {
        let (hot, batch) = (TenantId(7), TenantId(u32::MAX));
        let policy = QuotaAdmission::new(FifoAdmission)
            .with_quota(hot, 3)
            .with_slo(batch, SloClass::Batch)
            .with_deadline(hot, Layers::new(150.0));
        let tenants = [TenantId::DEFAULT, hot, hot, batch, hot];
        let requests: Vec<FleetRequest> = (0..400)
            .map(|id| FleetRequest {
                id,
                tenant: tenants[id % tenants.len()],
                arrival: Layers::new((id / 4) as f64),
                address: AddressState::classical(6, (id as u64 * 13) % 64).unwrap(),
            })
            .collect();
        let plan = FaultPlan::none()
            .with(Fault::Crash {
                replica: 1,
                at: Layers::new(30.0),
            })
            .with(Fault::Recover {
                replica: 1,
                at: Layers::new(200.0),
            });
        let config = FaultConfig {
            hedge_delay: Some(Layers::new(12.0)),
            brownout: Some(BrownoutConfig {
                high: 0.6,
                low: 0.3,
            }),
            ..FaultConfig::default()
        };
        let calls = [Cell::new(0), Cell::new(0), Cell::new(0)];
        let counting = Counting {
            inner: policy.clone(),
            calls: &calls,
        };
        let counted = serve_at_four(counting, &requests, &plan, &config);
        assert_eq!(calls.each_ref().map(Cell::get), [3, 3, 3]);
        let bare = serve_at_four(policy, &requests, &plan, &config);
        assert_eq!(counted.completed(), bare.completed());
        assert_eq!(counted.shed(), bare.shed());
        assert_eq!(counted.availability(), bare.availability());
        // The run asked what the terms answer, many times over.
        let availability = bare.availability();
        assert!(availability.hedges > 0 && availability.retries > 0);
        for reason in [ShedReason::QuotaExceeded, ShedReason::Brownout] {
            assert!(bare.shed_count(reason) > 0, "no {reason:?} shed");
        }
    }

    proptest! {
        /// The §7.2 sweep against per-epoch images: a replicated memory
        /// goes through random writes, catch-ups, bit flips and resets
        /// (scrub repairs and rejoins from disk), interleaved with
        /// dispatch marks stamped with the replica's applied epoch. One
        /// sweep per replica over the base image plus `sweep_updates` of
        /// its journal must read, for every dispatch, exactly the final
        /// image of its epoch.
        #[test]
        fn sweep_updates_read_each_dispatch_epochs_final_image(
            steps in prop::collection::vec(0u64..u64::MAX, 1..60),
            r in 1usize..=4,
            k_exp in 0u32..=2,
        ) {
            let backend = ShardedQram::fat_tree(Capacity::new(16).unwrap(), 1 << k_exp);
            let words = |seed: u64| -> Vec<u64> {
                (0..16).map(|i| (seed >> (i * 4)) % 16).collect()
            };
            let base = ClassicalMemory::from_words(4, &words(0x0123_4567_89ab_cdef)).unwrap();
            let mut replicated = ReplicatedMemory::new(base.clone(), r);
            // images[replica][epoch]: the replica's last image at that epoch.
            let mut images = vec![BTreeMap::from([(0, base.clone())]); r];
            let mut dispatches: Vec<Vec<Dispatch>> = vec![Vec::new(); r];
            let mut addresses: Vec<Vec<AddressState>> = vec![Vec::new(); r];
            for &seed in &steps {
                let replica = (seed / 5) as usize % r;
                let (cell, value) = ((seed / 20) % 16, (seed / 320) % 16);
                let fleet_epoch = replicated.fleet_epoch();
                let applied = replicated.applied_epoch(replica);
                let epoch = applied + (seed / 5120) % (fleet_epoch - applied + 1);
                match seed % 5 {
                    0 => {
                        replicated.write_at(replica, cell, value);
                    }
                    1 => {
                        replicated.catch_up_to(replica, epoch);
                    }
                    2 => replicated.corrupt_replica_cell(replica, cell),
                    3 => {
                        let image = ClassicalMemory::from_words(4, &words(seed)).unwrap();
                        replicated.reset_replica(replica, image, epoch);
                    }
                    _ => {
                        let other = (cell + 1 + value % 15) % 16;
                        dispatches[replica].push(Dispatch {
                            qid: 0,
                            start: Layers::ZERO,
                            shard: 0,
                            epoch: applied,
                            stale: false,
                            handled: false,
                        });
                        let address = AddressState::uniform(4, &[cell, other]).unwrap();
                        addresses[replica].push(address);
                    }
                }
                let now = replicated.applied_epoch(replica);
                images[replica].insert(now, replicated.memory(replica).clone());
            }
            for replica in 0..r {
                let journal = replicated.journal(replica);
                let updates = sweep_updates(&backend, &dispatches[replica], journal);
                let outcomes = backend
                    .execute_queries(&base, &addresses[replica], &updates)
                    .unwrap();
                for (j, outcome) in outcomes.iter().enumerate() {
                    let image = &images[replica][&dispatches[replica][j].epoch];
                    let ideal = image.ideal_query(&addresses[replica][j]);
                    prop_assert!(outcome == &ideal, "replica {} dispatch {}", replica, j);
                }
            }
        }
    }
}
