//! An independent replay of a fault-free fleet run: the oracle the fleet
//! suites pin `serve` against.
//!
//! In a fault-free run every replica is a §5 machine over the requests
//! routed to it. Its timings are the admission recurrence
//! (`PolicyScheduler` under the fleet's policy) over its admitted
//! requests, and its `j`-th admitted request queues at shard `j mod K`.
//! The replay walks the arrivals in order. It recomputes each router
//! verdict from those predicted timings: tenant quota, placement over the
//! replayed loads, SLO share, queue bound. It predicts every epoch, stale
//! flag and outcome from the write log and `ClassicalMemory::ideal_query`.
//! It shares nothing with the serving loop: no replica core, no
//! replicated memory, no run state.
//!
//! Its one subtle rule is the reactor's same-instant order: every arrival
//! at instant `t` is routed before any queued event at `t`. So when an
//! arrival at `t` is routed, replica `r`'s `j`-th admitted request
//! * has dispatched iff it started before `t`, or it starts at `t` and an
//!   earlier arrival at `t`, admitted to `r` with index ≥ `j`, pumped it
//!   while its slot was already free (`j < p` or `finish_{j−p} < t`, `p`
//!   the clamped in-flight cap);
//! * is in flight, and counts against its tenant's quota, while
//!   `finish_j ≥ t`: completions at `t` run after the arrivals.
//!
//! Deadlines and faults are outside the replay, and so are writes at a
//! dispatch instant (their order against the dispatch is the event
//! queue's push order): callers keep write instants off the 1/16-layer grid that
//! arrivals and dispatches live on, and the replay asserts it.

// Each suite uses only part of the module.
#![allow(dead_code)]

use fat_tree_qram::core::{QramModel, ShardedQram};
use fat_tree_qram::metrics::{AvailabilityCounters, Layers, TimingModel};
use fat_tree_qram::qsim::branch::{ClassicalMemory, QueryOutcome};
use fat_tree_qram::sched::{
    AdmissionPolicy, NoiseAwareAdmission, PolicyScheduler, QramServer, QueryRequest,
    QuotaAdmission, SloClass, TenantId,
};
use fat_tree_qram::serve::{
    ConsistentHashPlacement, FleetConfig, FleetQuery, FleetReport, FleetRequest, FleetWrite,
    LeastLoadedPlacement, PlacementPolicy, ReplicaHealth, ReplicaLoad, ShedReason, ShedRequest,
};
use proptest::prelude::*;

/// Either placement policy, picked per case.
#[derive(Debug, Clone, Copy)]
pub enum Placement {
    ConsistentHash,
    LeastLoaded,
}

impl PlacementPolicy for Placement {
    fn place(&self, request: &FleetRequest, loads: &[ReplicaLoad]) -> usize {
        match self {
            Placement::ConsistentHash => ConsistentHashPlacement.place(request, loads),
            Placement::LeastLoaded => LeastLoadedPlacement.place(request, loads),
        }
    }
}

/// The three tenant ids the replayed suites serve: dense `{0, 1, 2}`, or
/// sparse `{0, 7, u32::MAX}`, which keeps the serving loop's tenant table
/// honest off the dense range.
pub fn tenant_ids(sparse: bool) -> [TenantId; 3] {
    let ids = if sparse { [0, 7, u32::MAX] } else { [0, 1, 2] };
    ids.map(TenantId)
}

/// The tenant mix the replayed suites serve: `ids[0]` unlimited, `ids[1]`
/// under `quota`, `ids[2]` `Batch`. `cap` picks noise-aware admission
/// distilling 1, 2 or 5 copies per query; one copy keeps FIFO's full
/// in-flight cap.
pub fn tenant_mix(
    ids: [TenantId; 3],
    quota: u32,
    cap: usize,
) -> QuotaAdmission<NoiseAwareAdmission> {
    let target = [1.0, 0.2, 0.01][cap];
    QuotaAdmission::new(NoiseAwareAdmission::from_infidelity(0.35, target))
        .with_quota(ids[1], quota)
        .with_slo(ids[2], SloClass::Batch)
}

/// A fleet's construction inputs, shared by the fleet under test and the
/// replay.
#[derive(Debug, Clone)]
pub struct Setup<M, P, L> {
    pub qram: ShardedQram<M>,
    pub replicas: usize,
    pub timing: TimingModel,
    pub policy: P,
    pub placement: L,
    pub config: FleetConfig,
}

/// The write log of a fault-free run, committed in supply order: a write
/// applies at its origin when it commits and everywhere else `lag` later.
pub struct WriteLog<'a> {
    pub base: &'a ClassicalMemory,
    pub writes: &'a [FleetWrite],
    pub lag: Layers,
}

impl WriteLog<'_> {
    /// The epoch `replica` has applied at instant `t`: the larger of its
    /// last own commit before `t` (committing applies the full log
    /// prefix) and the number of writes whose replication has landed.
    pub fn applied_at(&self, replica: usize, t: Layers) -> u64 {
        let own = self
            .writes
            .iter()
            .enumerate()
            .filter(|(_, w)| w.origin == replica && w.at < t)
            .map(|(i, _)| i as u64 + 1)
            .max()
            .unwrap_or(0);
        let replicated = self.writes.iter().filter(|w| w.at + self.lag < t).count() as u64;
        own.max(replicated)
    }

    /// The fleet epoch at instant `t`: writes committed before it.
    pub fn committed_at(&self, t: Layers) -> u64 {
        self.writes.iter().filter(|w| w.at < t).count() as u64
    }

    /// The memory image at `epoch`: the base plus the first `epoch` writes.
    pub fn image_at(&self, epoch: u64) -> ClassicalMemory {
        let mut image = self.base.clone();
        for w in &self.writes[..epoch as usize] {
            image.write(w.address, w.value);
        }
        image
    }
}

/// What a fault-free run must report.
#[derive(Debug)]
pub struct Replay {
    /// Router sheds, in arrival order.
    pub shed: Vec<ShedRequest>,
    /// Per replica, its served queries in dispatch order with their ideal
    /// outcomes.
    pub served: Vec<Vec<(FleetQuery, QueryOutcome)>>,
    pub fleet_epoch: u64,
}

/// Replays `requests` and `writes` on `setup` over `memory`. Writes must
/// be supplied in commit order.
pub fn replay<M: QramModel + Clone, P: AdmissionPolicy + Clone, L: PlacementPolicy>(
    setup: &Setup<M, P, L>,
    memory: &ClassicalMemory,
    requests: &[FleetRequest],
    writes: &[FleetWrite],
) -> Replay {
    assert!(writes.windows(2).all(|w| w[0].at <= w[1].at));
    let server = QramServer::for_model(&setup.qram, &setup.timing);
    let cap = setup
        .policy
        .in_flight_cap(&server)
        .clamp(1, server.parallelism()) as usize;
    let (policy, config) = (&setup.policy, setup.config);
    let mut schedulers: Vec<_> = (0..setup.replicas)
        .map(|_| PolicyScheduler::new(server, policy.clone()))
        .collect();
    // Per replica: each admitted request with its start and finish.
    let mut admitted: Vec<Vec<(&FleetRequest, Layers, Layers)>> = vec![Vec::new(); setup.replicas];
    // Per replica: the highest index admitted by an arrival at `now`.
    let mut pumped: Vec<Option<usize>> = vec![None; setup.replicas];
    let mut now = None;
    let mut shed = Vec::new();
    let mut arrivals: Vec<&FleetRequest> = requests.iter().collect();
    arrivals.sort_by(|a, b| a.arrival.partial_cmp(&b.arrival).unwrap());
    for request in arrivals {
        let (t, tenant) = (request.arrival, request.tenant);
        if now != Some(t) {
            now = Some(t);
            pumped.fill(None);
        }
        let dispatched = |r: usize, j: usize| {
            let (_, start, _) = admitted[r][j];
            let slot_free = j < cap || admitted[r][j - cap].2 < t;
            start < t || (start == t && pumped[r].is_some_and(|m| m >= j) && slot_free)
        };
        let loads: Vec<ReplicaLoad> = (0..setup.replicas)
            .map(|r| {
                let sent = (0..admitted[r].len()).filter(|&j| dispatched(r, j));
                let in_flight = sent.clone().filter(|&j| admitted[r][j].2 >= t).count();
                let queued = admitted[r].len() - sent.count();
                ReplicaLoad {
                    queued,
                    in_flight: in_flight as u32,
                    has_room: config.queue_capacity.is_none_or(|c| queued < c),
                    health: ReplicaHealth::Healthy,
                }
            })
            .collect();
        let outstanding = admitted.iter().flatten();
        let outstanding = outstanding.filter(|(q, _, finish)| q.tenant == tenant && *finish >= t);
        let verdict = if policy
            .tenant_quota(tenant)
            .is_some_and(|quota| outstanding.count() >= quota as usize)
        {
            Err(ShedReason::QuotaExceeded)
        } else {
            let r = setup.placement.place(request, &loads);
            let bound = config
                .queue_capacity
                .map(|c| policy.tenant_slo(tenant).queue_bound(c));
            match bound.is_some_and(|bound| loads[r].queued >= bound) {
                true if loads[r].has_room => Err(ShedReason::SloShed),
                true => Err(ShedReason::QueueFull),
                false => Ok(r),
            }
        };
        match verdict {
            Ok(r) => {
                let query = QueryRequest {
                    id: request.id,
                    arrival: t,
                };
                let slot = schedulers[r].admit(query).unwrap();
                pumped[r] = Some(admitted[r].len());
                admitted[r].push((request, slot.start, slot.finish));
            }
            Err(reason) => shed.push(ShedRequest {
                id: request.id,
                tenant,
                reason,
            }),
        }
    }

    let log = WriteLog {
        base: memory,
        writes,
        lag: config.replication_lag,
    };
    let shards = setup.qram.num_shards() as usize;
    let mut served = vec![Vec::new(); setup.replicas];
    for (r, queue) in admitted.iter().enumerate() {
        for (j, &(request, start, finish)) in queue.iter().enumerate() {
            assert!(
                writes
                    .iter()
                    .all(|w| w.at != start && w.at + log.lag != start),
                "a write instant ties with the dispatch of request {}",
                request.id
            );
            let epoch = log.applied_at(r, start);
            let query = FleetQuery {
                id: request.id,
                tenant: request.tenant,
                arrival: request.arrival,
                start,
                finish,
                replica: r,
                shard: j % shards,
                epoch,
                stale: epoch < log.committed_at(start),
                attempts: 1,
            };
            served[r].push((query, log.image_at(epoch).ideal_query(&request.address)));
        }
    }
    Replay {
        shed,
        served,
        fleet_epoch: writes.len() as u64,
    }
}

/// Checks a fault-free report against its replay: the same sheds in
/// order; completions in finish order, and per replica the same queries
/// (timings, shard, epoch, stale flag, one attempt) in dispatch order
/// with their ideal outcomes; and the same dispatch counts, stale count,
/// fleet epoch and an all-zero availability ledger.
pub fn check(report: &FleetReport, replay: &Replay) -> Result<(), TestCaseError> {
    prop_assert_eq!(report.shed(), &replay.shed[..]);
    let completed = report.completed();
    prop_assert!(completed.windows(2).all(|w| w[0].finish <= w[1].finish));
    let served = completed.iter().zip(report.outcomes());
    for (r, predicted) in replay.served.iter().enumerate() {
        let on_r: Vec<_> = served.clone().filter(|(q, _)| q.replica == r).collect();
        prop_assert_eq!(on_r.len(), predicted.len());
        for ((query, outcome), (want, ideal)) in on_r.into_iter().zip(predicted) {
            prop_assert_eq!(query, want);
            prop_assert!(
                outcome == ideal,
                "query {} read the wrong outcome",
                query.id
            );
        }
    }
    let dispatches: Vec<u64> = replay.served.iter().map(|s| s.len() as u64).collect();
    prop_assert_eq!(report.per_replica_dispatches(), &dispatches[..]);
    let stale = replay
        .served
        .iter()
        .flatten()
        .filter(|(q, _)| q.stale)
        .count();
    prop_assert_eq!(report.stale_served(), stale as u64);
    prop_assert_eq!(report.fleet_epoch(), replay.fleet_epoch);
    prop_assert_eq!(report.availability(), &AvailabilityCounters::default());
    Ok(())
}
