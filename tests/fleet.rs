//! Fleet-layer integration properties: a one-replica fleet must realize
//! exactly the analytic online-FIFO schedule and match the independent
//! replay in `common/fleet_replay.rs`, the epoch-replication consistency
//! model must hold under arbitrary write/read interleavings, placement
//! must honour its fairness and no-needless-shed pins, and a zero queue
//! capacity must be refused before a run starts. Three pins fix the
//! reactor's same-instant order around writes: writes commit in
//! (instant, supply) order, a write commits before a completion at its
//! instant frees a slot, and an arrival at its instant is routed first.

#[path = "common/fleet_replay.rs"]
mod fleet_replay;

use fat_tree_qram::core::store::{DurableFleet, SimDir};
use fat_tree_qram::core::{FatTreeQram, QramModel, ShardedQram};
use fat_tree_qram::metrics::{Capacity, LatencyHistogram, Layers, TimingModel};
use fat_tree_qram::qsim::branch::{AddressState, ClassicalMemory};
use fat_tree_qram::sched::{
    AdmissionPolicy, FifoAdmission, NoiseAwareAdmission, OnlineFifoScheduler, QramServer,
    QueryRequest, QuotaAdmission, SloClass, TenantId,
};
use fat_tree_qram::serve::{
    ConsistentHashPlacement, Fault, FaultConfig, FaultPlan, FleetConfig, FleetQuery, FleetReport,
    FleetRequest, FleetWrite, LeastLoadedPlacement, PlacementPolicy, QramFleet, ReplicaLoad,
    ServeError, ShedReason, ShedRequest,
};
use fleet_replay::{check, replay, tenant_ids, tenant_mix, Setup, WriteLog};
use proptest::prelude::*;

/// Deterministic pseudo-random arrivals (already sorted) from integer
/// strategy inputs, shaped like a mildly bursty open-loop trace.
fn arrivals_from_gaps(gaps: &[u16]) -> Vec<QueryRequest> {
    let mut t = 0.0;
    gaps.iter()
        .enumerate()
        .map(|(id, &g)| {
            t += f64::from(g) / 16.0;
            QueryRequest {
                id,
                arrival: Layers::new(t),
            }
        })
        .collect()
}

fn checkerboard(n: u64) -> ClassicalMemory {
    let cells: Vec<u64> = (0..n).map(|i| (i * 5 + 1) % 2).collect();
    ClassicalMemory::from_words(1, &cells).unwrap()
}

/// Serves `requests` and `writes` on a fresh fleet built from `setup`.
fn serve<M: QramModel + Clone, P: AdmissionPolicy + Clone, L: PlacementPolicy + Clone>(
    setup: &Setup<M, P, L>,
    memory: &ClassicalMemory,
    requests: &[FleetRequest],
    writes: &[FleetWrite],
) -> FleetReport {
    let Setup {
        qram,
        replicas,
        timing,
        policy,
        placement,
        config,
    } = setup.clone();
    QramFleet::new(qram, replicas, timing, policy, placement, config)
        .serve(memory, requests.to_vec(), writes.to_vec())
        .unwrap()
}

proptest! {
    /// The reduction pin: a single-replica fleet is the §5 single machine,
    /// for K ∈ {1, 2, 4, 8}, with or without a bounded arrival queue, under
    /// a three-tenant mix (a quota, a `Batch` class) with dense or sparse
    /// tenant ids and FIFO or noise-aware in-flight caps. It matches the
    /// independent replay (its sheds, schedule, shards and ideal
    /// outcomes); at FIFO's cap its schedule is the analytic online-FIFO
    /// schedule of exactly the requests it accepted (a shed arrival
    /// leaves no trace in the dispatcher); and its latency histogram is
    /// the one recorded from that schedule.
    #[test]
    fn single_replica_fleet_is_bit_equal_to_the_service(
        gaps in prop::collection::vec(0u16..100, 1..40),
        addr_seeds in prop::collection::vec(0u64..256, 1..40),
        k_exp in 0u32..=3,
        queue_cap_raw in 0usize..12,
        tenant_seeds in prop::collection::vec(0usize..3, 1..40),
        quota in 1u32..6,
        cap_raw in 0usize..3,
        sparse in 0u32..2,
    ) {
        // 0 means "unbounded"; bounded caps are 1..=11.
        let queue_cap = (queue_cap_raw > 0).then_some(queue_cap_raw);
        let tenants = tenant_ids(sparse == 1);
        let setup = Setup {
            qram: ShardedQram::fat_tree(Capacity::new(256).unwrap(), 1 << k_exp),
            replicas: 1,
            timing: TimingModel::paper_default(),
            policy: tenant_mix(tenants, quota, cap_raw),
            placement: ConsistentHashPlacement,
            config: FleetConfig {
                queue_capacity: queue_cap,
                replication_lag: Layers::ZERO,
            },
        };
        let requests = arrivals_from_gaps(&gaps);
        let memory = checkerboard(256);
        let fleet_requests: Vec<FleetRequest> = requests
            .iter()
            .map(|r| FleetRequest {
                id: r.id,
                tenant: tenants[tenant_seeds[r.id % tenant_seeds.len()]],
                arrival: r.arrival,
                address: AddressState::classical(8, addr_seeds[r.id % addr_seeds.len()]).unwrap(),
            })
            .collect();
        let report = serve(&setup, &memory, &fleet_requests, &[]);
        let replay = replay(&setup, &memory, &fleet_requests, &[]);
        check(&report, &replay)?;

        // Timings at FIFO's cap: the online-FIFO recurrence over the
        // accepted requests.
        if cap_raw == 0 {
            let shed: Vec<usize> = report.shed().iter().map(|s| s.id).collect();
            let server = QramServer::for_model(&setup.qram, &setup.timing);
            let mut online = OnlineFifoScheduler::new(server);
            for &r in requests.iter().filter(|r| !shed.contains(&r.id)) {
                online.submit(r).unwrap();
            }
            let (fleet_schedule, online) = (report.schedule(), online.finish());
            prop_assert_eq!(fleet_schedule.entries(), online.entries());
        }
        // Latency rollups: folded from the fleet's completions, they equal
        // the histogram recorded from the replayed schedule, fleet-wide and
        // for the one replica.
        let mut histogram = LatencyHistogram::new();
        for (q, _) in &replay.served[0] {
            histogram.record(q.finish - q.arrival);
        }
        prop_assert_eq!(report.latency_histogram(), histogram.clone());
        let per_replica = report.per_replica();
        prop_assert_eq!(per_replica.get(0), Some(&histogram));
    }

    /// The epoch-replication consistency model, against an independent
    /// replay oracle. For every served query: the recorded epoch is
    /// exactly the log prefix its replica had applied at dispatch (own
    /// writes synchronously, remote writes one lag later, and an origin
    /// commit drags the whole earlier prefix with it); the outcome is the
    /// value under exactly that prefix; and the stale flag is set iff the
    /// prefix trailed the fleet epoch — a write at any replica makes every
    /// later fleet read either observe the new epoch or be flagged, never
    /// silently served as fresh. Sharded replicas (K ∈ {1, 2, 4}) route
    /// the replayed writes to their shards inside one execution sweep.
    #[test]
    fn replication_epochs_and_stale_flags_match_the_oracle(
        gaps in prop::collection::vec(0u16..120, 4..32),
        addr_seeds in prop::collection::vec(0u64..16, 4..32),
        write_seeds in prop::collection::vec(0u64..9_000_000, 1..6),
        r in 2usize..=4,
        lag in 0u16..400,
        k_exp in 0u32..=2,
    ) {
        let capacity = Capacity::new(16).unwrap();
        let timing = TimingModel::paper_default();
        let lag = Layers::new(f64::from(lag));
        // Strictly increasing, non-binary-fraction commit instants: never
        // tie with an arrival or a dispatch instant (those are sums of
        // binary fractions), so the strict-inequality oracle is exact.
        let mut t = 0.0;
        let writes: Vec<FleetWrite> = write_seeds
            .iter()
            .map(|&seed| {
                t += (seed % 1500) as f64 / 16.0 + 0.333;
                FleetWrite {
                    at: Layers::new(t),
                    origin: (seed / 1500) as usize % r,
                    address: (seed / 6000) % 16,
                    value: 1 + (seed / 96_000) % 199,
                }
            })
            .collect();

        let base: Vec<u64> = (0..16).map(|i| i % 2).collect();
        let memory = ClassicalMemory::from_words(8, &base).unwrap();
        let requests: Vec<FleetRequest> = arrivals_from_gaps(&gaps)
            .into_iter()
            .map(|q| FleetRequest {
                id: q.id,
                tenant: TenantId::DEFAULT,
                arrival: q.arrival,
                address: AddressState::classical(4, addr_seeds[q.id % addr_seeds.len()]).unwrap(),
            })
            .collect();

        let mut fleet = QramFleet::new(
            ShardedQram::fat_tree(capacity, 1 << k_exp),
            r,
            timing,
            FifoAdmission,
            ConsistentHashPlacement,
            FleetConfig {
                queue_capacity: None,
                replication_lag: lag,
            },
        );
        let report = fleet.serve(&memory, requests, writes.clone()).unwrap();

        prop_assert_eq!(report.completed().len(), gaps.len());
        prop_assert_eq!(report.fleet_epoch(), writes.len() as u64);

        // Oracle: the applied epoch of `replica` at instant `t` is the
        // larger of (a) the epoch of its last own-origin commit before
        // `t` (committing applies the full log prefix) and (b) the number
        // of writes whose replication instant `at + lag` has passed.
        let log = WriteLog { base: &memory, writes: &writes, lag };
        for (query, outcome) in report.completed().iter().zip(report.outcomes()) {
            let expected_epoch = log.applied_at(query.replica, query.start);
            prop_assert_eq!(query.epoch, expected_epoch);
            let expected_stale = expected_epoch < log.committed_at(query.start);
            prop_assert_eq!(query.stale, expected_stale);
            let address = addr_seeds[query.id % addr_seeds.len()];
            prop_assert_eq!(
                outcome.data_for(address),
                Some(log.image_at(expected_epoch).read(address))
            );
        }
        let flagged = report.completed().iter().filter(|c| c.stale).count() as u64;
        prop_assert_eq!(report.stale_served(), flagged);
    }

    /// The ISSUE-7 fairness pin: consistent-hash placement over a uniform
    /// cyclic address sweep dispatches within one query of evenly across
    /// every fleet size R ∈ {1, 2, 4, 8}, whatever the arrival pattern.
    #[test]
    fn consistent_hash_is_exactly_fair_on_uniform_addresses(
        gaps in prop::collection::vec(0u16..50, 1..80),
        r_exp in 0u32..=3,
    ) {
        let r = 1usize << r_exp;
        let capacity = Capacity::new(64).unwrap();
        let timing = TimingModel::paper_default();
        let mut fleet = QramFleet::fifo(ShardedQram::fat_tree(capacity, 2), r, timing);
        let requests: Vec<FleetRequest> = arrivals_from_gaps(&gaps)
            .into_iter()
            .map(|q| FleetRequest {
                id: q.id,
                tenant: TenantId::DEFAULT,
                arrival: q.arrival,
                address: AddressState::classical(6, q.id as u64 % 64).unwrap(),
            })
            .collect();
        let total = requests.len() as u64;
        let report = fleet.serve(&checkerboard(64), requests, Vec::new()).unwrap();
        let counts = report.per_replica_dispatches();
        prop_assert_eq!(counts.len(), r);
        prop_assert_eq!(counts.iter().sum::<u64>(), total);
        let max = counts.iter().copied().max().unwrap();
        let min = counts.iter().copied().min().unwrap();
        prop_assert!(max - min <= 1, "unfair placement: {:?}", counts);
    }

    /// The no-needless-shed regression: least-loaded placement never
    /// routes to a replica whose queue is full while another still has
    /// room — checked at every single placement decision under random
    /// burst traffic, and globally by conservation of requests.
    #[test]
    fn least_loaded_never_routes_to_a_full_replica_while_another_has_room(
        gaps in prop::collection::vec(0u16..30, 4..60),
        r in 2usize..=4,
        queue_cap in 1usize..6,
    ) {
        /// Wraps the production policy and pins the invariant at the exact
        /// moment of each decision.
        struct PinnedLeastLoaded;
        impl PlacementPolicy for PinnedLeastLoaded {
            fn place(&self, request: &FleetRequest, loads: &[ReplicaLoad]) -> usize {
                let choice = LeastLoadedPlacement.place(request, loads);
                assert!(
                    loads[choice].has_room || loads.iter().all(|l| !l.has_room),
                    "routed to a shedding replica while another had room: {loads:?}"
                );
                choice
            }
        }

        let capacity = Capacity::new(64).unwrap();
        let timing = TimingModel::paper_default();
        let mut fleet = QramFleet::new(
            ShardedQram::fat_tree(capacity, 2),
            r,
            timing,
            FifoAdmission,
            PinnedLeastLoaded,
            FleetConfig {
                queue_capacity: Some(queue_cap),
                replication_lag: Layers::ZERO,
            },
        );
        let requests: Vec<FleetRequest> = arrivals_from_gaps(&gaps)
            .into_iter()
            .map(|q| FleetRequest {
                id: q.id,
                tenant: TenantId::DEFAULT,
                arrival: q.arrival,
                address: AddressState::classical(6, (q.id as u64 * 37) % 64).unwrap(),
            })
            .collect();
        let total = requests.len();
        let report = fleet.serve(&checkerboard(64), requests, Vec::new()).unwrap();
        prop_assert_eq!(report.completed().len() + report.shed().len(), total);
        // A queue-full shed can only coexist with every replica saturated,
        // so until the first shed, dispatch counts track placement.
        prop_assert!(report
            .shed()
            .iter()
            .all(|s| s.reason == ShedReason::QueueFull));
    }

    /// Tenant quotas bound the hot tenant's footprint: across any flood,
    /// its accepted queries never overlap more than `quota` deep in
    /// [arrival, finish) — the queueing depth behind its p99 — while the
    /// well-behaved tenant is never shed for quota.
    #[test]
    fn quota_bounds_the_hot_tenants_outstanding_overlap(
        hot_burst in 8usize..40,
        quota in 1u32..6,
    ) {
        let capacity = Capacity::new(64).unwrap();
        let timing = TimingModel::paper_default();
        let hot = TenantId(1);
        let cold = TenantId(0);
        let policy = QuotaAdmission::new(FifoAdmission).with_quota(hot, quota);
        let mut fleet = QramFleet::new(
            ShardedQram::fat_tree(capacity, 2),
            2,
            timing,
            policy,
            ConsistentHashPlacement,
            FleetConfig::default(),
        );
        // The hot tenant floods at t = 0; the cold tenant trickles.
        let mut requests: Vec<FleetRequest> = (0..hot_burst)
            .map(|id| FleetRequest {
                id,
                tenant: hot,
                arrival: Layers::ZERO,
                address: AddressState::classical(6, id as u64 % 64).unwrap(),
            })
            .collect();
        for i in 0..8usize {
            requests.push(FleetRequest {
                id: hot_burst + i,
                tenant: cold,
                arrival: Layers::new(20.0 * i as f64),
                address: AddressState::classical(6, (i as u64 * 11) % 64).unwrap(),
            });
        }
        let report = fleet.serve(&checkerboard(64), requests, Vec::new()).unwrap();

        // Sweep the hot tenant's [arrival, finish) intervals for the peak
        // overlap — the router must have kept it at or below the quota.
        let hot_queries: Vec<&FleetQuery> = report
            .completed()
            .iter()
            .filter(|c| c.tenant == hot)
            .collect();
        let peak = hot_queries
            .iter()
            .map(|q| {
                hot_queries
                    .iter()
                    .filter(|o| o.arrival <= q.arrival && q.arrival < o.finish)
                    .count() as u32
            })
            .max()
            .unwrap_or(0);
        prop_assert!(peak <= quota, "hot tenant overlap {} exceeds quota {}", peak, quota);
        // Quota sheds hit the hot tenant only; the cold tenant completes
        // everything.
        prop_assert!(report.shed().iter().all(|s| s.tenant == hot
            && s.reason == ShedReason::QuotaExceeded));
        prop_assert_eq!(report.per_tenant().get(cold).unwrap().count(), 8);
    }

    /// The folded latency rollups count every completion exactly once:
    /// under quota, SLO and queue-bound sheds across three tenants and
    /// R ∈ {1, …, 4}, each tenant's and each replica's histogram holds as
    /// many observations as it has completions, and both families total
    /// `completed().len()`.
    #[test]
    fn folded_rollups_count_each_tenant_and_replica_completion_once(
        gaps in prop::collection::vec(0u16..40, 1..60),
        tenant_seeds in prop::collection::vec(0u32..3, 1..60),
        r in 1usize..=4,
        queue_cap_raw in 0usize..6,
        quota in 1u32..6,
    ) {
        let capacity = Capacity::new(64).unwrap();
        let policy = QuotaAdmission::new(FifoAdmission)
            .with_quota(TenantId(1), quota)
            .with_slo(TenantId(2), SloClass::Batch);
        let mut fleet = QramFleet::new(
            ShardedQram::fat_tree(capacity, 2),
            r,
            TimingModel::paper_default(),
            policy,
            LeastLoadedPlacement,
            FleetConfig {
                queue_capacity: (queue_cap_raw > 0).then_some(queue_cap_raw),
                replication_lag: Layers::ZERO,
            },
        );
        let requests: Vec<FleetRequest> = arrivals_from_gaps(&gaps)
            .into_iter()
            .map(|q| FleetRequest {
                id: q.id,
                tenant: TenantId(tenant_seeds[q.id % tenant_seeds.len()]),
                arrival: q.arrival,
                address: AddressState::classical(6, (q.id as u64 * 13) % 64).unwrap(),
            })
            .collect();
        let report = fleet.serve(&checkerboard(64), requests, Vec::new()).unwrap();
        let completed = report.completed();
        let per_tenant = report.per_tenant();
        for (tenant, histogram) in per_tenant.iter() {
            let served = completed.iter().filter(|c| c.tenant == tenant).count();
            prop_assert_eq!(histogram.count(), served as u64);
        }
        let per_replica = report.per_replica();
        for (replica, histogram) in per_replica.iter() {
            let served = completed.iter().filter(|c| c.replica == replica).count();
            prop_assert_eq!(histogram.count(), served as u64);
        }
        prop_assert_eq!(per_tenant.total_count(), completed.len() as u64);
        prop_assert_eq!(per_replica.total_count(), completed.len() as u64);
    }
}

#[test]
fn flash_crowd_with_quota_keeps_the_hot_tenant_p99_bounded() {
    // The §5 multi-tenant story end to end: a flash crowd from one tenant
    // under quota cannot build an unbounded queue, so its p99 stays within
    // the quota-depth bound while an unlimited flood's p99 blows past it.
    use fat_tree_qram::sched::flash_crowd_arrivals;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    let capacity = Capacity::new(4096).unwrap();
    let timing = TimingModel::paper_default();
    let hot = TenantId(7);
    let run = |quota: Option<u32>| {
        let mut policy = QuotaAdmission::new(FifoAdmission);
        if let Some(q) = quota {
            policy = policy.with_quota(hot, q);
        }
        let mut fleet = QramFleet::new(
            ShardedQram::fat_tree(capacity, 4),
            2,
            timing,
            policy,
            ConsistentHashPlacement,
            FleetConfig::default(),
        );
        let mut rng = StdRng::seed_from_u64(20260808);
        // Aggregate fleet service rate ≈ R · K / I_shard; flash at 6×.
        let aggregate = 2.0 * 4.0 / 8.25;
        let arrivals = flash_crowd_arrivals(
            0.2 * aggregate,
            6.0 * aggregate,
            200.0,
            400.0,
            300,
            &mut rng,
        );
        let requests: Vec<FleetRequest> = arrivals
            .iter()
            .map(|r| FleetRequest {
                id: r.id,
                tenant: hot,
                arrival: r.arrival,
                address: AddressState::classical(12, (r.id as u64 * 1103) % 4096).unwrap(),
            })
            .collect();
        fleet
            .serve(&ClassicalMemory::zeros(4096), requests, Vec::new())
            .unwrap()
    };

    let quota = 8u32;
    let capped = run(Some(quota));
    let uncapped = run(None);
    assert_eq!(
        uncapped.completed().len(),
        300,
        "unlimited tenant queues everything"
    );
    assert!(
        capped.shed_count(ShedReason::QuotaExceeded) > 0,
        "the flash crowd must hit the quota"
    );

    // With at most `quota` outstanding, a query waits behind fewer than
    // `quota` own dispatches: p99 < quota · I/K + latency.
    let server = QramFleet::fifo(ShardedQram::fat_tree(capacity, 4), 2, timing).equivalent_server();
    let bound = server.interval().get() * f64::from(quota) + server.latency().get();
    let capped_p99 = capped.per_tenant().get(hot).unwrap().p99().unwrap();
    let uncapped_p99 = uncapped.per_tenant().get(hot).unwrap().p99().unwrap();
    assert!(
        capped_p99.get() <= bound,
        "quota-capped p99 {} must stay within the quota-depth bound {}",
        capped_p99.get(),
        bound
    );
    assert!(
        uncapped_p99 > capped_p99,
        "the unlimited flood must queue deeper: {uncapped_p99:?} vs {capped_p99:?}"
    );
}

#[test]
fn a_completion_at_an_arrival_instant_frees_its_slot_after_the_arrivals() {
    // One replica with an in-flight cap of 1 and room for one queued
    // request. Query 0 dispatches at 0 and completes at L = 49.375, the
    // single-query latency. Queries 1 and 2 arrive at L. Query 1 queues
    // and starts at L, but only once query 0's completion runs, after
    // both arrivals at L. So query 2 finds the queue full.
    let setup = Setup {
        qram: ShardedQram::fat_tree(Capacity::new(64).unwrap(), 1),
        replicas: 1,
        timing: TimingModel::paper_default(),
        policy: NoiseAwareAdmission::from_infidelity(0.35, 0.01),
        placement: ConsistentHashPlacement,
        config: FleetConfig {
            queue_capacity: Some(1),
            replication_lag: Layers::ZERO,
        },
    };
    let latency = QramServer::for_model(&setup.qram, &setup.timing).latency();
    assert_eq!(latency, Layers::new(49.375));
    let requests: Vec<FleetRequest> = [0.0, latency.get(), latency.get()]
        .iter()
        .enumerate()
        .map(|(id, &at)| FleetRequest {
            id,
            tenant: TenantId::DEFAULT,
            arrival: Layers::new(at),
            address: AddressState::classical(6, id as u64).unwrap(),
        })
        .collect();
    let memory = checkerboard(64);
    let report = serve(&setup, &memory, &requests, &[]);
    let shed = ShedRequest {
        id: 2,
        tenant: TenantId::DEFAULT,
        reason: ShedReason::QueueFull,
    };
    assert_eq!(report.shed(), &[shed]);
    assert_eq!(report.completed()[1].start, latency);
    check(&report, &replay(&setup, &memory, &requests, &[])).unwrap();
}

/// One replica over N = 64 (K = 1) under `policy`, unbounded queues and
/// instant replication: the machine the same-instant write pins serve on,
/// over an 8-bit memory of zeros.
fn write_machine<P: AdmissionPolicy>(policy: P) -> Setup<FatTreeQram, P, ConsistentHashPlacement> {
    Setup {
        qram: ShardedQram::fat_tree(Capacity::new(64).unwrap(), 1),
        replicas: 1,
        timing: TimingModel::paper_default(),
        policy,
        placement: ConsistentHashPlacement,
        config: FleetConfig::default(),
    }
}

/// Classical reads of `(arrival, cell)` pairs, ids in the given order.
fn reads(at: &[(f64, u64)]) -> Vec<FleetRequest> {
    at.iter()
        .enumerate()
        .map(|(id, &(arrival, cell))| FleetRequest {
            id,
            tenant: TenantId::DEFAULT,
            arrival: Layers::new(arrival),
            address: AddressState::classical(6, cell).unwrap(),
        })
        .collect()
}

fn write(at: f64, address: u64, value: u64) -> FleetWrite {
    FleetWrite {
        at: Layers::new(at),
        origin: 0,
        address,
        value,
    }
}

#[test]
fn writes_commit_in_instant_then_supply_order() {
    // Supplied out of order, with two writes at each of two instants: the
    // commits run 1, 3 (at 100), then 0, 2 (at 200). Cell 3's last value
    // is write 2's only if write 0 committed first, and every read
    // dispatches at its arrival with the epoch of the commits before it.
    let setup = write_machine(FifoAdmission);
    let memory = ClassicalMemory::from_words(8, &[0; 64]).unwrap();
    let writes = [
        write(200.0, 3, 11),
        write(100.0, 3, 22),
        write(200.0, 3, 33),
        write(100.0, 5, 44),
    ];
    let requests = reads(&[(0.0, 3), (150.0, 3), (160.0, 5), (300.0, 3), (310.0, 5)]);
    let report = serve(&setup, &memory, &requests, &writes);
    assert_eq!(report.fleet_epoch(), 4);
    let served: Vec<(usize, u64, Option<u64>)> = report
        .completed()
        .iter()
        .zip(report.outcomes())
        .map(|(query, outcome)| {
            assert_eq!(query.start, query.arrival, "query {} waits", query.id);
            assert!(!query.stale, "one replica never serves stale");
            let cell = requests[query.id].address.iter().next().unwrap().1;
            (query.id, query.epoch, outcome.data_for(cell))
        })
        .collect();
    assert_eq!(
        served,
        vec![
            (0, 0, Some(0)),
            (1, 2, Some(22)),
            (2, 2, Some(44)),
            (3, 4, Some(33)),
            (4, 4, Some(44)),
        ]
    );
}

#[test]
fn a_write_at_a_completion_instant_lands_before_the_freed_slot_dispatches() {
    // An in-flight cap of 1: query 0 holds the slot from 0 to L = 49.375,
    // and query 1, queued at 1, dispatches when its completion frees the
    // slot at L. A write to the cell both read commits at L too. Writes
    // are scheduled before the run starts, so at L it commits before the
    // completion runs, and query 1's dispatch observes it.
    let setup = write_machine(NoiseAwareAdmission::from_infidelity(0.35, 0.01));
    let latency = QramServer::for_model(&setup.qram, &setup.timing).latency();
    assert_eq!(latency, Layers::new(49.375));
    let memory = ClassicalMemory::from_words(8, &[0; 64]).unwrap();
    let requests = reads(&[(0.0, 7), (1.0, 7)]);
    let report = serve(&setup, &memory, &requests, &[write(latency.get(), 7, 9)]);
    let [first, second] = report.completed() else {
        panic!("both reads complete: {:?}", report.completed());
    };
    assert_eq!((first.start, first.epoch), (Layers::ZERO, 0));
    assert_eq!((second.start, second.epoch), (latency, 1));
    assert_eq!(report.outcomes()[0].data_for(7), Some(0));
    assert_eq!(report.outcomes()[1].data_for(7), Some(9));
}

#[test]
fn an_arrival_at_a_write_instant_is_routed_before_the_commit() {
    // Query 0 arrives at the write's instant on an idle machine: it is
    // routed and dispatched before the write commits, so it reads epoch 0.
    // Query 1, later, reads the written value.
    let setup = write_machine(FifoAdmission);
    let memory = ClassicalMemory::from_words(8, &[0; 64]).unwrap();
    let requests = reads(&[(100.0, 3), (200.0, 3)]);
    let report = serve(&setup, &memory, &requests, &[write(100.0, 3, 5)]);
    let served: Vec<(Layers, u64, Option<u64>)> = report
        .completed()
        .iter()
        .zip(report.outcomes())
        .map(|(query, outcome)| (query.start, query.epoch, outcome.data_for(3)))
        .collect();
    assert_eq!(
        served,
        vec![
            (Layers::new(100.0), 0, Some(0)),
            (Layers::new(200.0), 1, Some(5)),
        ]
    );
}

#[test]
fn a_zero_queue_capacity_is_refused_before_the_run() {
    // A zero-slot queue could hold no admitted request, so every entry
    // point refuses it up front, fault plan or not, instead of admitting
    // a request no replica accepts. One slot still serves or sheds every
    // request.
    let fleet = |queue_capacity| {
        QramFleet::new(
            ShardedQram::fat_tree(Capacity::new(64).unwrap(), 2),
            2,
            TimingModel::paper_default(),
            FifoAdmission,
            ConsistentHashPlacement,
            FleetConfig {
                queue_capacity,
                replication_lag: Layers::ZERO,
            },
        )
    };
    let requests: Vec<FleetRequest> = (0..12)
        .map(|id| FleetRequest {
            id,
            tenant: TenantId::DEFAULT,
            arrival: Layers::new(id as f64),
            address: AddressState::classical(6, id as u64).unwrap(),
        })
        .collect();
    let memory = checkerboard(64);
    let crash = FaultPlan::none().with(Fault::Crash {
        replica: 1,
        at: Layers::new(5.0),
    });
    let config = FaultConfig::default();

    let refused = fleet(Some(0)).serve(&memory, requests.clone(), Vec::new());
    assert!(matches!(refused, Err(ServeError::ZeroQueueCapacity)));
    let refused =
        fleet(Some(0)).serve_with_faults(&memory, requests.clone(), Vec::new(), &crash, &config);
    assert!(matches!(refused, Err(ServeError::ZeroQueueCapacity)));
    let mut store = DurableFleet::create(Box::new(SimDir::new()), &memory).unwrap();
    let refused = fleet(Some(0)).serve_durable(
        &memory,
        requests.clone(),
        Vec::new(),
        &crash,
        &config,
        &mut store,
    );
    assert!(matches!(refused, Err(ServeError::ZeroQueueCapacity)));

    for plan in [FaultPlan::none(), crash] {
        let report = fleet(Some(1))
            .serve_with_faults(&memory, requests.clone(), Vec::new(), &plan, &config)
            .unwrap();
        let mut ids: Vec<usize> = report.completed().iter().map(|c| c.id).collect();
        ids.extend(report.shed().iter().map(|s| s.id));
        ids.sort_unstable();
        assert_eq!(ids, (0..requests.len()).collect::<Vec<_>>(), "{plan:?}");
    }
}
