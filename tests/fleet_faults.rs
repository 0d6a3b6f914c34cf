//! Chaos suite for the fault-tolerant fleet: deterministic fault
//! injection must never lose a query (every admitted request resolves
//! exactly once, as Completed or Shed), retries must respect the backoff
//! budget, and the empty fault plan must match the independent replay in
//! `common/fleet_replay.rs` — sheds, schedules, shards, epochs, stale
//! flags and outcomes.

#[path = "common/fleet_replay.rs"]
mod fleet_replay;

use fat_tree_qram::core::{FatTreeQram, ShardedQram};
use fat_tree_qram::metrics::{Capacity, Layers, TimingModel};
use fat_tree_qram::qsim::branch::{AddressState, ClassicalMemory};
use fat_tree_qram::sched::{FifoAdmission, QuotaAdmission, RetryPolicy, SloClass, TenantId};
use fat_tree_qram::serve::{
    BrownoutConfig, ConsistentHashPlacement, Fault, FaultConfig, FaultPlan, FleetConfig,
    FleetRequest, FleetWrite, QramFleet, ShedReason, ShedRequest,
};
use fleet_replay::{check, replay, tenant_ids, tenant_mix, Placement, Setup};
use proptest::prelude::*;

fn checkerboard(n: u64) -> ClassicalMemory {
    let cells: Vec<u64> = (0..n).map(|i| (i * 5 + 1) % 2).collect();
    ClassicalMemory::from_words(1, &cells).unwrap()
}

fn request(id: usize, tenant: u32, arrival: f64, address: u64) -> FleetRequest {
    FleetRequest {
        id,
        tenant: TenantId(tenant),
        arrival: Layers::new(arrival),
        address: AddressState::classical(6, address % 64).unwrap(),
    }
}

fn fifo_fleet(
    replicas: usize,
    shards: u32,
    queue_capacity: Option<usize>,
) -> QramFleet<FatTreeQram> {
    QramFleet::new(
        ShardedQram::fat_tree(Capacity::new(64).unwrap(), shards),
        replicas,
        TimingModel::paper_default(),
        FifoAdmission,
        ConsistentHashPlacement,
        FleetConfig {
            queue_capacity,
            replication_lag: Layers::new(30.0),
        },
    )
}

proptest! {
    /// The fault-free pin: `serve` (which routes through
    /// `serve_with_faults` with the empty plan and the default passive
    /// config) matches the independent replay for R ∈ {1, 2, 4} under
    /// both placements, a three-tenant mix (a quota, a `Batch` class)
    /// with dense or sparse tenant ids, FIFO and noise-aware in-flight
    /// caps, bounded queues and lagged writes — same sheds, schedules,
    /// shards, epochs, stale flags and outcomes, and an all-zero
    /// availability ledger.
    #[test]
    fn empty_fault_plan_is_bit_equal_to_the_reference_loop(
        gaps in prop::collection::vec(0u16..90, 4..40),
        addr_seeds in prop::collection::vec(0u64..64, 4..40),
        write_seeds in prop::collection::vec(0u64..9_000_000, 0..5),
        r_exp in 0u32..=2,
        queue_cap_raw in 0usize..10,
        tenant_seeds in prop::collection::vec(0usize..3, 1..40),
        quota in 1u32..6,
        cap_raw in 0usize..3,
        least_loaded in 0u32..2,
        sparse in 0u32..2,
    ) {
        let r = 1usize << r_exp;
        let tenants = tenant_ids(sparse == 1);
        let queue_cap = (queue_cap_raw > 0).then_some(queue_cap_raw);
        let mut t = 0.0;
        let requests: Vec<FleetRequest> = gaps
            .iter()
            .enumerate()
            .map(|(id, &g)| {
                t += f64::from(g) / 16.0;
                let tenant = tenants[tenant_seeds[id % tenant_seeds.len()]];
                request(id, tenant.0, t, addr_seeds[id % addr_seeds.len()])
            })
            .collect();
        let mut wt = 0.0;
        let writes: Vec<FleetWrite> = write_seeds
            .iter()
            .map(|&seed| {
                wt += (seed % 900) as f64 / 16.0 + 0.333;
                FleetWrite {
                    at: Layers::new(wt),
                    origin: (seed / 900) as usize % r,
                    address: (seed / 3600) % 64,
                    value: (seed / 230_400) % 2,
                }
            })
            .collect();
        let memory = checkerboard(64);
        let setup = Setup {
            qram: ShardedQram::fat_tree(Capacity::new(64).unwrap(), 2),
            replicas: r,
            timing: TimingModel::paper_default(),
            policy: tenant_mix(tenants, quota, cap_raw),
            placement: [Placement::ConsistentHash, Placement::LeastLoaded][least_loaded as usize],
            config: FleetConfig {
                queue_capacity: queue_cap,
                replication_lag: Layers::new(30.0),
            },
        };

        let Setup { qram, replicas, timing, policy, placement, config } = setup.clone();
        let report = QramFleet::new(qram, replicas, timing, policy, placement, config)
            .serve(&memory, requests.clone(), writes.clone())
            .unwrap();
        check(&report, &replay(&setup, &memory, &requests, &writes))?;
    }

    /// The no-lost-queries invariant under seeded chaos: whatever the
    /// fault plan does — crashes, recoveries, slowdowns, stalls, dropped
    /// replication, corrupted outcomes, torn durable writes, silent disk
    /// corruption — every request resolves exactly once, every completed
    /// query's attempt count respects the retry budget, and the run
    /// terminates. Half the runs scrub, so crash + disk-corrupt +
    /// scrub-repair all compose under the same invariant.
    #[test]
    fn seeded_chaos_never_loses_a_query(
        seed in 0u64..u64::MAX,
        gaps in prop::collection::vec(0u16..80, 8..48),
        addr_seeds in prop::collection::vec(0u64..64, 8..48),
        r in 1usize..=4,
        queue_cap_raw in 0usize..8,
        hedge_raw in 0u32..2,
        scrub_raw in 0u32..2,
    ) {
        let queue_cap = (queue_cap_raw > 0).then_some(queue_cap_raw + 3);
        let mut t = 0.0;
        let requests: Vec<FleetRequest> = gaps
            .iter()
            .enumerate()
            .map(|(id, &g)| {
                t += f64::from(g) / 16.0;
                request(id, 0, t, addr_seeds[id % addr_seeds.len()])
            })
            .collect();
        let total = requests.len();
        let writes = vec![
            FleetWrite { at: Layers::new(t * 0.3 + 0.1), origin: 0, address: 3, value: 1 },
            FleetWrite { at: Layers::new(t * 0.7 + 0.2), origin: r - 1, address: 9, value: 0 },
        ];
        let plan = FaultPlan::from_seed(seed, r, 2, Layers::new(t + 500.0));
        let config = FaultConfig {
            hedge_delay: (hedge_raw == 1).then(|| Layers::new(25.0)),
            monitor_interval: Layers::new(32.0),
            scrub_interval: (scrub_raw == 1).then(|| Layers::new(48.0)),
            ..FaultConfig::default()
        };

        let fleet = fifo_fleet(r, 2, queue_cap);
        let report = fleet
            .serve_with_faults(&checkerboard(64), requests.clone(), writes.clone(), &plan, &config)
            .unwrap();

        // Conservation: every request resolved exactly once.
        let mut resolved = vec![0usize; total];
        for c in report.completed() {
            resolved[c.id] += 1;
        }
        for s in report.shed() {
            resolved[s.id] += 1;
        }
        for (id, &count) in resolved.iter().enumerate() {
            prop_assert!(count == 1, "request {} resolved {} times", id, count);
        }
        // Attempts respect the capped retry budget.
        let budget = RetryPolicy::default().max_attempts;
        prop_assert!(report.completed().iter().all(|c| 1 <= c.attempts && c.attempts <= budget));
        // Timing sanity survives the chaos.
        prop_assert!(report
            .completed()
            .iter()
            .all(|c| c.arrival <= c.start && c.start < c.finish));
        // The ledger is consistent with the plan: no crash faults, no
        // crash counts.
        let planned_crashes = plan
            .faults()
            .iter()
            .filter(|f| matches!(f, Fault::Crash { .. }))
            .count() as u64;
        prop_assert!(report.availability().crashes <= planned_crashes);
        if planned_crashes == 0 {
            prop_assert_eq!(report.availability().failovers, 0);
        }
        // The integrity ledger is consistent with the durability tier:
        // when it is active every committed epoch is WAL-logged (plus
        // re-appends after torn-tail truncations), and a repaired
        // divergence always pairs a mismatch or truncation with a
        // repair.
        let integrity = report.integrity();
        if plan.has_disk_faults() || scrub_raw == 1 {
            prop_assert!(integrity.wal_appends >= report.fleet_epoch());
        } else {
            prop_assert_eq!(integrity, &fat_tree_qram::metrics::IntegrityCounters::default());
        }
        if scrub_raw == 1 {
            prop_assert!(integrity.scrub_cycles >= 1);
        }
        prop_assert!(integrity.clean() || integrity.repairs > 0 || integrity.mismatches > 0);
        // Outcomes survive the chaos: without silent disk corruption,
        // every completed query reads exactly the base image plus the
        // first `epoch` writes — through crashes, rejoin replay, retries,
        // hedges, torn-write audits and scrubs.
        if !plan.faults().iter().any(|f| matches!(f, Fault::DiskCorrupt { .. })) {
            for (c, outcome) in report.completed().iter().zip(report.outcomes()) {
                let mut image = checkerboard(64);
                for w in &writes[..c.epoch as usize] {
                    image.write(w.address, w.value);
                }
                let ideal = image.ideal_query(&requests[c.id].address);
                prop_assert!(
                    outcome == &ideal,
                    "query {} at epoch {} on replica {}",
                    c.id,
                    c.epoch,
                    c.replica
                );
            }
        }
    }
}

#[test]
fn crash_is_detected_failed_over_and_repaired() {
    // R = 2, consistent hash: odd addresses home at replica 1, which
    // crashes at t = 450 with work queued and in flight, and recovers at
    // t = 1200. Default detection ticks every 64 layers: Suspect at 512,
    // Down at 576, stranded queries retried (backoff 64) at 640 onto
    // replica 0. No query is lost.
    let fleet = fifo_fleet(2, 2, None);
    let mut requests: Vec<FleetRequest> = (0..16)
        .map(|i| request(i, 0, i as f64 * 100.0, i as u64))
        .collect();
    for k in 0..4usize {
        requests.push(request(16 + k, 0, 440.0, 2 * k as u64 + 1));
    }
    let total = requests.len();
    let plan = FaultPlan::none()
        .with(Fault::Crash {
            replica: 1,
            at: Layers::new(450.0),
        })
        .with(Fault::Recover {
            replica: 1,
            at: Layers::new(1200.0),
        });
    let report = fleet
        .serve_with_faults(
            &checkerboard(64),
            requests,
            Vec::new(),
            &plan,
            &FaultConfig::default(),
        )
        .unwrap();

    assert_eq!(
        report.completed().len(),
        total,
        "the retry budget absorbs one crash: {:?}",
        report.shed()
    );
    let ledger = report.availability();
    assert_eq!(ledger.crashes, 1);
    assert_eq!(ledger.recoveries, 1);
    assert!(
        ledger.failovers >= 4,
        "the 440-burst strands on the crashed replica: {ledger}"
    );
    assert_eq!(
        ledger.retries, ledger.failovers,
        "each failover re-dispatches once"
    );
    // No writes → nothing to replay: the replica rejoins the instant it
    // recovers, so MTTR is exactly the crash → recover gap.
    assert_eq!(report.mttr(), Some(Layers::new(750.0)));
    // Failed-over queries consumed a second attempt.
    assert!(report.completed().iter().any(|c| c.attempts == 2));
    // While replica 1 was down, its odd addresses probed to replica 0...
    let rerouted = report
        .completed()
        .iter()
        .find(|c| c.id == 7)
        .expect("query 7 (arrival 700) completes");
    assert_eq!(
        rerouted.replica, 0,
        "address affinity degrades around the failure"
    );
    // ...and snapped back after the rejoin.
    let snapped = report
        .completed()
        .iter()
        .find(|c| c.id == 13)
        .expect("query 13 (arrival 1300) completes");
    assert_eq!(snapped.replica, 1, "affinity snaps back after recovery");
}

#[test]
fn a_crash_recovered_before_detection_fails_over_at_recovery() {
    // R = 2: a burst at t = 440 homes at replica 1 (odd addresses), which
    // crashes at 450 with three queries in flight and one queued, and is
    // back at 500 — before the monitor's tick at 512 could even suspect
    // it. Recovery itself fails the four stranded queries over (each
    // retries once, after a 64-layer backoff). Query 4 arrives during the
    // outage and queues at the dead replica; the two writes it missed
    // meanwhile are replayed (one layer each) before it rejoins at 502,
    // and the rejoin dispatches query 4 against the caught-up memory.
    let fleet = fifo_fleet(2, 2, None);
    let mut requests: Vec<FleetRequest> = (0..4)
        .map(|k| request(k, 0, 440.0, 2 * k as u64 + 1))
        .collect();
    requests.push(request(4, 0, 455.0, 9));
    let write = |at: f64, address: u64| FleetWrite {
        at: Layers::new(at),
        origin: 0,
        address,
        value: 1,
    };
    let plan = FaultPlan::none()
        .with(Fault::Crash {
            replica: 1,
            at: Layers::new(450.0),
        })
        .with(Fault::Recover {
            replica: 1,
            at: Layers::new(500.0),
        });
    let report = fleet
        .serve_with_faults(
            &checkerboard(64),
            requests,
            vec![write(455.5, 9), write(460.5, 13)],
            &plan,
            &FaultConfig::default(),
        )
        .unwrap();

    assert_eq!(report.completed().len(), 5, "shed: {:?}", report.shed());
    let ledger = report.availability();
    assert_eq!((ledger.crashes, ledger.recoveries), (1, 1));
    assert_eq!((ledger.failovers, ledger.retries), (4, 4));
    assert_eq!(report.mttr(), Some(Layers::new(52.0)));
    for (c, outcome) in report.completed().iter().zip(report.outcomes()) {
        assert_eq!(c.replica, 1, "query {}", c.id);
        if c.id < 4 {
            assert_eq!(c.attempts, 2, "query {} failed over once", c.id);
            assert!(c.start >= Layers::new(564.0), "retried after the backoff");
        } else {
            assert_eq!((c.attempts, c.start), (1, Layers::new(502.0)));
            assert_eq!((c.epoch, c.stale), (2, false));
            assert_eq!(outcome.data_for(9), Some(1), "the replayed write");
        }
    }
}

#[test]
fn deadlines_shed_queries_that_cannot_dispatch_in_time() {
    // K = 1 at capacity 64: admission interval 8.25 layers. A deadline of
    // 20 layers admits exactly the first three dispatches of a burst
    // (starts 0, 8.25, 16.5); the fourth would start at 24.75, so it and
    // everything behind it expires — bounded waiting instead of unbounded
    // queueing.
    let policy =
        QuotaAdmission::new(FifoAdmission).with_deadline(TenantId::DEFAULT, Layers::new(20.0));
    let fleet = QramFleet::new(
        ShardedQram::fat_tree(Capacity::new(64).unwrap(), 1),
        1,
        TimingModel::paper_default(),
        policy,
        ConsistentHashPlacement,
        FleetConfig::default(),
    );
    let requests: Vec<FleetRequest> = (0..12).map(|i| request(i, 0, 0.0, i as u64)).collect();
    let report = fleet
        .serve(&checkerboard(64), requests, Vec::new())
        .unwrap();

    assert_eq!(report.completed().len(), 3);
    assert_eq!(report.shed().len(), 9);
    assert!(report
        .shed()
        .iter()
        .all(|s| s.reason == ShedReason::DeadlineExceeded));
    assert_eq!(report.availability().deadline_expirations, 9);
    assert_eq!(
        report.shed_by_reason().get(&ShedReason::DeadlineExceeded),
        Some(&9)
    );
    assert!(report
        .completed()
        .iter()
        .all(|c| c.start <= Layers::new(20.0)));
}

#[test]
fn brownout_sheds_batch_before_interactive() {
    // A saturating Interactive burst drives routable occupancy far past
    // the brownout high-water mark; from the first monitor tick on, Batch
    // arrivals shed at the router while Interactive arrivals (level 1 of
    // the controller) are still admitted in full.
    let batch = TenantId(1);
    let interactive = TenantId(2);
    let policy = QuotaAdmission::new(FifoAdmission).with_slo(batch, SloClass::Batch);
    let fleet = QramFleet::new(
        ShardedQram::fat_tree(Capacity::new(64).unwrap(), 1),
        1,
        TimingModel::paper_default(),
        policy,
        ConsistentHashPlacement,
        FleetConfig::default(),
    );
    // 90 Interactive arrivals at t = 0 swamp the replica (slots = 6
    // in-flight + 24 notional queue), then both classes trickle in
    // between the first tick (64) and the second (128).
    let mut requests: Vec<FleetRequest> = (0..90)
        .map(|i| request(i, interactive.0, 0.0, i as u64))
        .collect();
    for k in 0..15usize {
        requests.push(request(90 + k, batch.0, 66.0 + 4.0 * k as f64, k as u64));
        requests.push(request(
            105 + k,
            interactive.0,
            67.0 + 4.0 * k as f64,
            k as u64,
        ));
    }
    let config = FaultConfig {
        brownout: Some(BrownoutConfig::default()),
        ..FaultConfig::default()
    };
    let report = fleet
        .serve_with_faults(
            &checkerboard(64),
            requests,
            Vec::new(),
            &FaultPlan::none(),
            &config,
        )
        .unwrap();

    let brownout_shed: Vec<&_> = report
        .shed()
        .iter()
        .filter(|s| s.reason == ShedReason::Brownout)
        .collect();
    assert_eq!(
        brownout_shed.len(),
        15,
        "every post-tick Batch arrival sheds: {:?}",
        report.shed_by_reason()
    );
    assert!(
        brownout_shed.iter().all(|s| s.tenant == batch),
        "brownout degrades cheapest-first: Batch before Interactive"
    );
    // Interactive traffic rode through the brownout untouched.
    assert_eq!(report.completed().len(), 90 + 15);
}

#[test]
fn hedged_dispatch_beats_a_slow_replica() {
    // Replica 0 serves at 8× nominal latency for the whole run. Every
    // Interactive query homes there (even addresses); the hedge fires 10
    // layers after arrival, lands on healthy replica 1, and wins — the
    // experienced latency is the hedge's, not the straggler's.
    let fleet = fifo_fleet(2, 2, None);
    let requests: Vec<FleetRequest> = (0..4)
        .map(|i| request(i, 0, i as f64 * 500.0, 2 * i as u64))
        .collect();
    let plan = FaultPlan::none().with(Fault::SlowReplica {
        replica: 0,
        from: Layers::ZERO,
        until: Layers::new(1.0e6),
        factor: 8.0,
    });
    let config = FaultConfig {
        hedge_delay: Some(Layers::new(10.0)),
        ..FaultConfig::default()
    };
    let report = fleet
        .serve_with_faults(&checkerboard(64), requests, Vec::new(), &plan, &config)
        .unwrap();

    assert_eq!(report.completed().len(), 4);
    let ledger = report.availability();
    assert_eq!(ledger.hedges, 4);
    assert_eq!(ledger.hedge_wins, 4);
    // Nominal latency is 49.375 layers; the slow primary would take 395.
    // Hedged completions finish within hedge delay + nominal + slack.
    for c in report.completed() {
        assert_eq!(c.replica, 1, "the hedge won on the healthy replica");
        assert_eq!(c.attempts, 1, "hedges are duplicates, not retries");
        assert!(
            c.response_latency() < Layers::new(100.0),
            "hedged latency {:?} must beat the 395-layer straggler",
            c.response_latency()
        );
    }
}

#[test]
fn a_slowed_completion_finishes_exactly_factor_latencies_after_its_start() {
    // One replica serves at 3× nominal latency for dispatches starting in
    // [200, 600). The window is judged at the dispatch start: a query
    // dispatched inside it completes exactly three latencies after its
    // start, even when it completes past `until`, and one dispatched at
    // or after `until` completes exactly one latency after its start.
    let fleet = fifo_fleet(1, 1, None);
    let latency = fleet.equivalent_server().latency();
    let (from, until) = (Layers::new(200.0), Layers::new(600.0));
    let requests: Vec<FleetRequest> = (0..40)
        .map(|i| request(i, 0, 25.0 * i as f64, i as u64))
        .collect();
    let plan = FaultPlan::none().with(Fault::SlowReplica {
        replica: 0,
        from,
        until,
        factor: 3.0,
    });
    let report = fleet
        .serve_with_faults(
            &checkerboard(64),
            requests,
            Vec::new(),
            &plan,
            &FaultConfig::default(),
        )
        .unwrap();

    assert_eq!(report.completed().len(), 40);
    let (mut slowed, mut after) = (0, 0);
    for c in report.completed() {
        if c.start >= from && c.start < until {
            let stretched = c.start + Layers::new(3.0 * latency.get());
            assert_eq!(c.finish, stretched, "query {} started inside", c.id);
            slowed += 1;
        } else if c.start >= until {
            assert_eq!(c.finish, c.start + latency, "query {} started after", c.id);
            after += 1;
        }
    }
    assert!(
        slowed >= 10 && after >= 10,
        "{slowed} slowed, {after} after"
    );
}

#[test]
fn corrupted_outcomes_are_caught_by_parity_and_reserved() {
    let fleet = fifo_fleet(1, 1, None);
    let requests = vec![request(0, 0, 0.0, 5)];
    let plan = FaultPlan::none().with(Fault::CorruptOutcome {
        replica: 0,
        dispatch: 0,
    });
    let report = fleet
        .serve_with_faults(
            &checkerboard(64),
            requests,
            Vec::new(),
            &plan,
            &FaultConfig::default(),
        )
        .unwrap();

    assert_eq!(report.completed().len(), 1);
    let ledger = report.availability();
    assert_eq!(ledger.corruptions_detected, 1, "parity caught the flip");
    assert_eq!(ledger.retries, 1);
    assert_eq!(report.completed()[0].attempts, 2);
    // The re-served outcome is the clean one: checkerboard(64)[5] = 0.
    assert_eq!(report.outcomes()[0].data_for(5), Some(0));
}

#[test]
fn a_stalled_shard_freezes_strict_fifo_dispatch_until_thawed() {
    // Shard 0 stalls over [0, 600) before any arrival; strict FIFO
    // round-robin means the whole replica dispatches nothing until the
    // thaw re-pumps it.
    let fleet = fifo_fleet(1, 2, None);
    let requests: Vec<FleetRequest> = (0..10).map(|i| request(i, 0, 10.0, i as u64)).collect();
    let plan = FaultPlan::none().with(Fault::StallShard {
        replica: 0,
        shard: 0,
        from: Layers::ZERO,
        until: Layers::new(600.0),
    });
    let report = fleet
        .serve_with_faults(
            &checkerboard(64),
            requests,
            Vec::new(),
            &plan,
            &FaultConfig::default(),
        )
        .unwrap();

    assert_eq!(report.completed().len(), 10);
    assert!(
        report
            .completed()
            .iter()
            .all(|c| c.start >= Layers::new(600.0)),
        "nothing dispatches while the head shard is frozen"
    );
}

#[test]
fn brownout_observes_occupancy_after_the_tick_declares_a_replica_down() {
    // R = 2, K = 1: each replica has 6 in-flight slots plus a notional
    // queue of 24. Replica 1 crashes at 10 and takes no traffic (every
    // address is even, so replica 0 is home). The tick at 64 finds it
    // Suspect, with both replicas routable and occupancy 0. Eighteen
    // Interactive queries reach replica 0 at 100: at 128 four are in
    // flight and fourteen queued. The tick at 128 declares replica 1
    // Down, and the occupancy over the one routable replica, 18/30, tops
    // the 0.5 high-water mark; over both replicas it would be 18/60. So
    // the controller escalates to level 1 and the Batch arrival at 130
    // is shed.
    let batch = TenantId(1);
    let policy = QuotaAdmission::new(FifoAdmission).with_slo(batch, SloClass::Batch);
    let fleet = QramFleet::new(
        ShardedQram::fat_tree(Capacity::new(64).unwrap(), 1),
        2,
        TimingModel::paper_default(),
        policy,
        ConsistentHashPlacement,
        FleetConfig::default(),
    );
    let mut requests: Vec<FleetRequest> = (0..18)
        .map(|i| request(i, 0, 100.0, 2 * i as u64))
        .collect();
    requests.push(request(18, batch.0, 130.0, 40));
    let plan = FaultPlan::none().with(Fault::Crash {
        replica: 1,
        at: Layers::new(10.0),
    });
    let config = FaultConfig {
        brownout: Some(BrownoutConfig {
            high: 0.5,
            low: 0.1,
        }),
        ..FaultConfig::default()
    };
    let report = fleet
        .serve_with_faults(&checkerboard(64), requests, Vec::new(), &plan, &config)
        .unwrap();

    let shed = ShedRequest {
        id: 18,
        tenant: batch,
        reason: ShedReason::Brownout,
    };
    assert_eq!(report.shed(), &[shed]);
    assert_eq!(report.completed().len(), 18);
    assert!(report.completed().iter().all(|c| c.replica == 0));
}
