//! Serving-layer integration properties: the policy-stack refactor must be
//! bit-equal to the pre-refactor schedulers, and the event-driven reactor
//! of a one-replica fleet (the §5 single machine) must realize exactly
//! the analytic schedules.

use fat_tree_qram::core::ShardedQram;
use fat_tree_qram::metrics::{Capacity, Layers, TimingModel};
use fat_tree_qram::noise::GateErrorRates;
use fat_tree_qram::qsim::branch::{AddressState, ClassicalMemory};
use fat_tree_qram::sched::{
    schedule_fifo, NoiseAwareAdmission, OnlineFifoScheduler, PolicyScheduler, QramServer,
    QueryRequest, Schedule, ScheduledQuery, TenantId,
};
use fat_tree_qram::serve::{ConsistentHashPlacement, FleetConfig, FleetRequest, QramFleet};
use proptest::prelude::*;

/// The pre-refactor FIFO admission recurrence, transcribed verbatim from
/// the PR-4 `schedule_fifo`/`OnlineFifoScheduler::submit` bodies: the
/// reference the policy-stack adapters are pinned against, bit for bit.
fn reference_fifo(requests: &[QueryRequest], server: &QramServer) -> Schedule {
    let mut order: Vec<usize> = (0..requests.len()).collect();
    order.sort_by(|&a, &b| {
        requests[a]
            .arrival
            .partial_cmp(&requests[b].arrival)
            .expect("arrivals are finite")
            .then(a.cmp(&b))
    });
    let mut entries = Vec::with_capacity(requests.len());
    let mut last_start: Option<Layers> = None;
    let mut finishes: Vec<Layers> = Vec::new();
    for (k, &idx) in order.iter().enumerate() {
        let req = requests[idx];
        let mut start = req.arrival;
        if let Some(prev) = last_start {
            start = start.max(prev + server.interval());
        }
        let p = server.parallelism() as usize;
        if k >= p {
            start = start.max(finishes[k - p]);
        }
        let finish = start + server.latency();
        finishes.push(finish);
        last_start = Some(start);
        entries.push(ScheduledQuery {
            request: req,
            start,
            finish,
        });
    }
    Schedule::from_entries(entries)
}

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

proptest! {
    /// `schedule_fifo` and `OnlineFifoScheduler`, now thin adapters over
    /// the shared `PipelineCore`, must reproduce the pre-refactor
    /// recurrence bit-for-bit — on pipelined, sequential, and sharded
    /// servers alike (the ISSUE-5 acceptance criterion).
    #[test]
    fn refactored_schedulers_are_bit_equal_to_reference(
        gaps in prop::collection::vec(0u16..400, 1..60),
        n_exp in 3u32..=12,
        k_exp in 0u32..=3,
    ) {
        let capacity = Capacity::new(1u64 << n_exp).unwrap();
        let timing = TimingModel::paper_default();
        let k = 1u32 << k_exp.min(n_exp - 1);
        let servers = [
            QramServer::fat_tree_integer_layers(capacity),
            QramServer::bucket_brigade_integer_layers(capacity),
            QramServer::for_model(&ShardedQram::fat_tree(capacity, k), &timing),
        ];
        let requests = arrivals_from_gaps(&gaps);
        for server in servers {
            let expected = reference_fifo(&requests, &server);
            let offline = schedule_fifo(&requests, &server);
            prop_assert_eq!(offline.entries(), expected.entries());
            let mut online = OnlineFifoScheduler::new(server);
            for &r in &requests {
                online.submit(r).unwrap();
            }
            let online = online.finish();
            prop_assert_eq!(online.entries(), expected.entries());
        }
    }

    /// The event-driven reactor of a one-replica fleet realizes exactly
    /// the analytic online-FIFO schedule on the equivalent server — for
    /// the single-shard backend and for K ∈ {2, 4, 8}: strict-FIFO
    /// round-robin dispatch over identical shards *is* the
    /// divided-interval aggregate server, constraint for constraint.
    #[test]
    fn reactor_completion_schedule_equals_online_fifo(
        gaps in prop::collection::vec(0u16..100, 1..40),
        addr_seeds in prop::collection::vec(0u64..4096, 1..40),
        k_exp in 0u32..=3,
    ) {
        let capacity = Capacity::new(256).unwrap();
        let timing = TimingModel::paper_default();
        let k = 1u32 << k_exp;
        let requests = arrivals_from_gaps(&gaps);
        let fleet_requests: Vec<FleetRequest> = requests
            .iter()
            .zip(addr_seeds.iter().cycle())
            .map(|(r, &seed)| FleetRequest {
                id: r.id,
                tenant: TenantId::DEFAULT,
                arrival: r.arrival,
                address: AddressState::classical(8, seed % 256).unwrap(),
            })
            .collect();
        let qram = ShardedQram::fat_tree(capacity, k);
        let server = QramServer::for_model(&qram, &timing);
        let fleet = QramFleet::fifo(qram, 1, timing);
        let cells: Vec<u64> = (0..256).map(|i| (i * 3 + 1) % 2).collect();
        let memory = ClassicalMemory::from_words(1, &cells).unwrap();
        let report = fleet.serve(&memory, fleet_requests, Vec::new()).unwrap();

        let mut online = OnlineFifoScheduler::new(server);
        for &r in &requests {
            online.submit(r).unwrap();
        }
        let realized = report.schedule();
        let online = online.finish();
        prop_assert_eq!(realized.entries(), online.entries());
        // And the real data came back: every outcome matches the ideal
        // query semantics.
        for (c, out) in report.completed().iter().zip(report.outcomes()) {
            let ideal = memory.ideal_query(
                &AddressState::classical(8, addr_seeds[c.id % addr_seeds.len()] % 256).unwrap(),
            );
            prop_assert!((out.fidelity(&ideal) - 1.0).abs() < 1e-9);
        }
    }

    /// Round-robin fairness: on K ∈ {2, 4, 8} no shard queue starves —
    /// dispatch counts differ by at most one across shards, whatever the
    /// arrival pattern.
    #[test]
    fn no_shard_queue_starves(
        gaps in prop::collection::vec(0u16..50, 8..48),
        k_exp in 1u32..=3,
    ) {
        let k = 1u32 << k_exp;
        let capacity = Capacity::new(1024).unwrap();
        let timing = TimingModel::paper_default();
        let qram = ShardedQram::fat_tree(capacity, k);
        let fleet = QramFleet::fifo(qram, 1, timing);
        let requests: Vec<FleetRequest> = arrivals_from_gaps(&gaps)
            .into_iter()
            .map(|r| FleetRequest {
                id: r.id,
                tenant: TenantId::DEFAULT,
                arrival: r.arrival,
                address: AddressState::classical(10, (r.id as u64 * 37) % 1024).unwrap(),
            })
            .collect();
        let total = requests.len() as u64;
        let memory = ClassicalMemory::zeros(1024);
        let report = fleet.serve(&memory, requests, Vec::new()).unwrap();
        let mut counts = vec![0u64; k as usize];
        for query in report.completed() {
            counts[query.shard] += 1;
        }
        prop_assert_eq!(counts.iter().sum::<u64>(), total);
        let max = counts.iter().copied().max().unwrap();
        let min = counts.iter().copied().min().unwrap();
        prop_assert!(max - min <= 1, "starved queues: {:?}", counts);
    }

    /// Noise-aware admission picks strictly smaller concurrent batches
    /// than FIFO when the post-distillation fidelity target is tight, and
    /// degenerates to FIFO exactly when it is loose (Table 4's
    /// parallelism–fidelity trade-off as a scheduling policy).
    #[test]
    fn noise_aware_admission_trades_throughput_for_fidelity(
        gaps in prop::collection::vec(0u16..8, 12..40),
    ) {
        let capacity = Capacity::new(16).unwrap();
        let timing = TimingModel::paper_default();
        let qram = ShardedQram::fat_tree(capacity, 2);
        let server = QramServer::for_model(&qram, &timing);
        // Table 4 operating point: ε = 0.16 per query.
        let rates = GateErrorRates::from_cswap_rate(2e-3);
        let requests = arrivals_from_gaps(&gaps);

        let tight = NoiseAwareAdmission::for_model(&qram, &rates, 1e-3);
        prop_assert!(tight.batch_cap(server.parallelism()) < server.parallelism());

        let mut fifo = OnlineFifoScheduler::new(server);
        let mut tight_sched = PolicyScheduler::new(server, tight);
        let mut loose_sched =
            PolicyScheduler::new(server, NoiseAwareAdmission::for_model(&qram, &rates, 0.9));
        for &r in &requests {
            fifo.submit(r).unwrap();
            tight_sched.admit(r).unwrap();
            loose_sched.admit(r).unwrap();
        }
        let fifo = fifo.finish();
        let tight = tight_sched.into_schedule();
        let loose = loose_sched.into_schedule();
        // Loose target: no distillation pressure, identical to FIFO.
        prop_assert_eq!(loose.entries(), fifo.entries());
        // Tight target: every query still completes, but the saturated
        // burst serializes into smaller concurrent batches, so the
        // makespan can only grow — and grows strictly under saturation.
        prop_assert_eq!(tight.entries().len(), fifo.entries().len());
        prop_assert!(tight.makespan() >= fifo.makespan());
        prop_assert!(tight.total_latency() >= fifo.total_latency());
    }
}

#[test]
fn reactor_handles_bursty_traffic_end_to_end() {
    // A deterministic bursty trace through the full stack: generator →
    // one-replica fleet → histogram. Tail latency must strictly exceed the median
    // under bursts (queueing), and every accepted query completes.
    use fat_tree_qram::sched::bursty_arrivals;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    let capacity = Capacity::new(4096).unwrap();
    let timing = TimingModel::paper_default();
    let qram = ShardedQram::fat_tree(capacity, 4);
    let fleet = QramFleet::fifo(qram, 1, timing);
    let mut rng = StdRng::seed_from_u64(20260727);
    // ON bursts near 4× the aggregate service rate, long OFF gaps.
    let aggregate_rate = 4.0 / 8.25;
    let arrivals = bursty_arrivals(4.0 * aggregate_rate, 40.0, 120.0, 400, &mut rng);
    let requests: Vec<FleetRequest> = arrivals
        .iter()
        .map(|r| FleetRequest {
            id: r.id,
            tenant: TenantId::DEFAULT,
            arrival: r.arrival,
            address: AddressState::classical(12, (r.id as u64 * 1103) % 4096).unwrap(),
        })
        .collect();
    let memory = ClassicalMemory::zeros(4096);
    let report = fleet.serve(&memory, requests, Vec::new()).unwrap();
    assert_eq!(report.completed().len(), 400);
    let hist = report.latency_histogram();
    assert_eq!(hist.count(), 400);
    let (p50, p99) = (hist.p50().unwrap(), hist.p99().unwrap());
    assert!(
        p99 > p50,
        "bursts must induce a latency tail: p50 {p50} p99 {p99}"
    );
    // The floor is the monolithic single-query latency.
    let t1 = fleet.equivalent_server().latency();
    assert!(hist.min() >= t1);
}

#[test]
fn noise_aware_service_serves_fewer_queries_concurrently() {
    // The same tight-target policy mounted on a live one-replica fleet: peak
    // in-flight occupancy (reconstructed from the realized schedule) must
    // stay at the distillation batch cap while FIFO fills the pipeline.
    let capacity = Capacity::new(16).unwrap();
    let timing = TimingModel::paper_default();
    let rates = GateErrorRates::from_cswap_rate(2e-3);
    let make = || ShardedQram::fat_tree(capacity, 2);
    let requests = |n: usize| -> Vec<FleetRequest> {
        (0..n)
            .map(|id| FleetRequest {
                id,
                tenant: TenantId::DEFAULT,
                arrival: Layers::ZERO,
                address: AddressState::classical(4, id as u64 % 16).unwrap(),
            })
            .collect()
    };
    let memory = ClassicalMemory::zeros(16);

    let peak_inflight = |schedule: &[fat_tree_qram::sched::ScheduledQuery]| -> usize {
        schedule
            .iter()
            .map(|q| {
                schedule
                    .iter()
                    .filter(|o| o.start <= q.start && q.start < o.finish)
                    .count()
            })
            .max()
            .unwrap()
    };

    let fifo_fleet = QramFleet::fifo(make(), 1, timing);
    let fifo_report = fifo_fleet.serve(&memory, requests(12), Vec::new()).unwrap();
    let fifo_schedule = fifo_report.schedule();

    let tight = NoiseAwareAdmission::for_model(&make(), &rates, 1e-3);
    assert_eq!(tight.copies(), 4);
    let noise_fleet = QramFleet::new(
        make(),
        1,
        timing,
        tight,
        ConsistentHashPlacement,
        FleetConfig::default(),
    );
    let noise_report = noise_fleet
        .serve(&memory, requests(12), Vec::new())
        .unwrap();
    let noise_schedule = noise_report.schedule();

    let cap = tight.batch_cap(QramServer::for_model(&make(), &timing).parallelism()) as usize;
    assert!(peak_inflight(fifo_schedule.entries()) > cap);
    assert!(peak_inflight(noise_schedule.entries()) <= cap);
    assert!(noise_schedule.makespan() > fifo_schedule.makespan());
}
