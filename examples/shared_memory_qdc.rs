//! A quantum-data-center scenario (§1, Fig. 1(a)), fleet edition: two
//! tenants share a fleet of Fat-Tree QRAM replicas behind the routing
//! tier — one tenant runs hot under an outstanding-request quota, the
//! other trickles along in a batch SLO class — while a memory write
//! replicates through the fleet mid-run.
//!
//! Run with: `cargo run --example shared_memory_qdc`

use fat_tree_qram::core::ShardedQram;
use fat_tree_qram::metrics::{Capacity, Layers, TimingModel};
use fat_tree_qram::qsim::branch::{AddressState, ClassicalMemory};
use fat_tree_qram::sched::{FifoAdmission, QuotaAdmission, SloClass, TenantId};
use fat_tree_qram::serve::{
    ConsistentHashPlacement, FleetConfig, FleetRequest, FleetWrite, QramFleet, ShedReason,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let capacity = Capacity::new(1024)?;
    let timing = TimingModel::paper_default();
    let mut rng = StdRng::seed_from_u64(2026);

    // Two tenants on an R = 2 fleet of K = 4 sharded Fat-Tree QRAMs:
    // tenant 0 ("hot") floods the fleet and is capped at 6 outstanding
    // queries; tenant 1 ("batch") trickles along in the Batch SLO class,
    // entitled to half of each replica's arrival queue.
    let hot = TenantId(0);
    let batch = TenantId(1);
    let policy = QuotaAdmission::new(FifoAdmission)
        .with_quota(hot, 6)
        .with_slo(batch, SloClass::Batch);
    let fleet = QramFleet::new(
        ShardedQram::fat_tree(capacity, 4),
        2,
        timing,
        policy,
        ConsistentHashPlacement,
        FleetConfig {
            queue_capacity: Some(32),
            replication_lag: Layers::new(40.0),
        },
    );

    let mut requests = Vec::new();
    // The hot tenant: a dense open-loop stream over a 2 ms window.
    let mut t = 0.0;
    for _ in 0..160 {
        t += rng.random_range(0.5..12.0);
        requests.push(FleetRequest {
            id: requests.len(),
            tenant: hot,
            arrival: Layers::new(t),
            address: AddressState::classical(10, rng.random_range(0..1024))?,
        });
    }
    // The batch tenant: sparse sweeps.
    let mut t = 0.0;
    for _ in 0..40 {
        t += rng.random_range(10.0..60.0);
        requests.push(FleetRequest {
            id: requests.len(),
            tenant: batch,
            arrival: Layers::new(t),
            address: AddressState::classical(10, rng.random_range(0..1024))?,
        });
    }
    // Mid-run, cell 17 is rewritten at replica 0; replica 1 serves stale
    // (flagged) reads of it until replication lands 40 layers later.
    let write = FleetWrite {
        at: Layers::new(400.0),
        origin: 0,
        address: 17,
        value: 3,
    };

    let memory = ClassicalMemory::from_words(2, &vec![1u64; 1024])?;
    let report = fleet.serve(&memory, requests, vec![write])?;

    println!(
        "QRAM fleet: R = 2 replicas x K = 4 shards, capacity {} words",
        capacity.get()
    );
    println!(
        "{} queries served, {} shed (quota {}, SLO {}, queue {}), {} stale-flagged",
        report.completed().len(),
        report.shed().len(),
        report.shed_count(ShedReason::QuotaExceeded),
        report.shed_count(ShedReason::SloShed),
        report.shed_count(ShedReason::QueueFull),
        report.stale_served(),
    );
    println!(
        "fleet epoch {}, aggregate rate {:.0} queries/s",
        report.fleet_epoch(),
        report.query_rate().get()
    );
    println!();
    println!(
        "{:<10} {:>8} {:>14} {:>14} {:>14}",
        "tenant", "served", "p50 (µs)", "p95 (µs)", "p99 (µs)"
    );
    for (tenant, histogram) in report.per_tenant().iter() {
        println!(
            "{:<10} {:>8} {:>14.1} {:>14.1} {:>14.1}",
            tenant.to_string(),
            histogram.count(),
            timing.layers_to_micros(histogram.quantile(0.50)),
            timing.layers_to_micros(histogram.quantile(0.95)),
            timing.layers_to_micros(histogram.quantile(0.99)),
        );
    }
    println!();
    println!("{:<10} {:>10} {:>14}", "replica", "dispatched", "p99 (µs)");
    for (replica, histogram) in report.per_replica().iter() {
        println!(
            "{:<10} {:>10} {:>14.1}",
            format!("replica{replica}"),
            report.per_replica_dispatches()[replica],
            timing.layers_to_micros(histogram.quantile(0.99)),
        );
    }
    println!();
    println!(
        "(The quota keeps the hot tenant's queue shallow — its p99 stays \
         bounded while excess load sheds at the router; the batch tenant \
         rides in its SLO share. The mid-run write bumps the fleet epoch: \
         reads at the lagging replica are flagged stale, never silently \
         served as fresh.)"
    );
    Ok(())
}
