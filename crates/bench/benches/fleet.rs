//! Multi-tenant fleet serving benchmark: a flash crowd from a hot tenant
//! lands on a replicated Fat-Tree QRAM fleet at `N = 4096`, `K = 4`,
//! `R ∈ {1, 2, 4}`.
//!
//! The reproduction artifact is one row per replica count — offered
//! load, sustained fleet throughput, hot-tenant and background p99 —
//! under a two-tenant mix: a background tenant at a steady Poisson
//! trickle and a hot tenant whose flash crowd peaks at several times
//! the aggregate admission capacity of a single replica. Each row is
//! produced twice, with the hot tenant uncapped and with an
//! outstanding-query quota at the router, so the table shows both the
//! throughput scaling in `R` and the quota keeping the hot tenant's p99
//! bounded while the crowd sheds. Every number is on the modeled clock;
//! the host time of the fleet serving loop is perfbench's (`perfbench/`).

use qram_core::{QramModel, ShardedQram};
use qram_metrics::{Capacity, TimingModel};
use qram_sched::{flash_crowd_arrivals, poisson_arrivals, FifoAdmission, QuotaAdmission, TenantId};
use qram_serve::{ConsistentHashPlacement, FleetConfig, FleetRequest, FleetWrite, QramFleet};
use qsim::branch::{AddressState, ClassicalMemory};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const N: u64 = 4096;
const ADDRESS_WIDTH: u32 = 12;
const SHARDS: u32 = 4;
const REPLICA_COUNTS: [usize; 3] = [1, 2, 4];
const HOT_REQUESTS: usize = 384;
const BACKGROUND_REQUESTS: usize = 128;
const SEED: u64 = 20260808;
/// Outstanding-query cap for the hot tenant in the quota runs.
const HOT_QUOTA: u32 = 8;

const HOT: TenantId = TenantId(0);
const BACKGROUND: TenantId = TenantId(1);

fn capacity() -> Capacity {
    Capacity::new(N).expect("4096 is a power of two")
}

fn memory() -> ClassicalMemory {
    let cells: Vec<u64> = (0..N).map(|i| (i * 7 + 3) % 2).collect();
    ClassicalMemory::from_words(1, &cells).expect("valid memory")
}

/// Admission interval of one K-shard replica under the paper timing model.
fn replica_interval() -> f64 {
    ShardedQram::fat_tree(capacity(), SHARDS)
        .admission_interval(&TimingModel::paper_default())
        .get()
}

/// The two-tenant flash-crowd mix: a steady background trickle plus a
/// hot-tenant crowd peaking at 3× one replica's aggregate capacity.
fn workload() -> Vec<FleetRequest> {
    let interval = replica_interval();
    let replica_rate = 1.0 / interval;
    let mut rng = StdRng::seed_from_u64(SEED);
    let hot = flash_crowd_arrivals(
        0.2 * replica_rate,
        3.0 * replica_rate,
        100.0 * interval,
        400.0 * interval,
        HOT_REQUESTS,
        &mut rng,
    );
    let background = poisson_arrivals(0.1 * replica_rate, BACKGROUND_REQUESTS, &mut rng);

    let mut tagged: Vec<(TenantId, f64)> = hot
        .iter()
        .map(|r| (HOT, r.arrival.get()))
        .chain(background.iter().map(|r| (BACKGROUND, r.arrival.get())))
        .collect();
    tagged.sort_by(|a, b| a.1.total_cmp(&b.1));
    tagged
        .into_iter()
        .enumerate()
        .map(|(id, (tenant, arrival))| FleetRequest {
            id,
            tenant,
            arrival: qram_metrics::Layers::new(arrival),
            address: AddressState::classical(ADDRESS_WIDTH, rng.random_range(0..N))
                .expect("address in range"),
        })
        .collect()
}

fn fleet(
    replicas: usize,
    quota: Option<u32>,
) -> QramFleet<qram_core::FatTreeQram, QuotaAdmission<FifoAdmission>> {
    let mut policy = QuotaAdmission::new(FifoAdmission);
    if let Some(cap) = quota {
        policy = policy.with_quota(HOT, cap);
    }
    QramFleet::new(
        ShardedQram::fat_tree(capacity(), SHARDS),
        replicas,
        TimingModel::paper_default(),
        policy,
        ConsistentHashPlacement,
        FleetConfig {
            queue_capacity: Some(64),
            replication_lag: qram_metrics::Layers::new(50.0),
        },
    )
}

fn main() {
    let timing = TimingModel::paper_default();
    let mem = memory();
    let requests = workload();
    let offered_span = requests
        .iter()
        .map(|r| r.arrival.get())
        .fold(0.0f64, f64::max);
    let offered =
        requests.len() as f64 / timing.layers_to_seconds(qram_metrics::Layers::new(offered_span));
    println!(
        "== QRAM fleet, N = {N}, K = {SHARDS}, {} requests ({} hot flash crowd + {} background), \
         hot quota = {HOT_QUOTA} ==",
        requests.len(),
        HOT_REQUESTS,
        BACKGROUND_REQUESTS
    );
    println!(
        "{:>3} {:>7} {:>11} {:>11} {:>6} {:>13} {:>13}",
        "R", "quota", "offered q/s", "served q/s", "shed", "hot p99 (µs)", "bg p99 (µs)"
    );
    for replicas in REPLICA_COUNTS {
        for quota in [None, Some(HOT_QUOTA)] {
            let fleet = fleet(replicas, quota);
            let report = fleet
                .serve(&mem, requests.clone(), Vec::<FleetWrite>::new())
                .expect("fleet run");
            let p99 = |tenant: TenantId| {
                report
                    .per_tenant()
                    .get(tenant)
                    .and_then(|h| h.p99())
                    .map_or(0.0, |p99| timing.layers_to_micros(p99))
            };
            println!(
                "{:>3} {:>7} {:>11.0} {:>11.0} {:>6} {:>13.1} {:>13.1}",
                replicas,
                quota.map_or("none".to_string(), |q| q.to_string()),
                offered,
                report.query_rate().get(),
                report.shed().len(),
                p99(HOT),
                p99(BACKGROUND),
            );
        }
    }
}
