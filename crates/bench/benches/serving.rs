//! The §5 quantum-data-center service as a benchmark: online serving of
//! open-loop query traffic by a one-replica fleet (the single machine) on
//! a sharded Fat-Tree at `N = 4096`, `K ∈ {1, 2, 4, 8}`.
//!
//! For each shard count the reproduction artifact is a §5-style row —
//! offered load, sustained throughput, and p50/p95/p99 response latency
//! (in layers and wall-clock µs under the paper timing model) — under a
//! Poisson arrival stream and under a bursty (on/off-modulated Poisson)
//! stream, both addressing memory with the Zipf(0.99) serving-cache skew
//! so dispatched batches hit the compiled-plan + memoization hot path.
//! The criterion timings measure the full serving loop (reactor +
//! execution) per shard count, and the K = 8 Poisson p95 (in layers) is
//! recorded into the `CRITERION_JSON` baseline as a scalar.

use std::io::Write as _;

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use qram_core::{QramModel, ShardedQram};
use qram_metrics::{Capacity, TimingModel};
use qram_sched::{bursty_arrivals, poisson_arrivals, QueryRequest, TenantId, ZipfAddresses};
use qram_serve::{FleetRequest, QramFleet};
use qsim::branch::{AddressState, ClassicalMemory};
use rand::rngs::StdRng;
use rand::SeedableRng;

const N: u64 = 4096;
const ADDRESS_WIDTH: u32 = 12;
const SHARD_COUNTS: [u32; 4] = [1, 2, 4, 8];
const REQUESTS: usize = 512;
const SEED: u64 = 20260727;
/// Offered load as a fraction of the aggregate admission capacity `K / I`.
const LOAD: f64 = 0.85;

fn capacity() -> Capacity {
    Capacity::new(N).expect("4096 is a power of two")
}

fn memory() -> ClassicalMemory {
    let cells: Vec<u64> = (0..N).map(|i| (i * 7 + 3) % 2).collect();
    ClassicalMemory::from_words(1, &cells).expect("valid memory")
}

/// Attaches Zipf(0.99)-drawn addresses to an arrival sequence.
fn with_zipf_addresses(arrivals: Vec<QueryRequest>) -> Vec<FleetRequest> {
    let zipf = ZipfAddresses::new(capacity(), 0.99);
    let addresses = zipf.addresses(arrivals.len(), SEED);
    arrivals
        .into_iter()
        .zip(addresses)
        .map(|(r, a)| FleetRequest {
            id: r.id,
            tenant: TenantId::DEFAULT,
            arrival: r.arrival,
            address: AddressState::classical(ADDRESS_WIDTH, a).expect("address in range"),
        })
        .collect()
}

/// The Poisson workload at `LOAD ×` the aggregate capacity of `K` shards.
fn poisson_workload(k: u32) -> Vec<FleetRequest> {
    let interval = ShardedQram::fat_tree(capacity(), k)
        .admission_interval(&TimingModel::paper_default())
        .get();
    let mut rng = StdRng::seed_from_u64(SEED);
    with_zipf_addresses(poisson_arrivals(LOAD / interval, REQUESTS, &mut rng))
}

/// The bursty workload: same long-run load as the Poisson stream, but
/// delivered in ON bursts at 3× the aggregate capacity.
fn bursty_workload(k: u32) -> Vec<FleetRequest> {
    let interval = ShardedQram::fat_tree(capacity(), k)
        .admission_interval(&TimingModel::paper_default())
        .get();
    let capacity_rate = 1.0 / interval;
    let on_rate = 3.0 * capacity_rate;
    // Duty cycle on/(on+off) chosen so on_rate · duty = LOAD · capacity.
    let mean_on = 30.0 * interval;
    let mean_off = mean_on * (on_rate / (LOAD * capacity_rate) - 1.0);
    let mut rng = StdRng::seed_from_u64(SEED + 1);
    with_zipf_addresses(bursty_arrivals(
        on_rate, mean_on, mean_off, REQUESTS, &mut rng,
    ))
}

/// Appends one id/value line to the `CRITERION_JSON` stream with the
/// `scalar` key (not `ns_per_iter`), so scalar measurements
/// (here: a latency percentile in layers) land in the baseline's
/// `scalars` section instead of the timing table.
fn record_scalar(id: &str, value: f64) {
    if let Ok(path) = std::env::var("CRITERION_JSON") {
        if let Ok(mut f) = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
        {
            let _ = writeln!(f, "{{\"id\":\"{id}\",\"scalar\":{value:.1}}}");
        }
    }
}

fn print_section5_rows(_c: &mut Criterion) {
    let timing = TimingModel::paper_default();
    let mem = memory();
    println!(
        "== Online QRAM service, N = {N}, {REQUESTS} requests, Zipf(0.99) addresses \
         (§5-style rows; latency = arrival→completion) =="
    );
    println!(
        "{:>3} {:>8} {:>11} {:>11} {:>10} {:>10} {:>10} {:>11}",
        "K",
        "workload",
        "offered q/s",
        "served q/s",
        "p50 (lyr)",
        "p95 (lyr)",
        "p99 (lyr)",
        "p99 (µs)"
    );
    for k in SHARD_COUNTS {
        for (label, requests) in [
            ("poisson", poisson_workload(k)),
            ("bursty", bursty_workload(k)),
        ] {
            let offered_span = requests
                .iter()
                .map(|r| r.arrival.get())
                .fold(0.0f64, f64::max);
            let offered = requests.len() as f64
                / timing.layers_to_seconds(qram_metrics::Layers::new(offered_span));
            let mut fleet = QramFleet::fifo(ShardedQram::fat_tree(capacity(), k), 1, timing);
            let report = fleet
                .serve(&mem, requests, Vec::new())
                .expect("service run");
            let hist = report.latency_histogram();
            println!(
                "{:>3} {:>8} {:>11.0} {:>11.0} {:>10.2} {:>10.2} {:>10.2} {:>11.1}",
                k,
                label,
                offered,
                report.query_rate().get(),
                hist.quantile(0.50).get(),
                hist.quantile(0.95).get(),
                hist.quantile(0.99).get(),
                timing.layers_to_micros(hist.quantile(0.99)),
            );
            if k == 8 && label == "poisson" {
                record_scalar(
                    "serving/k8_n4096_poisson_zipf_p95_layers",
                    hist.quantile(0.95).get(),
                );
            }
        }
    }
}

fn bench_serving_loop(c: &mut Criterion) {
    let mut group = c.benchmark_group("serving");
    let timing = TimingModel::paper_default();
    let mem = memory();
    for k in SHARD_COUNTS {
        let requests = poisson_workload(k);
        let qram = ShardedQram::fat_tree(capacity(), k);
        let mut fleet = QramFleet::fifo(qram, 1, timing);
        group.bench_function(format!("k{k}_n4096_poisson_zipf_{REQUESTS}q"), |b| {
            b.iter_batched(
                || requests.clone(),
                |reqs| fleet.serve(&mem, reqs, Vec::new()).expect("service run"),
                BatchSize::SmallInput,
            )
        });
    }
    group.finish();
}

criterion_group!(benches, print_section5_rows, bench_serving_loop);
criterion_main!(benches);
