//! Address-set reuse on Zipf-skewed serving traffic: the hit-rate curve
//! of the per-epoch memo accounting of `qram_core::execute_batch_traced`.
//!
//! A serving batch repeats popular classical addresses, so most queries
//! repeat an address set already answered against the same memory epoch.
//! This target prints the measured hit rate for a sweep of skew exponents
//! and batch sizes and records the Zipf(0.99) headline into the
//! `CRITERION_JSON` baseline (as
//! `cache_hit_rate/zipf099_1024q_hit_rate_percent` — the value is a
//! percentage, not a duration).

use std::io::Write as _;

use qram_core::{execute_batch_traced, FatTreeQram};
use qram_metrics::Capacity;
use qram_sched::ZipfAddresses;
use qsim::branch::{AddressState, ClassicalMemory};

const N: u64 = 4096;
const ADDRESS_WIDTH: u32 = 12;
const BATCH: usize = 1024;
const SEED: u64 = 20250727;

fn memory() -> ClassicalMemory {
    let cells: Vec<u64> = (0..N).map(|i| (i * 5 + 1) % 2).collect();
    ClassicalMemory::from_words(1, &cells).expect("valid memory")
}

fn zipf_batch(theta: f64, count: usize) -> Vec<AddressState> {
    ZipfAddresses::new(Capacity::new(N).expect("power of two"), theta)
        .addresses(count, SEED)
        .into_iter()
        .map(|a| AddressState::classical(ADDRESS_WIDTH, a).expect("address in range"))
        .collect()
}

fn measured_hit_rate(qram: &FatTreeQram, mem: &ClassicalMemory, theta: f64, count: usize) -> f64 {
    let addresses = zipf_batch(theta, count);
    let (_, stats) = execute_batch_traced(qram, mem, &addresses, &[]).expect("batch executes");
    stats.hit_rate()
}

/// Appends one id/value line to the `CRITERION_JSON` stream with the
/// `scalar` key (not `ns_per_iter`), so scalar measurements
/// (here: a hit-rate percentage) land in the baseline's `scalars`
/// section instead of the timing table.
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

fn print_hit_rate_curve(qram: &FatTreeQram, mem: &ClassicalMemory) {
    println!("== batch memo hit rate, N = {N}, Fat-Tree, seed {SEED} ==");
    println!("{:>6} {:>8} {:>10}", "theta", "queries", "hit rate");
    for theta in [0.0, 0.5, 0.8, 0.99, 1.2] {
        for count in [256usize, 1024] {
            let rate = measured_hit_rate(qram, mem, theta, count);
            println!("{theta:>6.2} {count:>8} {:>9.1}%", rate * 100.0);
        }
    }
}

fn main() {
    let qram = FatTreeQram::new(Capacity::new(N).expect("power of two"));
    let mem = memory();
    print_hit_rate_curve(&qram, &mem);
    let headline = measured_hit_rate(&qram, &mem, 0.99, BATCH);
    println!(
        "headline Zipf(0.99), {BATCH} queries: {:.1}% hits",
        headline * 100.0
    );
    record_scalar(
        "cache_hit_rate/zipf099_1024q_hit_rate_percent",
        headline * 100.0,
    );
}
