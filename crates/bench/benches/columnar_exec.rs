//! Columnar structure-of-arrays kernel A/B: the batch path taken by
//! `execute_batch` / `execute_batch_traced` (direct loads into one shared
//! term column, shared-column outcomes) against the pinned
//! row-at-a-time memoized engine `execute_batch_rowwise` — the previous
//! revision's hot path — on the same batches.
//!
//! Operating points: Fat-Tree at N = 4096, batch sizes 256 / 1024 / 4096,
//! uniform (Zipf θ = 0) and Zipf(0.99) address skew, fixed seed. Both
//! sides compute identical outcomes and identical `BatchCacheStats`
//! (property-tested), so the ratio isolates the kernel restructuring.
//!
//! One more row times the same kernel behind `ShardedQram::execute_queries`
//! at the `superposition_kernel` serving shape: K = 8 shards over
//! N = 65536 cells, 1024 queries, each a uniform superposition of 64
//! distinct Zipf(0.99) addresses.

use criterion::{criterion_group, criterion_main, Criterion};
use std::collections::BTreeSet;

use qram_core::{execute_batch, execute_batch_rowwise, FatTreeQram, QramModel, ShardedQram};
use qram_metrics::Capacity;
use qram_sched::ZipfAddresses;
use qsim::branch::{AddressState, ClassicalMemory};
use rand::rngs::StdRng;
use rand::SeedableRng;

const N: u64 = 4096;
const ADDRESS_WIDTH: u32 = 12;
const SEED: u64 = 20250727;

fn memory() -> ClassicalMemory {
    let cells: Vec<u64> = (0..N).map(|i| (i * 5 + 1) % 2).collect();
    ClassicalMemory::from_words(1, &cells).expect("valid memory")
}

fn batch(theta: f64, count: usize) -> Vec<AddressState> {
    ZipfAddresses::new(Capacity::new(N).expect("power of two"), theta)
        .addresses(count, SEED)
        .into_iter()
        .map(|a| AddressState::classical(ADDRESS_WIDTH, a).expect("address in range"))
        .collect()
}

fn bench_columnar_exec(c: &mut Criterion) {
    let qram = FatTreeQram::new(Capacity::new(N).expect("power of two"));
    let mem = memory();
    let mut group = c.benchmark_group("columnar_exec");
    for (dist, theta) in [("uniform", 0.0), ("zipf099", 0.99)] {
        for count in [256usize, 1024, 4096] {
            let addresses = batch(theta, count);
            group.bench_function(format!("ft_{count}q_{dist}_soa"), |b| {
                b.iter(|| execute_batch(&qram, &mem, &addresses, &[]).expect("batch executes"))
            });
            group.bench_function(format!("ft_{count}q_{dist}_rowwise"), |b| {
                b.iter(|| {
                    execute_batch_rowwise(&qram, &mem, &addresses, &[]).expect("batch executes")
                })
            });
        }
    }

    // The superposition serving shape: K = 8, N = 65536, 64 branches.
    let capacity = Capacity::new(65536).expect("power of two");
    let sharded = ShardedQram::fat_tree(capacity, 8);
    let cells: Vec<u64> = (0..65536u64).map(|i| (i * 5 + 1) % 2).collect();
    let mem = ClassicalMemory::from_words(1, &cells).expect("valid memory");
    let zipf = ZipfAddresses::new(capacity, 0.99);
    let mut rng = StdRng::seed_from_u64(SEED);
    let superpositions: Vec<AddressState> = (0..1024)
        .map(|_| {
            let mut branches = BTreeSet::new();
            while branches.len() < 64 {
                branches.insert(zipf.sample(&mut rng));
            }
            let branches: Vec<u64> = branches.into_iter().collect();
            AddressState::uniform(16, &branches).expect("distinct addresses in range")
        })
        .collect();
    group.bench_function("sharded_k8_n65536_1024q_64br", |b| {
        b.iter(|| {
            sharded
                .execute_queries(&mem, &superpositions, &[])
                .expect("batch executes")
        })
    });
    group.finish();
}

criterion_group!(benches, bench_columnar_exec);
criterion_main!(benches);
