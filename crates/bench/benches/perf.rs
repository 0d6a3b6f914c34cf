//! Criterion performance benchmarks of the simulation substrate itself.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use qram_core::{BucketBrigadeQram, FatTreeQram, QramModel};
use qram_metrics::Layers;
use qram_metrics::{Capacity, TimingModel};
use qram_sched::{simulate_streams, QramServer, StreamWorkload};
use qsim::branch::{AddressState, ClassicalMemory};
use qsim::state::StateVector;

fn bench_query_execution(c: &mut Criterion) {
    let mut group = c.benchmark_group("query_execution");
    for n_exp in [6u32, 10] {
        let capacity = Capacity::from_address_width(n_exp);
        let cells: Vec<u64> = (0..capacity.get()).map(|i| i % 2).collect();
        let memory = ClassicalMemory::from_words(1, &cells).expect("valid");
        let qram = FatTreeQram::new(capacity);
        let addresses: Vec<u64> = (0..16u64).map(|i| i * (capacity.get() / 16)).collect();
        let address = AddressState::uniform(n_exp, &addresses).expect("valid");
        group.bench_function(format!("fat_tree_16branch_n{n_exp}"), |b| {
            b.iter(|| qram.execute_query(&memory, &address).expect("valid"))
        });
        let bb = BucketBrigadeQram::new(capacity);
        group.bench_function(format!("bb_16branch_n{n_exp}"), |b| {
            b.iter(|| bb.execute_query(&memory, &address).expect("valid"))
        });
    }
    group.finish();
}

fn bench_pipeline_validation(c: &mut Criterion) {
    let qram = FatTreeQram::new(Capacity::from_address_width(10));
    c.bench_function("pipeline_conflict_check_40_queries", |b| {
        b.iter_batched(
            || qram.pipeline(40),
            |s| s.validate_no_conflicts().expect("conflict-free"),
            BatchSize::SmallInput,
        )
    });
}

fn bench_stream_simulation(c: &mut Criterion) {
    let server = QramServer::for_architecture(
        qram_arch::Architecture::FatTree,
        Capacity::from_address_width(10),
        TimingModel::paper_default(),
    );
    let streams = vec![StreamWorkload::alternating(10, Layers::new(50.0)); 30];
    c.bench_function("simulate_30_streams_10_queries", |b| {
        b.iter(|| simulate_streams(&streams, &server))
    });
}

fn bench_statevector(c: &mut Criterion) {
    c.bench_function("statevector_grover_iteration_12q", |b| {
        b.iter_batched(
            || {
                let mut psi = StateVector::new(12);
                for q in 0..12 {
                    psi.apply_h(q);
                }
                psi
            },
            |mut psi| {
                for q in 0..12 {
                    psi.apply_h(q);
                }
                psi.apply_cswap(0, 1, 2);
                psi
            },
            BatchSize::SmallInput,
        )
    });
}

criterion_group!(
    benches,
    bench_query_execution,
    bench_pipeline_validation,
    bench_stream_simulation,
    bench_statevector
);
criterion_main!(benches);
