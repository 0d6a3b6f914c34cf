//! Allocation pin on the anti-entropy scrub: a scrub cycle rebuilds the
//! durable chain's expected image into one buffer the run owns, and only
//! a repair copies it, so what a cycle allocates does not grow with the
//! live replicas. A revision that cloned a fresh expected image per live
//! replica per cycle paid one allocation per replica per cycle. Every
//! cycle also re-reads the WAL (the disk audit's rescan), into scan
//! buffers the store keeps, so an audit of an intact log allocates
//! nothing: a revision that scanned into a fresh window and a fresh
//! writes vector paid about four allocations per cycle at any R.
//!
//! One `#[test]` only: the counting allocator is process-global, and a
//! concurrently running test would perturb the counts.

#[path = "common/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::allocations;
use qram_core::store::{DurableFleet, SimDir};
use qram_core::ShardedQram;
use qram_metrics::{Capacity, Layers, TimingModel};
use qram_sched::TenantId;
use qram_serve::{FaultConfig, FaultPlan, FleetRequest, FleetWrite, QramFleet};
use qsim::branch::{AddressState, ClassicalMemory};

#[test]
fn a_scrub_cycle_allocates_alike_at_one_replica_and_at_eight() {
    let qram = ShardedQram::fat_tree(Capacity::new(64).unwrap(), 2);
    let cells: Vec<u64> = (0..64).map(|i| (i * 5 + 1) % 2).collect();
    let memory = ClassicalMemory::from_words(1, &cells).unwrap();
    // 256 classical reads, four layers apart, and 32 writes, 32 layers
    // apart, round the replicas.
    let requests: Vec<FleetRequest> = (0..256)
        .map(|id| FleetRequest {
            id,
            tenant: TenantId::DEFAULT,
            arrival: Layers::new(4.0 * id as f64),
            address: AddressState::classical(6, id as u64 % 64).unwrap(),
        })
        .collect();
    let writes = |replicas: usize| -> Vec<FleetWrite> {
        (0..32)
            .map(|i| FleetWrite {
                at: Layers::new(32.0 * i as f64 + 1.0),
                origin: i % replicas,
                address: (7 * i) as u64 % 64,
                value: (i % 2) as u64,
            })
            .collect()
    };
    // The allocations and scrub cycles of one `serve_durable` call at
    // `replicas` replicas, scrubbing every `every` layers.
    let measure = |replicas: usize, every: f64| -> (u64, u64) {
        let fleet = QramFleet::fifo(qram.clone(), replicas, TimingModel::paper_default());
        let mut store = DurableFleet::create(Box::new(SimDir::new()), &memory).unwrap();
        let config = FaultConfig {
            scrub_interval: Some(Layers::new(every)),
            ..FaultConfig::default()
        };
        let (requests, writes) = (requests.clone(), writes(replicas));
        let before = allocations();
        let report = fleet
            .serve_durable(
                &memory,
                requests,
                writes,
                &FaultPlan::none(),
                &config,
                &mut store,
            )
            .unwrap();
        let after = allocations();
        assert_eq!(report.completed().len() + report.shed().len(), 256);
        assert_eq!(report.fleet_epoch(), 32, "every write commits");
        (after - before, report.integrity().scrub_cycles)
    };
    // Allocations per scrub cycle added by scrubbing 4x as often.
    let per_added_cycle = |replicas: usize| -> f64 {
        let (sparse, sparse_cycles) = measure(replicas, 100.0);
        let (dense, dense_cycles) = measure(replicas, 25.0);
        assert!(
            dense_cycles >= 3 * sparse_cycles,
            "{sparse_cycles} -> {dense_cycles}"
        );
        (dense as f64 - sparse as f64) / (dense_cycles - sparse_cycles) as f64
    };

    // Warm the backend's lazily built plan before counting.
    measure(1, 100.0);
    let (one, eight) = (per_added_cycle(1), per_added_cycle(8));
    assert!(
        one < 1.0,
        "an added scrub cycle allocates {one:.1} times at R = 1; \
         the disk audit allocates per cycle"
    );
    assert!(
        eight < one + 2.0,
        "a scrub cycle allocates {one:.1} times at R = 1 but {eight:.1} at R = 8; \
         the scrub allocates per live replica"
    );
}
