//! Allocation pin on a replica's dispatch queue: a replica keeps one FIFO
//! queue whose `j`-th request runs on shard `j mod K`, so what a serving
//! call allocates does not grow with the shard count. A revision that
//! kept one queue per shard grew `K` queues where one suffices: 34 more
//! allocations at K = 8 than at K = 1 on one replica, and 80 more on
//! four.
//!
//! One `#[test]` only: the counting allocator is process-global, and a
//! concurrently running test would perturb the counts.

#[path = "common/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::allocations;
use qram_core::ShardedQram;
use qram_metrics::{Capacity, Layers, TimingModel};
use qram_sched::TenantId;
use qram_serve::{FleetRequest, QramFleet};
use qsim::branch::{AddressState, ClassicalMemory};

#[test]
fn a_replica_queue_allocates_alike_at_one_shard_and_at_eight() {
    let cells: Vec<u64> = (0..64).map(|i| (i * 5 + 1) % 2).collect();
    let memory = ClassicalMemory::from_words(1, &cells).unwrap();
    // 512 classical reads, all arriving at layer 0: each replica queues
    // its whole share before its first dispatch.
    let requests: Vec<FleetRequest> = (0..512)
        .map(|id| FleetRequest {
            id,
            tenant: TenantId::DEFAULT,
            arrival: Layers::ZERO,
            address: AddressState::classical(6, id as u64 % 64).unwrap(),
        })
        .collect();
    // The allocations of one `serve` call on an N = 64 Fat-Tree fleet of
    // `replicas` replicas with `shards` shards each.
    let measure = |shards: u32, replicas: usize| -> u64 {
        let qram = ShardedQram::fat_tree(Capacity::new(64).unwrap(), shards);
        let fleet = QramFleet::fifo(qram, replicas, TimingModel::paper_default());
        let requests = requests.clone();
        let before = allocations();
        let report = fleet.serve(&memory, requests, Vec::new()).unwrap();
        let after = allocations();
        assert_eq!(report.completed().len(), 512);
        after - before
    };

    // Warm the backend's lazily built plan before counting.
    measure(1, 1);
    for replicas in [1, 4] {
        let (one, eight) = (measure(1, replicas), measure(8, replicas));
        assert!(
            eight < one + 4 * replicas as u64,
            "a serve call allocates {one} times at K = 1 but {eight} at K = 8 \
             on {replicas} replica(s); the replica queues requests per shard"
        );
    }
}
