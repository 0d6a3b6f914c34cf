//! Allocation pin on the replicas' memory images: a replica borrows the
//! caller's memory as its base image and copies it only on its first
//! change, so a read-only serving call copies no image however large the
//! memory. A revision that cloned the base into every replica at the
//! start of each run allocated four more 512 KiB images at R = 4 on
//! N = 65,536 than on N = 4,096.
//!
//! A durable call makes no scrub buffer unless it scrubs: a read-only
//! `serve_durable` call without a scrub interval allocates alike on both
//! memories. A revision that cloned the memory into the scrub's expected
//! image whenever a store was open allocated 491,520 bytes more on the
//! larger one (512 KiB − 32 KiB).
//!
//! The test also pins that a classical address carries no heap block:
//! cloning a batch of classical requests allocates the batch's buffer
//! and nothing per request.
//!
//! One `#[test]` only: the counting allocator is process-global, and a
//! concurrently running test would perturb the counts.

#[path = "common/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::{allocations, bytes};
use qram_core::store::{DurableFleet, SimDir};
use qram_core::ShardedQram;
use qram_metrics::{Capacity, Layers, TimingModel};
use qram_sched::TenantId;
use qram_serve::{FaultConfig, FaultPlan, FleetRequest, QramFleet};
use qsim::branch::{AddressState, ClassicalMemory};

/// `count` classical reads at addresses below 4,096, on an address
/// register of `width` bits, all arriving at layer 0.
fn classical_requests(width: u32, count: usize) -> Vec<FleetRequest> {
    (0..count)
        .map(|id| FleetRequest {
            id,
            tenant: TenantId::DEFAULT,
            arrival: Layers::ZERO,
            address: AddressState::classical(width, (id as u64 * 37) % 4096).unwrap(),
        })
        .collect()
}

#[test]
fn a_read_only_call_copies_no_memory_image() {
    const REPLICAS: usize = 4;
    // The bytes one read-only call allocates on an N-cell, 1-bit memory:
    // the same 256 classical reads at R = 4, through `serve`, or through
    // `serve_durable` with no scrub interval on a store made from the
    // memory before counting starts.
    let measure = |cells: u64, durable: bool| -> u64 {
        let words: Vec<u64> = (0..cells).map(|i| (i * 5 + 1) % 2).collect();
        let memory = ClassicalMemory::from_vec(1, words).unwrap();
        let qram = ShardedQram::fat_tree(Capacity::new(cells).unwrap(), 1);
        let mut fleet = QramFleet::fifo(qram, REPLICAS, TimingModel::paper_default());
        let requests = classical_requests(memory.address_width(), 256);
        let mut store = DurableFleet::create(Box::new(SimDir::new()), &memory).unwrap();
        let (plan, config) = (FaultPlan::none(), FaultConfig::default());
        let before = bytes();
        let report = if durable {
            fleet.serve_durable(&memory, requests, Vec::new(), &plan, &config, &mut store)
        } else {
            fleet.serve(&memory, requests, Vec::new())
        };
        let after = bytes();
        assert_eq!(report.unwrap().completed().len(), 256);
        after - before
    };
    let image = 8 * (1 << 16);
    for durable in [false, true] {
        // Warm each capacity's lazily built plan before counting.
        measure(1 << 12, durable);
        measure(1 << 16, durable);
        let (small, large) = (measure(1 << 12, durable), measure(1 << 16, durable));
        if durable {
            assert!(
                large < small + image / 4,
                "a read-only durable call allocates {small} bytes on N = 4,096 but \
                 {large} on N = 65,536 at R = {REPLICAS}: it makes a scrub buffer \
                 with no scrub to run"
            );
        } else {
            assert!(
                large < small + image,
                "a read-only call allocates {small} bytes on N = 4,096 but {large} on \
                 N = 65,536 at R = {REPLICAS}: the replicas copy the memory image"
            );
        }
    }

    // A classical address is stored inline: cloning 1,024 classical
    // requests allocates the new batch's buffer only.
    let requests = classical_requests(16, 1024);
    let before = allocations();
    let copies = requests.clone();
    let after = allocations();
    assert_eq!(copies.len(), 1024);
    assert_eq!(
        after - before,
        1,
        "cloning 1,024 classical requests allocated {} times",
        after - before
    );
}
