//! Allocation pin on faulty serving runs: a run under a fault plan must
//! allocate `O(1)` per run plus `O(distinct address sets)` in the kernel,
//! not `O(1)` per query. A revision that cloned each admitted query's
//! address for re-dispatch whenever a fault plan or hedging was active
//! paid one allocation per admission; the run now keeps one copy of each
//! admitted request, and its batch takes the address at the query's last
//! dispatch.
//!
//! One `#[test]` only: the counting allocator is process-global, and a
//! concurrently running test would perturb the counts.

#[path = "common/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::allocations;
use qram_core::ShardedQram;
use qram_metrics::{Capacity, Layers, TimingModel};
use qram_sched::TenantId;
use qram_serve::{Fault, FaultConfig, FaultPlan, FleetRequest, QramFleet};
use qsim::branch::{AddressState, ClassicalMemory};

#[test]
fn a_faulty_run_allocates_far_less_than_once_per_query() {
    let qram = ShardedQram::fat_tree(Capacity::new(64).unwrap(), 2);
    let cells: Vec<u64> = (0..64).map(|i| (i * 5 + 1) % 2).collect();
    let memory = ClassicalMemory::from_words(1, &cells).unwrap();
    // Replica 1 crashes early and recovers much later: its queued and
    // in-flight queries fail over, and the run keeps every admitted
    // address for re-dispatch.
    let plan = FaultPlan::none()
        .with(Fault::Crash {
            replica: 1,
            at: Layers::new(40.0),
        })
        .with(Fault::Recover {
            replica: 1,
            at: Layers::new(400.0),
        });
    let config = FaultConfig::default();
    // `n` classical reads, four layers apart, over the 64 cells: the
    // kernel sees the same 64 distinct address sets at every size.
    let requests = |n: usize| -> Vec<FleetRequest> {
        (0..n)
            .map(|id| FleetRequest {
                id,
                tenant: TenantId::DEFAULT,
                arrival: Layers::new(4.0 * id as f64),
                address: AddressState::classical(6, id as u64 % 64).unwrap(),
            })
            .collect()
    };
    let measure = |requests: Vec<FleetRequest>| {
        let total = requests.len();
        let fleet = QramFleet::fifo(qram.clone(), 2, TimingModel::paper_default());
        let before = allocations();
        let report = fleet
            .serve_with_faults(&memory, requests, Vec::new(), &plan, &config)
            .unwrap();
        let after = allocations();
        assert_eq!(report.completed().len() + report.shed().len(), total);
        assert!(
            report.availability().failovers > 0,
            "the crash strands work"
        );
        after - before
    };

    let n = 256;
    // Warm the backend's lazily built plan before counting.
    measure(requests(n));
    let small = measure(requests(n));
    let large = measure(requests(4 * n));

    // 3n more queries: the run's vectors and the kernel's batch columns
    // may grow by a few doublings, but one allocation per admission would
    // add 3n.
    assert!(
        large < small + n as u64 / 4,
        "4x the queries grew allocations {small} -> {large}; \
         the run allocates per query"
    );
}
