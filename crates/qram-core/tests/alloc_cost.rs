//! Allocation-regression pin on the columnar batch kernel: a memoized
//! batch must allocate `O(1)` per memo hit and `O(distinct address sets)`
//! per batch — *not* `O(1)` per query. An earlier revision materialized a
//! fresh `terms: Vec<_>` per query even on memo hits, so a 1024-query
//! batch over 16 distinct addresses paid ~1024 heap allocations; the
//! structure-of-arrays kernel writes every term into one shared column
//! and hands out `Arc`-backed views, so the allocation count is flat in
//! the batch size.
//!
//! The same holds for superposition batches on the monolithic and the
//! sharded backend: all terms share one column, whatever the batch size.
//!
//! One `#[test]` only: the counting allocator is process-global, and a
//! concurrently running test would perturb the counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use qram_core::{FatTreeQram, QramModel, ShardedQram};
use qram_metrics::Capacity;
use qsim::branch::{AddressState, ClassicalMemory};

/// Counts every allocation and reallocation; frees are not counted (the
/// pin is on allocation *work*, not live bytes).
struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

#[test]
fn columnar_batch_allocates_per_distinct_set_not_per_query() {
    let capacity = Capacity::new(16).unwrap();
    let qram = FatTreeQram::new(capacity);
    let memory = ClassicalMemory::zeros(16);
    let batch = |queries: u64| -> Vec<AddressState> {
        (0..queries)
            .map(|i| AddressState::classical(4, i % 16).unwrap())
            .collect()
    };
    let small = batch(256);
    let large = batch(1024);

    // Warm the compiled plan, which the first batch builds lazily.
    qram.execute_queries(&memory, &small, &[]).unwrap();
    qram.execute_queries(&memory, &large, &[]).unwrap();

    let measure = |addresses: &[AddressState]| {
        let before = allocations();
        let outs = qram.execute_queries(&memory, addresses, &[]).unwrap();
        let after = allocations();
        assert_eq!(outs.len(), addresses.len());
        after - before
    };

    let small_allocs = measure(&small);
    let large_allocs = measure(&large);

    // 4× the queries over the same 16 distinct address sets: the columnar
    // kernel's count may grow by a few `Vec` doublings of its batch-sized
    // columns, but nowhere near the 768 extra queries — the per-query-Vec
    // regression adds one allocation per query.
    assert!(
        large_allocs <= small_allocs + 64,
        "4x batch grew allocations {small_allocs} -> {large_allocs}; \
         memo hits are allocating per query"
    );
    // Absolute pin: constant batch scaffolding + O(16 distinct sets).
    assert!(
        large_allocs <= 256,
        "1024-query batch made {large_allocs} allocations"
    );

    // Superposition batches: every query's 16 terms land in one shared
    // column, so the count is flat in the batch size on the monolith and
    // on the sharded backend alike — a per-query `Vec` of terms would add
    // 768 allocations between the two batch sizes.
    let capacity = Capacity::new(4096).unwrap();
    let cells: Vec<u64> = (0..4096).map(|i| (i * 5 + 1) % 2).collect();
    let memory = ClassicalMemory::from_words(1, &cells).unwrap();
    let superpositions = |queries: u64| -> Vec<AddressState> {
        (0..queries)
            .map(|i| {
                let mut branches: Vec<u64> = (0..16).map(|j| (i * 13 + j * 257) % 4096).collect();
                branches.sort_unstable();
                AddressState::uniform(12, &branches).unwrap()
            })
            .collect()
    };
    let small = superpositions(256);
    let large = superpositions(1024);
    let backends: [Box<dyn QramModel>; 2] = [
        Box::new(FatTreeQram::new(capacity)),
        Box::new(ShardedQram::fat_tree(capacity, 4)),
    ];
    for backend in &backends {
        // Warm the backend's lazily built plan before counting.
        backend.execute_queries(&memory, &large, &[]).unwrap();
        let measure = |addresses: &[AddressState]| {
            let before = allocations();
            let outs = backend.execute_queries(&memory, addresses, &[]).unwrap();
            let after = allocations();
            assert_eq!(outs.len(), addresses.len());
            after - before
        };
        let small_allocs = measure(&small);
        let large_allocs = measure(&large);
        assert!(
            large_allocs <= small_allocs + 8,
            "{}: 4x superposition batch grew allocations {small_allocs} -> {large_allocs}",
            backend.name()
        );
    }
}
