//! Regression pin on batched-execution scheduling cost: a `B`-query batch
//! must schedule in `O(B)` — in fact `O(1)` — [`PipelineSchedule`]
//! constructions. An earlier revision rebuilt a schedule inside the
//! retrieval-order sort comparator *and* once more per executed query,
//! costing `O(B log B)` constructions per batch.
//!
//! [`PipelineSchedule`]: qram_core::PipelineSchedule

use qram_core::pipeline::schedule_construction_count;
use qram_core::{
    execute_batch_traced, reference, BatchCacheStats, FatTreeQram, QramModel, ShardedQram,
};
use qram_metrics::Capacity;
use qsim::branch::{AddressState, ClassicalMemory};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

#[test]
fn batch_of_1024_queries_schedules_in_linear_constructions() {
    let capacity = Capacity::new(16).unwrap();
    let qram = FatTreeQram::new(capacity);
    let memory = ClassicalMemory::zeros(16);
    let addresses: Vec<AddressState> = (0..1024u64)
        .map(|i| AddressState::classical(4, i % 16).unwrap())
        .collect();

    let before = schedule_construction_count();
    let outs = qram.execute_queries(&memory, &addresses, &[]).unwrap();
    let constructed = schedule_construction_count() - before;

    assert_eq!(outs.len(), 1024);
    // Retrieval layers come from the closed form (no schedule), and the
    // batch builds exactly one schedule for conflict validation. Allow a
    // little slack but stay far below one construction per query — the
    // O(B log B) regression built ~11k schedules for this batch.
    assert!(
        constructed <= 8,
        "1024-query batch constructed {constructed} PipelineSchedules"
    );
}

#[test]
fn sharded_batch_is_also_construction_frugal() {
    let capacity = Capacity::new(16).unwrap();
    let qram = ShardedQram::fat_tree(capacity, 4);
    let memory = ClassicalMemory::zeros(16);
    let addresses: Vec<AddressState> = (0..512u64)
        .map(|i| AddressState::classical(4, i % 16).unwrap())
        .collect();

    let before = schedule_construction_count();
    let outs = qram.execute_queries(&memory, &addresses, &[]).unwrap();
    let constructed = schedule_construction_count() - before;

    assert_eq!(outs.len(), 512);
    assert!(
        constructed <= 8,
        "512-query sharded batch constructed {constructed} PipelineSchedules"
    );
}

/// The property tests run at small capacities. Pin the columnar kernel
/// against the reference interpreter sweep at large ones too: a monolithic
/// `N = 8192` batch of 2048 distinct classical addresses (outcomes, and
/// memo stats of all misses), and the `superposition_kernel` serving shape
/// — `N = 65536`, `K = 8`, 256 queries of 64 distinct addresses — with and
/// without memory updates.
#[test]
fn large_memory_batches_match_the_reference_paths() {
    let n = 8192u64;
    let qram = FatTreeQram::new(Capacity::new(n).unwrap());
    let cells: Vec<u64> = (0..n).map(|i| (i * 11 + 5) % 2).collect();
    let memory = ClassicalMemory::from_words(1, &cells).unwrap();
    let addresses: Vec<AddressState> = (0..2048u64)
        .map(|i| AddressState::classical(13, i * 37 % n).unwrap())
        .collect();
    let (col, col_stats) = execute_batch_traced(&qram, &memory, &addresses, &[]).unwrap();
    let expected = reference::execute_batch(&qram, &memory, &addresses, &[]).unwrap();
    assert_eq!(col, expected);
    assert_eq!(
        col_stats,
        BatchCacheStats {
            hits: 0,
            misses: 2048
        }
    );

    let n = 65536u64;
    let sharded = ShardedQram::fat_tree(Capacity::new(n).unwrap(), 8);
    let mut rng = StdRng::seed_from_u64(65536);
    let cells: Vec<u64> = (0..n).map(|_| rng.random_range(0..2u64)).collect();
    let memory = ClassicalMemory::from_words(1, &cells).unwrap();
    let addresses: Vec<AddressState> = (0..256)
        .map(|_| {
            let mut branches: Vec<u64> = Vec::with_capacity(64);
            while branches.len() < 64 {
                let a = rng.random_range(0..n);
                if !branches.contains(&a) {
                    branches.push(a);
                }
            }
            branches.sort_unstable();
            AddressState::uniform(16, &branches).unwrap()
        })
        .collect();
    // Flip a cell that a later query reads, at three layers spread over
    // the batch's retrieval window, so each write splits an epoch.
    let updates: Vec<(u64, u64, u64)> = [40usize, 128, 200]
        .iter()
        .map(|&q| {
            let a = addresses[q].terms()[0].1;
            (sharded.retrieval_layer(q - 1) + 1, a, 1 - memory.read(a))
        })
        .collect();
    for updates in [&[][..], &updates[..]] {
        let fast = sharded
            .execute_queries(&memory, &addresses, updates)
            .unwrap();
        let expected = reference::execute_batch(&sharded, &memory, &addresses, updates).unwrap();
        assert_eq!(fast, expected, "{} updates", updates.len());
    }
}
