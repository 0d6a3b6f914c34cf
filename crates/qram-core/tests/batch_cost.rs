//! Large-memory pin on batched execution: the columnar kernel against the
//! reference interpreter sweep at the sizes the serving benchmark uses.

use qram_core::{
    execute_batch_traced, reference, BatchCacheStats, FatTreeQram, QramModel, ShardedQram,
};
use qram_metrics::Capacity;
use qsim::branch::{AddressState, ClassicalMemory};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

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
