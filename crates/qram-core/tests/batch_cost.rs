//! Regression pin on batched-execution scheduling cost: a `B`-query batch
//! must schedule in `O(B)` — in fact `O(1)` — [`PipelineSchedule`]
//! constructions. An earlier revision rebuilt a schedule inside the
//! retrieval-order sort comparator *and* once more per executed query,
//! costing `O(B log B)` constructions per batch.
//!
//! [`PipelineSchedule`]: qram_core::PipelineSchedule

use qram_core::pipeline::schedule_construction_count;
use qram_core::{
    execute_batch_rowwise, execute_batch_traced, sub_batch_split_count, FatTreeQram, QramModel,
    ShardedQram,
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

/// A batch whose every query routes to a single shard must never build
/// the `K`-entry per-shard sub-batch split: the single-occupied-shard
/// fast path runs the one local sub-state directly. A genuinely
/// cross-shard superposition still splits. (Asserted on the interpreter
/// reference path — the columnar kernel never splits at all.)
#[test]
fn single_shard_batches_skip_the_sub_batch_split() {
    let capacity = Capacity::new(64).unwrap(); // width 6, shard_bits 2
    let qram = ShardedQram::fat_tree(capacity, 4);
    let memory = ClassicalMemory::zeros(64);
    // Four-branch superpositions whose addresses all share their low two
    // bits (≡ 1 mod 4): every branch of every query lives in shard 1.
    let addresses: Vec<AddressState> = (0..32u64)
        .map(|i| {
            let base = 1 + 4 * (i % 3);
            let branches: Vec<u64> = (0..4).map(|b| base + 16 * b).collect();
            AddressState::uniform(6, &branches).unwrap()
        })
        .collect();

    let before = sub_batch_split_count();
    let outs = qram
        .execute_queries_sequential(&memory, &addresses, &[])
        .unwrap();
    let splits = sub_batch_split_count() - before;
    assert_eq!(outs.len(), 32);
    assert_eq!(
        splits, 0,
        "single-shard batch built {splits} per-shard sub-batch splits"
    );

    // Control: a superposition spanning all four shards must split.
    let wide = AddressState::uniform(6, &[0, 1, 2, 3]).unwrap();
    let before = sub_batch_split_count();
    qram.execute_queries_sequential(&memory, std::slice::from_ref(&wide), &[])
        .unwrap();
    assert!(
        sub_batch_split_count() - before > 0,
        "cross-shard query skipped the sub-batch split"
    );
}

/// The property tests run at small capacities. Pin the columnar kernel at
/// large ones too: a monolithic `N = 8192` batch (outcomes and memo stats
/// against the row-wise memo path), and the `superposition_kernel` serving
/// shape — `N = 65536`, `K = 8`, 256 queries of 64 distinct addresses —
/// against the sharded interpreter reference, with and without memory
/// updates.
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
    let (row, row_stats) = execute_batch_rowwise(&qram, &memory, &addresses, &[]).unwrap();
    assert_eq!(col, row);
    assert_eq!(col_stats, row_stats);

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
        let reference = sharded
            .execute_queries_sequential(&memory, &addresses, updates)
            .unwrap();
        assert_eq!(fast, reference, "{} updates", updates.len());
    }
}
