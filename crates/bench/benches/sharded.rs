//! Sharded Fat-Tree serving: a Table-1-style closed-form row per shard
//! count at `N = 4096`.
//!
//! The printed table is the reproduction artifact: admission interval
//! (hence bandwidth) scales linearly with `K` while a single lookup keeps
//! the monolithic latency — the distributed/virtual rows of Table 1 as an
//! executable backend rather than a cost model. The host time of a
//! sharded batch is `columnar_exec`'s.

use qram_core::{FatTreeQram, QramModel, ShardedQram};
use qram_metrics::{Capacity, TimingModel};

const N: u64 = 4096;
const SHARD_COUNTS: [u32; 4] = [1, 2, 4, 8];

fn capacity() -> Capacity {
    Capacity::new(N).expect("4096 is a power of two")
}

fn main() {
    let timing = TimingModel::paper_default();
    let mono = FatTreeQram::new(capacity());
    println!("== Sharded Fat-Tree, N = {N} (Table-1-style row per shard count) ==");
    println!(
        "{:>3} {:>9} {:>12} {:>10} {:>18} {:>14}",
        "K", "routers", "parallelism", "interval", "single-query lat", "throughput x"
    );
    for k in SHARD_COUNTS {
        let sharded = ShardedQram::fat_tree(capacity(), k);
        let interval = sharded.admission_interval(&timing);
        let speedup = mono.admission_interval(&timing) / interval;
        println!(
            "{:>3} {:>9} {:>12} {:>10.4} {:>18.3} {:>14.2}",
            k,
            sharded.router_count(),
            sharded.query_parallelism(),
            interval.get(),
            sharded.single_query_latency(&timing).get(),
            speedup
        );
    }
}
