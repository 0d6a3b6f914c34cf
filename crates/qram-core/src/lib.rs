//! Bucket-Brigade and Fat-Tree QRAM: the core models of the ASPLOS '25
//! Fat-Tree QRAM paper.
//!
//! This crate implements the paper's primary contribution and its baseline:
//!
//! * [`tree`] — the `(i, j, k)` router indexing of §4.1, including the
//!   sub-component-QRAM decomposition of Fig. 5.
//! * [`ops`] / [`query_ops`] — the elementary instruction set
//!   (Appendix A.1) and exact layer-by-layer instruction streams for both
//!   architectures (Algs. 2 & 3, Figs. 2(a), 6, 12).
//! * [`exec`] — functional branch-based execution validating Eq. (1) and
//!   counting gates per hardware class for the fidelity analysis, plus
//!   the interpret → intern → compile → columnar pipeline that partially
//!   evaluates interned streams into O(1)-per-branch [`CompiledQuery`]
//!   plans and batches them through a structure-of-arrays kernel.
//! * [`pipeline`] — query-level pipelining with conflict-freedom proofs
//!   and diagram rendering.
//! * [`latency`] — the closed-form latencies of Table 1.
//! * [`model`] — the [`QramModel`] backend trait unifying all
//!   architectures behind one lookup interface.
//! * [`reference`](mod@reference) — the interpreter batch sweep every
//!   fast batch path is pinned against.
//! * [`store`] — crash-consistent persistence for the fleet's
//!   replicated write stream: a CRC32-framed write-ahead log, atomic
//!   checkpoints with WAL compaction, kill-point-tested recovery, and
//!   the durable chain images anti-entropy scrubbing compares against.
//! * [`BucketBrigadeQram`] / [`FatTreeQram`] — the two architectures as
//!   ready-to-use types.
//! * [`ShardedQram`] — `K` shards of either architecture behind an
//!   address-interleaved router, serving as one capacity-`N` backend with
//!   `K×` admission bandwidth.
//!
//! # Examples
//!
//! ```
//! use qram_core::{BucketBrigadeQram, FatTreeQram, QramModel};
//! use qram_metrics::{Capacity, TimingModel};
//!
//! let capacity = Capacity::new(1024)?;
//! let timing = TimingModel::paper_default();
//!
//! let bb = BucketBrigadeQram::new(capacity);
//! let ft = FatTreeQram::new(capacity);
//!
//! // Ten parallel queries: BB must serialize, Fat-Tree pipelines.
//! let bb_latency = bb.parallel_queries_latency(10, &timing);
//! let ft_latency = ft.parallel_queries_latency(10, &timing);
//! assert!(ft_latency.get() < bb_latency.get() / 4.0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod exec;
pub mod latency;
pub mod model;
pub mod ops;
pub mod pipeline;
pub mod query_ops;
pub mod reference;
pub mod store;
pub mod tree;

mod bucket_brigade;
mod fat_tree;
mod replication;
mod sharded;
mod soa;

pub use bucket_brigade::BucketBrigadeQram;
pub use exec::{
    compiled_query, interned_layers, CompiledQuery, ExecError, Execution, GateCounts, LayerArch,
};
pub use fat_tree::FatTreeQram;
pub use model::{execute_batch, execute_batch_traced, BatchCacheStats, QramModel};
pub use ops::{GateClass, Op, QubitTag};
pub use pipeline::{ensure_conflict_free, ConflictError, PipelineSchedule, QueryTiming};
pub use replication::{JournalEntry, ReplicatedMemory, ReplicatedWrite};
pub use sharded::ShardedQram;
pub use tree::{NodeId, RouterId, TreeShape};
