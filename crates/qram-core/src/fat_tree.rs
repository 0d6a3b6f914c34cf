//! The Fat-Tree QRAM architecture (§4) — the paper's contribution.

use qram_metrics::{Capacity, Layers, TimingModel};

use std::sync::Arc;

use crate::exec::{compiled_query, CompiledQuery, LayerArch};
use crate::latency;
use crate::model::QramModel;
use crate::pipeline::PipelineSchedule;
use crate::query_ops::{fat_tree_query_layers, QueryLayer};
use crate::tree::TreeShape;

/// A Fat-Tree QRAM of capacity `N`: a binary tree whose level-`i` nodes
/// multiplex `n − i` quantum routers, pipelining up to `log₂ N` independent
/// queries with a new query admitted every 10 circuit layers (§4.3).
///
/// The query-serving surface lives on the [`QramModel`] trait, shared with
/// [`BucketBrigadeQram`](crate::BucketBrigadeQram).
///
/// # Examples
///
/// ```
/// use qram_core::{FatTreeQram, QramModel};
/// use qram_metrics::Capacity;
///
/// let qram = FatTreeQram::new(Capacity::new(1024)?);
/// assert_eq!(qram.query_parallelism(), 10);       // log₂(1024) queries
/// assert_eq!(qram.router_count(), 2 * 1024 - 2 - 10);
/// assert_eq!(qram.single_query_layers_integer(), 99); // 10n − 1
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FatTreeQram {
    capacity: Capacity,
}

impl FatTreeQram {
    /// Creates a Fat-Tree QRAM of the given capacity.
    #[must_use]
    pub fn new(capacity: Capacity) -> Self {
        FatTreeQram { capacity }
    }

    /// The static tree geometry (router multiplexing, wires).
    #[must_use]
    pub fn shape(&self) -> TreeShape {
        TreeShape::new(self.capacity)
    }

    /// Builds the pipelined schedule for `num_queries` back-to-back queries
    /// (Fig. 6): start layers, retrieval layers, sub-QRAM trajectories, and
    /// conflict validation.
    #[must_use]
    pub fn pipeline(&self, num_queries: usize) -> PipelineSchedule {
        PipelineSchedule::new(self.capacity, num_queries)
    }
}

impl QramModel for FatTreeQram {
    fn name(&self) -> &'static str {
        "Fat-Tree"
    }

    fn capacity(&self) -> Capacity {
        self.capacity
    }

    /// Number of quantum routers: `2N − 2 − n`, about double a BB QRAM.
    fn router_count(&self) -> u64 {
        self.shape().fat_tree_router_count()
    }

    /// Query parallelism: `log₂ N` pipelined queries (Fig. 1(b)).
    fn query_parallelism(&self) -> u32 {
        self.address_width()
    }

    /// The layered instruction stream of one query, including the local
    /// swap steps (Fig. 12).
    fn query_layers(&self) -> Vec<QueryLayer> {
        fat_tree_query_layers(self.address_width())
    }

    /// The cached compiled plan: the stream is partially evaluated once
    /// per capacity, collapsing per-branch execution to one memory read.
    fn compiled_query(&self) -> Arc<CompiledQuery> {
        compiled_query(LayerArch::FatTree, self.address_width())
    }

    /// Integer circuit-layer count of a single query: `10n − 1`.
    fn single_query_layers_integer(&self) -> u64 {
        latency::fat_tree_single_query_integer(self.capacity)
    }

    /// Weighted single-query latency (`8.25n − 0.125` with paper defaults).
    fn single_query_latency(&self, timing: &TimingModel) -> Layers {
        latency::fat_tree_single_query(self.capacity, timing)
    }

    /// The pipeline admits a new query every 10 integer layers — `8.25`
    /// weighted layers with paper defaults (§4.3.1), independent of `N`.
    fn admission_interval(&self, timing: &TimingModel) -> Layers {
        latency::fat_tree_pipeline_interval(timing)
    }

    /// Query `q` retrieves at global layer `10q + 5n` (Fig. 6) — the
    /// closed form of [`PipelineSchedule::timing`], evaluated directly so
    /// batched execution never rebuilds a schedule per query.
    fn retrieval_layer(&self, query_index: usize) -> u64 {
        10 * query_index as u64 + 5 * u64::from(self.address_width())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qsim::branch::{AddressState, ClassicalMemory};

    fn qram8() -> FatTreeQram {
        FatTreeQram::new(Capacity::new(8).unwrap())
    }

    #[test]
    fn figure_6_numbers() {
        let q = qram8();
        assert_eq!(q.single_query_layers_integer(), 29);
        assert_eq!(q.query_parallelism(), 3);
        assert_eq!(q.router_count(), 2 * 8 - 2 - 3);
        assert_eq!(q.name(), "Fat-Tree");
    }

    #[test]
    fn single_query_matches_ideal() {
        let q = qram8();
        let mem = ClassicalMemory::from_words(1, &[0, 1, 0, 1, 1, 1, 0, 0]).unwrap();
        let addr = AddressState::full_superposition(3);
        let out = q.execute_query(&mem, &addr).unwrap();
        assert!((out.fidelity(&mem.ideal_query(&addr)) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn pipelined_batch_returns_per_query_outcomes() {
        let q = qram8();
        let mem = ClassicalMemory::from_words(1, &[1, 0, 0, 1, 0, 1, 1, 0]).unwrap();
        let addresses: Vec<AddressState> = vec![
            AddressState::uniform(3, &[0, 1]).unwrap(),
            AddressState::classical(3, 3).unwrap(),
            AddressState::uniform(3, &[5, 6, 7]).unwrap(),
        ];
        let outs = q.execute_queries(&mem, &addresses, &[]).unwrap();
        assert_eq!(outs.len(), 3);
        assert_eq!(outs[0].data_for(0), Some(1));
        assert_eq!(outs[1].data_for(3), Some(1));
        assert_eq!(outs[2].data_for(6), Some(1));
        assert_eq!(outs[2].data_for(7), Some(0));
    }

    #[test]
    fn memory_update_between_retrievals_is_visible_to_later_queries() {
        let q = qram8();
        let mem = ClassicalMemory::zeros(8);
        let addresses: Vec<AddressState> = (0..3)
            .map(|_| AddressState::classical(3, 2).unwrap())
            .collect();
        // Retrieval layers for n=3: 15, 25, 35. Write cell 2 := 1 at layer 20:
        // queries 2 and 3 see the new value, query 1 the old.
        let outs = q.execute_queries(&mem, &addresses, &[(20, 2, 1)]).unwrap();
        assert_eq!(outs[0].data_for(2), Some(0));
        assert_eq!(outs[1].data_for(2), Some(1));
        assert_eq!(outs[2].data_for(2), Some(1));
    }

    #[test]
    fn more_queries_than_parallelism_still_executes() {
        let q = qram8();
        let mem = ClassicalMemory::from_words(1, &[1, 0, 1, 0, 1, 0, 1, 0]).unwrap();
        let addresses: Vec<AddressState> = (0..7u64)
            .map(|i| AddressState::classical(3, i).unwrap())
            .collect();
        let outs = q.execute_queries(&mem, &addresses, &[]).unwrap();
        for (i, out) in outs.iter().enumerate() {
            assert_eq!(out.data_for(i as u64), Some(mem.read(i as u64)));
        }
    }

    #[test]
    fn retrieval_layers_match_pipeline_schedule() {
        let q = qram8();
        let schedule = q.pipeline(5);
        for i in 0..5 {
            assert_eq!(q.retrieval_layer(i), schedule.timing(i).retrieval_layer);
        }
    }
}
