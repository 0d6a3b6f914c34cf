//! The Bucket-Brigade QRAM baseline (Giovannetti et al. 2008; §2.2).

use std::sync::Arc;

use qram_metrics::{Capacity, Layers, TimingModel};

use crate::exec::{compiled_query, CompiledQuery, LayerArch};
use crate::latency;
use crate::model::QramModel;
use crate::query_ops::{bb_query_layers, bb_stage_finish_layers, QueryLayer};
use crate::tree::TreeShape;

/// A Bucket-Brigade QRAM of capacity `N`: a binary tree of quantum routers
/// serving one query at a time in `O(log N)` circuit layers.
///
/// The query-serving surface lives on the [`QramModel`] trait, shared with
/// [`FatTreeQram`](crate::FatTreeQram).
///
/// # Examples
///
/// ```
/// use qram_core::{BucketBrigadeQram, QramModel};
/// use qram_metrics::Capacity;
/// use qsim::branch::{AddressState, ClassicalMemory};
///
/// let qram = BucketBrigadeQram::new(Capacity::new(8)?);
/// assert_eq!(qram.single_query_layers_integer(), 25); // Fig. 2(a)
///
/// let memory = ClassicalMemory::from_words(1, &[0, 1, 1, 0, 1, 0, 0, 1])?;
/// let address = AddressState::uniform(3, &[1, 4])?;
/// let outcome = qram.execute_query(&memory, &address)?;
/// assert_eq!(outcome.data_for(1), Some(1));
/// assert_eq!(outcome.data_for(4), Some(1));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BucketBrigadeQram {
    capacity: Capacity,
}

impl BucketBrigadeQram {
    /// Creates a bucket-brigade QRAM of the given capacity.
    #[must_use]
    pub fn new(capacity: Capacity) -> Self {
        BucketBrigadeQram { capacity }
    }

    /// The static tree geometry.
    #[must_use]
    pub fn shape(&self) -> TreeShape {
        TreeShape::new(self.capacity)
    }

    /// The stage finish times of Fig. 2(a).
    #[must_use]
    pub fn stage_finish_layers(&self) -> Vec<u32> {
        bb_stage_finish_layers(self.capacity.address_width())
    }
}

impl QramModel for BucketBrigadeQram {
    fn name(&self) -> &'static str {
        "Bucket-Brigade"
    }

    fn capacity(&self) -> Capacity {
        self.capacity
    }

    /// Number of quantum routers: `N − 1`.
    fn router_count(&self) -> u64 {
        self.shape().bucket_brigade_router_count()
    }

    /// A bucket-brigade QRAM serves exactly one query at a time (the root
    /// is the sole escape route, §3).
    fn query_parallelism(&self) -> u32 {
        1
    }

    /// The layered instruction stream of one query (Alg. 2 + CG + Alg. 3).
    fn query_layers(&self) -> Vec<QueryLayer> {
        bb_query_layers(self.address_width())
    }

    /// The cached compiled plan: the stream is partially evaluated once
    /// per capacity, collapsing per-branch execution to one memory read.
    fn compiled_query(&self) -> Arc<CompiledQuery> {
        compiled_query(LayerArch::BucketBrigade, self.address_width())
    }

    /// Integer circuit-layer count of a single query: `8n + 1`.
    fn single_query_layers_integer(&self) -> u64 {
        latency::bb_single_query_integer(self.capacity)
    }

    /// Weighted single-query latency (`8n + 0.125` with paper defaults).
    fn single_query_latency(&self, timing: &TimingModel) -> Layers {
        latency::bb_single_query(self.capacity, timing)
    }

    /// Query `q` of a back-to-back batch spans layers
    /// `[q(8n+1) + 1, (q+1)(8n+1)]` and retrieves at `q(8n+1) + 4n + 1`
    /// (the CG stage of Fig. 2(a)).
    fn retrieval_layer(&self, query_index: usize) -> u64 {
        let n = u64::from(self.address_width());
        query_index as u64 * (8 * n + 1) + 4 * n + 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qsim::branch::{AddressState, ClassicalMemory};

    fn qram8() -> BucketBrigadeQram {
        BucketBrigadeQram::new(Capacity::new(8).unwrap())
    }

    #[test]
    fn figure_2a_numbers() {
        let q = qram8();
        assert_eq!(q.single_query_layers_integer(), 25);
        assert_eq!(q.stage_finish_layers(), vec![4, 8, 12, 13, 17, 21, 25]);
        assert_eq!(q.router_count(), 7);
        assert_eq!(q.query_parallelism(), 1);
        assert_eq!(q.name(), "Bucket-Brigade");
    }

    #[test]
    fn executes_full_superposition_correctly() {
        let q = qram8();
        let mem = ClassicalMemory::from_words(1, &[1, 1, 0, 0, 1, 0, 1, 0]).unwrap();
        let addr = AddressState::full_superposition(3);
        let out = q.execute_query(&mem, &addr).unwrap();
        assert!((out.fidelity(&mem.ideal_query(&addr)) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn multibit_bus_words() {
        let q = BucketBrigadeQram::new(Capacity::new(4).unwrap());
        let mem = ClassicalMemory::from_words(8, &[200, 13, 0, 255]).unwrap();
        let addr = AddressState::uniform(2, &[0, 3]).unwrap();
        let out = q.execute_query(&mem, &addr).unwrap();
        assert_eq!(out.data_for(0), Some(200));
        assert_eq!(out.data_for(3), Some(255));
    }

    #[test]
    #[should_panic(expected = "must match")]
    fn mismatched_memory_panics() {
        let q = qram8();
        let mem = ClassicalMemory::zeros(4);
        let addr = AddressState::classical(2, 0).unwrap();
        let _ = q.execute_query(&mem, &addr);
    }
}
