//! Sharded QRAM serving: `K` parallel shards behind an address-interleaved
//! router (the distributed / banked rows of Table 1 as an executable
//! backend).
//!
//! A [`ShardedQram`] splits a capacity-`N` address space across `K`
//! capacity-`N/K` component QRAMs by the *low-order* `log₂ K` address bits
//! (bank interleaving, as in banked lookup-table engines): cell `a` lives
//! in shard `a mod K` at local address `⌊a / K⌋`. The sharded machine is
//! observably equivalent to a monolithic capacity-`N` machine while
//! multiplying admission bandwidth by `K` under round-robin admission.
//! Since shard `s`'s local cell `l` is global cell `l·K + s`, a global
//! address already indexes the unsplit memory image: batched execution is
//! the provided [`QramModel::execute_queries`] — the columnar kernel over
//! the caller's image, with the round-robin retrieval layers — and the
//! memory is never split per shard.

use std::sync::Arc;

use qram_metrics::{Capacity, Layers, TimingModel};

use crate::exec::CompiledQuery;
use crate::model::QramModel;
use crate::query_ops::QueryLayer;
use crate::{BucketBrigadeQram, FatTreeQram};

/// `K` capacity-`N/K` QRAM shards behind an address-interleaved router,
/// serving as one capacity-`N` [`QramModel`] backend.
///
/// The shard architecture is any [`QramModel`]; all shards are identical,
/// so one shard model speaks for all `K`. Geometry is `K` shards plus the
/// `K − 1` routers of the interleaving fan-out tree; the admission
/// interval divides the shard interval by `K` (round-robin admission);
/// single-query latency is the equivalent monolithic latency (a lookup
/// still resolves all `log₂ N` address bits — sharding buys bandwidth,
/// not depth).
///
/// # Examples
///
/// ```
/// use qram_core::{FatTreeQram, QramModel, ShardedQram};
/// use qram_metrics::{Capacity, TimingModel};
///
/// let sharded = ShardedQram::fat_tree(Capacity::new(4096)?, 4);
/// let timing = TimingModel::paper_default();
/// // Four Fat-Tree shards admit queries 4× faster than one machine.
/// let mono = FatTreeQram::new(Capacity::new(4096)?);
/// assert_eq!(
///     sharded.admission_interval(&timing).get(),
///     mono.admission_interval(&timing).get() / 4.0,
/// );
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ShardedQram<M> {
    capacity: Capacity,
    /// A capacity-`N` reference instance of the shard architecture: the
    /// equivalent monolithic machine, used for the single-query
    /// instruction stream and closed-form latencies.
    template: M,
    /// One capacity-`N/K` shard: every shard is this machine.
    shard: M,
    num_shards: u32,
}

impl<M: QramModel> ShardedQram<M> {
    /// Builds a sharded QRAM of total capacity `N` from `num_shards`
    /// identical shards produced by `make` (called once with the shard
    /// capacity `N/K` for the shard model, and once with the full capacity
    /// `N` for the equivalent monolithic reference machine).
    ///
    /// # Panics
    ///
    /// Panics if `num_shards` is not a power of two, exceeds `N/2` (each
    /// shard needs at least one address bit), or exceeds the shard's
    /// back-to-back retrieval spacing (the one-layer-per-shard round-robin
    /// stagger would stop being monotone, letting a later query observe an
    /// earlier memory state).
    pub fn new(capacity: Capacity, num_shards: u32, mut make: impl FnMut(Capacity) -> M) -> Self {
        assert!(
            num_shards >= 1 && num_shards.is_power_of_two(),
            "shard count {num_shards} must be a power of two"
        );
        assert!(
            u64::from(num_shards) * 2 <= capacity.get(),
            "shard count {num_shards} leaves fewer than two cells per shard of capacity {}",
            capacity.get()
        );
        let shard_capacity =
            Capacity::new(capacity.get() / u64::from(num_shards)).expect("power of two >= 2");
        let shard = make(shard_capacity);
        assert_eq!(
            shard.capacity(),
            shard_capacity,
            "factory produced a shard of the wrong capacity"
        );
        // Round-robin retrieval order stays the admission order only while
        // the per-shard stagger (one layer per shard index, K − 1 at most)
        // fits strictly inside the shard's back-to-back retrieval spacing.
        let spacing = shard.retrieval_layer(1) - shard.retrieval_layer(0);
        assert!(
            u64::from(num_shards) <= spacing,
            "shard count {num_shards} exceeds the shard admission spacing {spacing}: \
             round-robin retrieval layers would not be monotone"
        );
        let template = make(capacity);
        assert_eq!(
            template.capacity(),
            capacity,
            "factory produced a template of the wrong capacity"
        );
        ShardedQram {
            capacity,
            template,
            shard,
            num_shards,
        }
    }

    /// Number of shards `K`.
    #[must_use]
    pub fn num_shards(&self) -> u32 {
        self.num_shards
    }

    /// The per-shard capacity `N/K`.
    #[must_use]
    pub fn shard_capacity(&self) -> Capacity {
        self.shard.capacity()
    }

    /// Number of low-order address bits selecting the shard: `log₂ K`.
    #[must_use]
    pub fn shard_bits(&self) -> u32 {
        self.num_shards().trailing_zeros()
    }

    /// The per-shard pipeline parallelism `P_shard`: the serving layer's
    /// per-shard in-flight bound, with `K · P_shard` the aggregate bound
    /// reported by [`QramModel::query_parallelism`].
    #[must_use]
    pub fn shard_parallelism(&self) -> u32 {
        self.shard.query_parallelism()
    }

    /// The shard that runs the `query_index`-th admitted query under
    /// round-robin admission (`query_index mod K`) — the assignment
    /// [`QramModel::retrieval_layer`] stamps onto the batch timeline, and
    /// the one the serving layer's replica queue dispatches by.
    fn dispatch_shard(&self, query_index: usize) -> u32 {
        (query_index % self.num_shards as usize) as u32
    }
}

impl ShardedQram<FatTreeQram> {
    /// A sharded Fat-Tree QRAM: `num_shards` capacity-`N/K` Fat-Trees.
    ///
    /// # Panics
    ///
    /// See [`ShardedQram::new`].
    #[must_use]
    pub fn fat_tree(capacity: Capacity, num_shards: u32) -> Self {
        ShardedQram::new(capacity, num_shards, FatTreeQram::new)
    }
}

impl ShardedQram<BucketBrigadeQram> {
    /// A sharded bucket-brigade QRAM: `num_shards` capacity-`N/K` BB trees.
    ///
    /// # Panics
    ///
    /// See [`ShardedQram::new`].
    #[must_use]
    pub fn bucket_brigade(capacity: Capacity, num_shards: u32) -> Self {
        ShardedQram::new(capacity, num_shards, BucketBrigadeQram::new)
    }
}

impl<M: QramModel> QramModel for ShardedQram<M> {
    fn name(&self) -> &'static str {
        "Sharded"
    }

    fn capacity(&self) -> Capacity {
        self.capacity
    }

    /// Total routers: the `K` shards plus the `K − 1` routers of the
    /// address-interleaving fan-out tree.
    fn router_count(&self) -> u64 {
        let k = u64::from(self.num_shards);
        k * self.shard.router_count() + (k - 1)
    }

    /// Total parallelism: every shard pipeline runs concurrently.
    fn query_parallelism(&self) -> u32 {
        self.num_shards * self.shard.query_parallelism()
    }

    /// The single-query instruction stream of the *equivalent monolithic*
    /// machine: a query still resolves all `log₂ N` address bits — `log₂ K`
    /// through the interleaving routers, the rest inside one shard — so the
    /// capacity-`N` stream of the shard architecture is the faithful
    /// whole-machine schedule (and what the fidelity analyses consume).
    fn query_layers(&self) -> Vec<QueryLayer> {
        self.template.query_layers()
    }

    /// The equivalent monolithic machine's compiled plan: single queries,
    /// batches (the columnar kernel behind the provided
    /// [`QramModel::execute_queries`]) and fidelity estimates over the
    /// sharded machine run compiled, exactly like the monolith they are
    /// observably equivalent to.
    fn compiled_query(&self) -> Arc<CompiledQuery> {
        self.template.compiled_query()
    }

    fn single_query_layers_integer(&self) -> u64 {
        self.template.single_query_layers_integer()
    }

    /// Sharding multiplies bandwidth, not depth: one lookup costs the
    /// monolithic latency.
    fn single_query_latency(&self, timing: &TimingModel) -> Layers {
        self.template.single_query_latency(timing)
    }

    /// Round-robin admission over the shards: the aggregate machine admits
    /// `K` queries per shard interval, so the interval is the shard
    /// interval divided by `K`.
    fn admission_interval(&self, timing: &TimingModel) -> Layers {
        self.shard.admission_interval(timing) / f64::from(self.num_shards)
    }

    /// Round-robin admission: query `q` is the `⌊q/K⌋`-th query of shard
    /// `q mod K`, whose timeline is staggered by one integer layer per
    /// shard index (the interleaving router feeds one shard per layer), so
    /// retrieval layers stay strictly increasing for `K` below the shard's
    /// admission spacing.
    fn retrieval_layer(&self, query_index: usize) -> u64 {
        let shard = self.dispatch_shard(query_index);
        let k = self.num_shards as usize;
        self.shard.retrieval_layer(query_index / k) + u64::from(shard)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qsim::branch::{AddressState, ClassicalMemory};

    fn cap(n: u64) -> Capacity {
        Capacity::new(n).unwrap()
    }

    fn checkerboard(n: u64) -> ClassicalMemory {
        let cells: Vec<u64> = (0..n).map(|i| (i * 5 + 1) % 2).collect();
        ClassicalMemory::from_words(1, &cells).unwrap()
    }

    #[test]
    fn geometry_sums_shards_plus_fan_out() {
        let s = ShardedQram::fat_tree(cap(64), 4);
        assert_eq!(s.num_shards(), 4);
        assert_eq!(s.shard_capacity(), cap(16));
        assert_eq!(s.shard_bits(), 2);
        // 4 capacity-16 Fat-Trees (2·16 − 2 − 4 = 26 routers each) plus
        // the 3-router interleaving fan-out.
        assert_eq!(s.router_count(), 4 * 26 + 3);
        // 4 shards × log₂(16) pipelined queries each.
        assert_eq!(s.query_parallelism(), 16);
        assert_eq!(s.name(), "Sharded");
    }

    #[test]
    fn k1_degenerates_to_monolith() {
        let s = ShardedQram::fat_tree(cap(16), 1);
        let mono = FatTreeQram::new(cap(16));
        let timing = TimingModel::paper_default();
        assert_eq!(s.query_parallelism(), mono.query_parallelism());
        assert_eq!(s.router_count(), mono.router_count());
        assert_eq!(
            s.admission_interval(&timing),
            mono.admission_interval(&timing)
        );
        for q in 0..5 {
            assert_eq!(s.retrieval_layer(q), mono.retrieval_layer(q));
        }
    }

    #[test]
    fn admission_interval_scales_with_shard_count() {
        let timing = TimingModel::paper_default();
        let mono = FatTreeQram::new(cap(4096))
            .admission_interval(&timing)
            .get();
        for k in [2u32, 4, 8] {
            let s = ShardedQram::fat_tree(cap(4096), k);
            let got = s.admission_interval(&timing).get();
            assert!(
                (got - mono / f64::from(k)).abs() < 1e-12,
                "K={k}: {got} vs {}",
                mono / f64::from(k)
            );
        }
    }

    #[test]
    fn single_query_latency_is_monolithic() {
        let timing = TimingModel::paper_default();
        let s = ShardedQram::fat_tree(cap(1024), 8);
        let mono = FatTreeQram::new(cap(1024));
        assert_eq!(
            s.single_query_latency(&timing),
            mono.single_query_latency(&timing)
        );
        assert_eq!(
            s.single_query_layers_integer(),
            mono.single_query_layers_integer()
        );
    }

    #[test]
    fn retrieval_layers_strictly_increase_round_robin() {
        for k in [1u32, 2, 4, 8] {
            let s = ShardedQram::fat_tree(cap(64), k);
            let mut prev = 0;
            for q in 0..24 {
                let r = s.retrieval_layer(q);
                assert!(r > prev || q == 0, "K={k}, q={q}: {r} <= {prev}");
                prev = r;
            }
        }
    }

    #[test]
    fn serving_introspection_exposes_shard_queue_parameters() {
        let timing = TimingModel::paper_default();
        let s = ShardedQram::fat_tree(cap(4096), 4);
        // Shards have capacity 1024: parallelism log₂(1024), the Fat-Tree
        // weighted interval 8.25.
        assert_eq!(s.shard_parallelism(), 10);
        let k = s.num_shards();
        assert!((s.admission_interval(&timing).get() * f64::from(k) - 8.25).abs() < 1e-12);
        // Aggregate parallelism is the per-shard one scaled by K.
        assert_eq!(s.query_parallelism(), k * s.shard_parallelism());
        // Round-robin shard assignment: the shard term of the retrieval
        // layer is the accepted index mod K.
        for q in 0..12usize {
            let shard_term = s.retrieval_layer(q) - s.shard.retrieval_layer(q / 4);
            assert_eq!(shard_term, (q % 4) as u64);
        }
    }

    #[test]
    fn single_query_matches_ideal_via_monolithic_stream() {
        let s = ShardedQram::fat_tree(cap(16), 4);
        let mem = checkerboard(16);
        let addr = AddressState::full_superposition(4);
        let out = s.execute_query(&mem, &addr).unwrap();
        assert!((out.fidelity(&mem.ideal_query(&addr)) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn batched_execution_matches_ideal_on_superpositions() {
        for k in [1u32, 2, 4, 8] {
            let s = ShardedQram::fat_tree(cap(16), k);
            let mem = checkerboard(16);
            let addresses = vec![
                AddressState::uniform(4, &[0, 1, 2, 3]).unwrap(),
                AddressState::classical(4, 9).unwrap(),
                AddressState::uniform(4, &[5, 10, 15]).unwrap(),
                AddressState::full_superposition(4),
            ];
            let outs = s.execute_queries(&mem, &addresses, &[]).unwrap();
            assert_eq!(outs.len(), 4);
            for (address, out) in addresses.iter().zip(&outs) {
                assert!(
                    (out.fidelity(&mem.ideal_query(address)) - 1.0).abs() < 1e-12,
                    "K={k}"
                );
            }
        }
    }

    #[test]
    fn bucket_brigade_shards_work_too() {
        let s = ShardedQram::bucket_brigade(cap(16), 2);
        let mem = checkerboard(16);
        let addresses = vec![
            AddressState::uniform(4, &[1, 6, 11]).unwrap(),
            AddressState::classical(4, 0).unwrap(),
        ];
        let outs = s.execute_queries(&mem, &addresses, &[]).unwrap();
        for (address, out) in addresses.iter().zip(&outs) {
            assert!((out.fidelity(&mem.ideal_query(address)) - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn memory_updates_route_to_owning_shard() {
        let s = ShardedQram::fat_tree(cap(16), 4);
        let mem = ClassicalMemory::zeros(16);
        // Global cell 6 = shard 2, local 1. Retrieval layers (n'=2, stagger):
        // q0 → 10, q1 → 11, q2 → 12.
        assert_eq!(s.retrieval_layer(0), 10);
        assert_eq!(s.retrieval_layer(1), 11);
        let addresses: Vec<AddressState> = (0..3)
            .map(|_| AddressState::classical(4, 6).unwrap())
            .collect();
        let outs = s.execute_queries(&mem, &addresses, &[(11, 6, 1)]).unwrap();
        assert_eq!(outs[0].data_for(6), Some(0)); // retrieves at 10, before the write
        assert_eq!(outs[1].data_for(6), Some(1)); // tie layer: write is visible
        assert_eq!(outs[2].data_for(6), Some(1));
    }

    #[test]
    fn multibit_bus_preserved_across_shards() {
        let s = ShardedQram::fat_tree(cap(8), 2);
        let mem = ClassicalMemory::from_words(8, &[200, 13, 0, 255, 7, 99, 128, 1]).unwrap();
        let addr = AddressState::uniform(3, &[0, 3, 6]).unwrap();
        let outs = s
            .execute_queries(&mem, std::slice::from_ref(&addr), &[])
            .unwrap();
        assert_eq!(outs[0].data_for(0), Some(200));
        assert_eq!(outs[0].data_for(3), Some(255));
        assert_eq!(outs[0].data_for(6), Some(128));
    }

    #[test]
    fn empty_batch_returns_no_outcomes() {
        let s = ShardedQram::fat_tree(cap(8), 2);
        let mem = ClassicalMemory::zeros(8);
        assert!(s.execute_queries(&mem, &[], &[]).unwrap().is_empty());
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_shard_count_rejected() {
        let _ = ShardedQram::fat_tree(cap(16), 3);
    }

    #[test]
    #[should_panic(expected = "fewer than two cells")]
    fn oversharding_rejected() {
        let _ = ShardedQram::fat_tree(cap(8), 8);
    }

    #[test]
    #[should_panic(expected = "admission spacing")]
    fn shard_count_above_admission_spacing_rejected() {
        // Fat-Tree back-to-back retrievals are 10 layers apart: 16 shards
        // would fold the round-robin stagger past the next retrieval.
        let _ = ShardedQram::fat_tree(cap(64), 16);
    }

    #[test]
    fn bb_shards_allow_wider_round_robin() {
        // BB spacing is 8n' + 1 = 17 at shard capacity 4, so K = 16 fits
        // and retrieval layers stay strictly increasing across the wrap.
        let s = ShardedQram::bucket_brigade(cap(64), 16);
        let mut prev = 0;
        for q in 0..48 {
            let r = s.retrieval_layer(q);
            assert!(r > prev || q == 0, "q={q}: {r} <= {prev}");
            prev = r;
        }
    }

    #[test]
    #[should_panic(expected = "must match")]
    fn batch_rejects_mismatched_memory() {
        let s = ShardedQram::fat_tree(cap(16), 2);
        let mem = ClassicalMemory::zeros(8);
        let _ = s.execute_queries(&mem, &[], &[]);
    }

    #[test]
    fn sharded_kernel_matches_reference_sweep_under_writes() {
        // Wide superpositions with writes between them: the kernel behind
        // `execute_queries` against the reference interpreter sweep.
        let s = ShardedQram::fat_tree(cap(256), 4);
        let cells: Vec<u64> = (0..256).map(|i| (i * 3 + 1) % 2).collect();
        let mem = ClassicalMemory::from_words(1, &cells).unwrap();
        let addresses = vec![
            AddressState::full_superposition(8),
            AddressState::uniform(8, &(0..128u64).collect::<Vec<_>>()).unwrap(),
            AddressState::classical(8, 17).unwrap(),
        ];
        let updates = [(15u64, 17u64, 1u64), (40, 3, 1)];
        let fast = s.execute_queries(&mem, &addresses, &updates).unwrap();
        let reference = crate::reference::execute_batch(&s, &mem, &addresses, &updates).unwrap();
        assert_eq!(fast, reference);
        for (address, out) in addresses.iter().zip(&reference) {
            assert!(out.num_branches() == address.num_branches());
        }
    }

    #[test]
    fn compiled_shard_plan_matches_interpreter_paths() {
        // The columnar kernel gathers each global address from the
        // unsplit image; it must match the reference interpreter sweep
        // branch-for-branch.
        let s = ShardedQram::fat_tree(cap(64), 4);
        let cells: Vec<u64> = (0..64).map(|i| (i * 11 + 3) % 2).collect();
        let mem = ClassicalMemory::from_words(1, &cells).unwrap();
        let addresses = [
            AddressState::full_superposition(6),
            AddressState::uniform(6, &[0, 5, 17, 42]).unwrap(),
            AddressState::classical(6, 63).unwrap(),
        ];
        let compiled = s.execute_queries(&mem, &addresses, &[]).unwrap();
        let interpreted = crate::reference::execute_batch(&s, &mem, &addresses, &[]).unwrap();
        assert_eq!(compiled, interpreted);
    }

    #[test]
    fn sharded_compiled_plan_is_the_monolith_template_plan() {
        let s = ShardedQram::fat_tree(cap(64), 4);
        let mono = FatTreeQram::new(cap(64));
        assert!(std::sync::Arc::ptr_eq(
            &s.compiled_query(),
            &mono.compiled_query()
        ));
        // And the shard-level plan is the shard-capacity plan.
        assert_eq!(s.shard.compiled_query().address_width(), 4);
    }
}
