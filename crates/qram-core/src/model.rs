//! The [`QramModel`] backend trait: one lookup interface over many QRAM
//! engines.
//!
//! Every QRAM architecture in this workspace — today [`BucketBrigadeQram`]
//! and [`FatTreeQram`], tomorrow sharded or distributed backends — exposes
//! the same surface: static geometry (capacity, routers, parallelism),
//! closed-form latencies, the exact layered instruction stream of one
//! query, and functional execution of single and batched queries. Callers
//! in `qram-sched`, `qram-noise`, and `qram-algos` are generic over this
//! trait, so adding an architecture never touches a call site.
//!
//! [`BucketBrigadeQram`]: crate::BucketBrigadeQram
//! [`FatTreeQram`]: crate::FatTreeQram
//!
//! # Examples
//!
//! ```
//! use qram_core::{BucketBrigadeQram, FatTreeQram, QramModel};
//! use qram_metrics::{Capacity, TimingModel};
//!
//! fn throughput_win(model: &impl QramModel, timing: &TimingModel) -> f64 {
//!     let p = model.query_parallelism();
//!     let serial = model.single_query_latency(timing) * f64::from(p);
//!     serial / model.parallel_queries_latency(p, timing)
//! }
//!
//! let capacity = Capacity::new(1024)?;
//! let timing = TimingModel::paper_default();
//! // BB serves queries one at a time: no win. Fat-Tree pipelines log N.
//! assert!((throughput_win(&BucketBrigadeQram::new(capacity), &timing) - 1.0).abs() < 1e-9);
//! assert!(throughput_win(&FatTreeQram::new(capacity), &timing) > 5.0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use std::sync::Arc;

use qram_metrics::{Capacity, Layers, TimingModel};
use qsim::branch::{AddressState, ClassicalMemory, QueryOutcome};

use crate::exec::{CompiledQuery, ExecError, Execution};
use crate::query_ops::QueryLayer;

/// A QRAM architecture viewed as a query-serving backend.
///
/// Required methods describe the architecture (geometry, instruction
/// stream, its compiled plan, closed-form latencies); provided methods
/// derive the rest — admission interval, batched latency, and functional
/// execution through the compiled plan. Implementations override a
/// provided method only when the architecture has a stronger guarantee
/// (e.g. the Fat-Tree pipeline interval).
pub trait QramModel {
    /// The architecture's display name (as used in the paper's tables).
    fn name(&self) -> &'static str;

    /// The memory capacity `N`.
    fn capacity(&self) -> Capacity;

    /// The address width / tree depth `n = log₂ N`.
    fn address_width(&self) -> u32 {
        self.capacity().address_width()
    }

    /// Number of quantum routers in the architecture.
    fn router_count(&self) -> u64;

    /// Maximum number of queries concurrently in flight.
    fn query_parallelism(&self) -> u32;

    /// The layered instruction stream of one query.
    fn query_layers(&self) -> Vec<QueryLayer>;

    /// The architecture's compiled query plan: its instruction stream
    /// partially evaluated into an O(1)-per-branch [`CompiledQuery`].
    ///
    /// The plan is the one execution path: [`Self::execute_query_traced`],
    /// batched execution (the columnar kernel) and the fidelity estimators
    /// all run on it. The built-in backends return the process-wide
    /// cached plan ([`crate::exec::compiled_query`]); a new backend
    /// either does the same or compiles its own stream once at
    /// construction ([`CompiledQuery::compile`]). The interpreter remains
    /// the property-tested reference
    /// ([`execute_layers`](crate::exec::execute_layers) per query,
    /// [`crate::reference::execute_batch`] per batch).
    fn compiled_query(&self) -> Arc<CompiledQuery>;

    /// Integer circuit-layer count of a single query.
    fn single_query_layers_integer(&self) -> u64;

    /// Weighted single-query latency under a timing model.
    fn single_query_latency(&self, timing: &TimingModel) -> Layers;

    /// Minimum weighted spacing between consecutive query admissions.
    ///
    /// Defaults to `latency / parallelism` — exact for sequential machines
    /// (`parallelism = 1`) and for round-robin banks; pipelined
    /// architectures override it with their pipeline interval.
    fn admission_interval(&self, timing: &TimingModel) -> Layers {
        self.single_query_latency(timing) / f64::from(self.query_parallelism())
    }

    /// Weighted latency of `p` concurrent queries: the last query is
    /// admitted `(p − 1)` intervals in and then runs to completion.
    ///
    /// # Panics
    ///
    /// Panics if `p == 0`.
    fn parallel_queries_latency(&self, p: u32, timing: &TimingModel) -> Layers {
        assert!(p >= 1, "at least one query");
        self.admission_interval(timing) * f64::from(p - 1) + self.single_query_latency(timing)
    }

    /// The global circuit layer at which query `query_index` (0-based, in
    /// a back-to-back batch) performs data retrieval — the instant at which
    /// it observes the classical memory.
    fn retrieval_layer(&self, query_index: usize) -> u64;

    /// Executes one query functionally over an address superposition,
    /// returning the entangled output state of Eq. (1) of the paper.
    ///
    /// # Errors
    ///
    /// The provided method never fails: it runs the compiled plan, which
    /// was proven valid for every address when it was compiled. A backend
    /// that overrides it reports a stream violation as an [`ExecError`].
    ///
    /// # Panics
    ///
    /// Panics if `memory` does not match the QRAM capacity.
    fn execute_query(
        &self,
        memory: &ClassicalMemory,
        address: &AddressState,
    ) -> Result<QueryOutcome, ExecError> {
        self.execute_query_traced(memory, address)
            .map(|exec| exec.outcome)
    }

    /// Like [`Self::execute_query`] but also returns per-class gate counts.
    ///
    /// Runs the [`Self::compiled_query`] plan: O(1) residual work per
    /// branch, since the stream was proven valid for every address at
    /// compile time.
    ///
    /// # Errors
    ///
    /// See [`Self::execute_query`].
    ///
    /// # Panics
    ///
    /// Panics if `memory` does not match the QRAM capacity.
    fn execute_query_traced(
        &self,
        memory: &ClassicalMemory,
        address: &AddressState,
    ) -> Result<Execution, ExecError> {
        assert_eq!(
            memory.capacity() as u64,
            self.capacity().get(),
            "memory capacity must match QRAM capacity"
        );
        Ok(self.compiled_query().execute(memory, address))
    }

    /// Executes a batch of back-to-back queries against a shared memory,
    /// returning one outcome per query.
    ///
    /// Memory snapshots are taken at each query's *data-retrieval layer*
    /// ([`Self::retrieval_layer`]); `memory_updates` maps a global circuit
    /// layer to cell writes applied at that layer (modelling the classical
    /// memory swap of §7.2 of the paper). A query sees exactly the memory
    /// contents current at its retrieval layer, including an update whose
    /// layer *equals* that retrieval layer (see [`execute_batch`] for the
    /// tie semantics).
    ///
    /// # Errors
    ///
    /// As [`Self::execute_query`]: the provided method never fails.
    ///
    /// # Panics
    ///
    /// Panics if the memory capacity mismatches the QRAM capacity.
    fn execute_queries(
        &self,
        memory: &ClassicalMemory,
        addresses: &[AddressState],
        memory_updates: &[(u64, u64, u64)], // (layer, address, value)
    ) -> Result<Vec<QueryOutcome>, ExecError> {
        execute_batch(self, memory, addresses, memory_updates)
    }
}

/// Memo accounting of one [`execute_batch_traced`] call: how often a
/// query repeats an address set already answered against the same memory
/// epoch. No cache exists; the counts measure the reuse a per-epoch memo
/// would find in the batch.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BatchCacheStats {
    /// Queries whose address set was already seen in the same memory
    /// epoch (a memo would answer them without a walk).
    pub hits: u64,
    /// The first query over each address set per epoch: the queries a
    /// memo would have to answer with a load.
    pub misses: u64,
}

impl BatchCacheStats {
    /// Fraction of queries answered from the cache (`0.0` for an empty
    /// batch).
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Shared batched-execution engine behind
/// [`QramModel::execute_queries`]: processes queries in retrieval order,
/// applying each memory write at its layer, so every query observes the
/// memory contents current at its own retrieval layer.
///
/// Retrieval layers are computed once per query up front (one
/// [`QramModel::retrieval_layer`] call each), never inside the sort or the
/// execution loop. The batch runs through the columnar kernel (`soa`
/// module) on the backend's [`QramModel::compiled_query`] plan, which
/// answers every branch with one direct load from the memory image; it is
/// pinned against the interpreter sweep of
/// [`crate::reference::execute_batch`].
///
/// # Tie semantics (§7.2)
///
/// An update whose layer exactly *equals* a query's retrieval layer **is
/// visible** to that query: the classical memory swap of §7.2 completes
/// within the swap step that precedes the query's CLASSICAL-GATES
/// retrieval in the same circuit layer, so the write lands first. Updates
/// strictly after the retrieval layer are seen only by later queries.
///
/// # Errors
///
/// Never fails: the plan was proven valid for every address when it was
/// compiled. The `Result` matches [`QramModel::execute_queries`].
///
/// # Panics
///
/// Panics if the memory capacity mismatches the QRAM capacity.
pub fn execute_batch<M: QramModel + ?Sized>(
    model: &M,
    memory: &ClassicalMemory,
    addresses: &[AddressState],
    memory_updates: &[(u64, u64, u64)],
) -> Result<Vec<QueryOutcome>, ExecError> {
    assert_eq!(
        memory.capacity() as u64,
        model.capacity().get(),
        "memory capacity must match QRAM capacity"
    );
    Ok(crate::soa::execute_columnar(
        &model.compiled_query(),
        memory,
        addresses,
        memory_updates,
        |q| model.retrieval_layer(q),
    ))
}

/// [`execute_batch`] with memo accounting ([`BatchCacheStats`]) alongside
/// the outcomes — the instrumented entry point behind the benchmark's
/// per-layer trace.
///
/// The kernel runs as in [`execute_batch`]; the accounting is a pass of
/// its own over the §7.2 retrieval-order sweep, in which every delivered
/// update closes a memory epoch. Each epoch sorts its query indices by
/// address sequence once and counts one miss per distinct address set
/// and one hit for every repeat.
///
/// # Errors
///
/// See [`execute_batch`].
///
/// # Panics
///
/// Panics if the memory capacity mismatches the QRAM capacity.
pub fn execute_batch_traced<M: QramModel + ?Sized>(
    model: &M,
    memory: &ClassicalMemory,
    addresses: &[AddressState],
    memory_updates: &[(u64, u64, u64)],
) -> Result<(Vec<QueryOutcome>, BatchCacheStats), ExecError> {
    let outcomes = execute_batch(model, memory, addresses, memory_updates)?;
    let retrievals: Vec<u64> = (0..addresses.len())
        .map(|q| model.retrieval_layer(q))
        .collect();
    let key = |q: usize| addresses[q].iter().map(|&(_, a)| a);
    let mut stats = BatchCacheStats::default();
    let mut close_epoch = |epoch: &mut Vec<usize>| {
        epoch.sort_unstable_by(|&a, &b| key(a).cmp(key(b)));
        let repeats = epoch.windows(2).filter(|w| key(w[0]).eq(key(w[1]))).count() as u64;
        stats.hits += repeats;
        stats.misses += epoch.len() as u64 - repeats;
        epoch.clear();
    };
    let mut epoch = Vec::new();
    retrieval_order_sweep(&retrievals, memory_updates, |event| -> Result<(), ()> {
        match event {
            SweepEvent::Update { .. } => close_epoch(&mut epoch),
            SweepEvent::Query(q) => epoch.push(q),
        }
        Ok(())
    })
    .expect("memo accounting is infallible");
    close_epoch(&mut epoch);
    Ok((outcomes, stats))
}

/// One step of the §7.2 retrieval-order sweep of
/// [`retrieval_order_sweep`].
pub(crate) enum SweepEvent {
    /// Deliver a classical memory write (global address, value).
    Update {
        /// The written global cell address.
        address: u64,
        /// The written value.
        value: u64,
    },
    /// Execute query `q` against the memory contents delivered so far.
    Query(usize),
}

/// The §7.2 retrieval-order sweep shared by the columnar kernel and the
/// reference oracle ([`crate::reference::execute_batch`]): visits queries
/// in ascending retrieval-layer order, delivering every pending memory
/// update whose layer is `<=` the query's retrieval layer *before* that
/// query executes. The `<=` is the tie rule — a write at exactly the
/// retrieval layer IS visible — and lives only here, so both engines stay
/// in lockstep.
pub(crate) fn retrieval_order_sweep<E>(
    retrievals: &[u64],
    memory_updates: &[(u64, u64, u64)],
    mut on_event: impl FnMut(SweepEvent) -> Result<(), E>,
) -> Result<(), E> {
    let mut order: Vec<usize> = (0..retrievals.len()).collect();
    order.sort_by_key(|&q| retrievals[q]);
    let mut updates: Vec<&(u64, u64, u64)> = memory_updates.iter().collect();
    updates.sort_by_key(|&&(layer, _, _)| layer);
    let mut next_update = 0usize;
    for q in order {
        while next_update < updates.len() && updates[next_update].0 <= retrievals[q] {
            let &(_, address, value) = updates[next_update];
            on_event(SweepEvent::Update { address, value })?;
            next_update += 1;
        }
        on_event(SweepEvent::Query(q))?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BucketBrigadeQram, FatTreeQram};

    fn models(n: u64) -> (BucketBrigadeQram, FatTreeQram) {
        let capacity = Capacity::new(n).unwrap();
        (BucketBrigadeQram::new(capacity), FatTreeQram::new(capacity))
    }

    #[test]
    fn trait_objects_are_usable() {
        let (bb, ft) = models(8);
        let backends: Vec<&dyn QramModel> = vec![&bb, &ft];
        let mem = ClassicalMemory::from_words(1, &[1, 0, 1, 0, 0, 1, 0, 1]).unwrap();
        let addr = AddressState::uniform(3, &[0, 5]).unwrap();
        for backend in backends {
            let out = backend.execute_query(&mem, &addr).unwrap();
            assert_eq!(out.data_for(0), Some(1));
            assert_eq!(out.data_for(5), Some(1));
        }
    }

    #[test]
    fn default_parallel_latency_matches_closed_forms() {
        let timing = TimingModel::paper_default();
        let (bb, ft) = models(1024);
        // BB: p sequential queries.
        let p = 10u32;
        let bb_expect = crate::latency::bb_parallel_queries(bb.capacity(), p, &timing);
        assert!((bb.parallel_queries_latency(p, &timing).get() - bb_expect.get()).abs() < 1e-9);
        // Fat-Tree: pipelined admission, Table 1's 16.5n − 8.375.
        let ft_expect = crate::latency::fat_tree_parallel_queries(ft.capacity(), p, &timing);
        assert!((ft.parallel_queries_latency(p, &timing).get() - ft_expect.get()).abs() < 1e-9);
    }

    #[test]
    fn admission_intervals() {
        let timing = TimingModel::paper_default();
        let (bb, ft) = models(1024);
        // Sequential machine: interval == latency.
        assert_eq!(
            bb.admission_interval(&timing),
            bb.single_query_latency(&timing)
        );
        // Pipelined machine: the paper's 8.25-layer interval.
        assert_eq!(ft.admission_interval(&timing).get(), 8.25);
    }

    #[test]
    fn retrieval_layers_are_increasing_on_both_backends() {
        let (bb, ft) = models(8);
        for model in [&bb as &dyn QramModel, &ft as &dyn QramModel] {
            let mut prev = 0;
            for q in 0..5 {
                let r = model.retrieval_layer(q);
                assert!(r > prev, "{}: retrieval {r} at query {q}", model.name());
                prev = r;
            }
        }
    }

    #[test]
    fn batched_execution_agrees_across_backends() {
        let (bb, ft) = models(8);
        let mem = ClassicalMemory::from_words(1, &[1, 0, 0, 1, 0, 1, 1, 0]).unwrap();
        let addresses: Vec<AddressState> = (0..4u64)
            .map(|i| AddressState::classical(3, i * 2).unwrap())
            .collect();
        let bb_out = bb.execute_queries(&mem, &addresses, &[]).unwrap();
        let ft_out = ft.execute_queries(&mem, &addresses, &[]).unwrap();
        assert_eq!(bb_out.len(), ft_out.len());
        for (b, f) in bb_out.iter().zip(&ft_out) {
            assert!((b.fidelity(f) - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn empty_batch_returns_no_outcomes() {
        let (bb, ft) = models(4);
        let mem = ClassicalMemory::zeros(4);
        assert!(bb.execute_queries(&mem, &[], &[]).unwrap().is_empty());
        assert!(ft.execute_queries(&mem, &[], &[]).unwrap().is_empty());
    }

    #[test]
    fn memory_updates_respect_retrieval_order_on_bb() {
        // BB queries serialize: retrievals at 4n+1, then (8n+1)+4n+1, …
        let (bb, _) = models(8);
        assert_eq!(bb.retrieval_layer(0), 13);
        assert_eq!(bb.retrieval_layer(1), 25 + 13);
        let mem = ClassicalMemory::zeros(8);
        let addresses: Vec<AddressState> = (0..2)
            .map(|_| AddressState::classical(3, 4).unwrap())
            .collect();
        // Write lands between the two retrievals.
        let outs = bb.execute_queries(&mem, &addresses, &[(20, 4, 1)]).unwrap();
        assert_eq!(outs[0].data_for(4), Some(0));
        assert_eq!(outs[1].data_for(4), Some(1));
    }

    #[test]
    fn update_at_exact_retrieval_layer_is_visible_on_both_backends() {
        // §7.2 tie semantics: the classical swap completes within the swap
        // step preceding retrieval in the same layer, so a write at layer
        // == retrieval_layer(q) IS seen by query q; one layer later is not.
        let (bb, ft) = models(8);
        for model in [&bb as &dyn QramModel, &ft as &dyn QramModel] {
            let mem = ClassicalMemory::zeros(8);
            let addresses: Vec<AddressState> = (0..2)
                .map(|_| AddressState::classical(3, 6).unwrap())
                .collect();
            let r0 = model.retrieval_layer(0);
            // Write lands exactly at query 0's retrieval layer: visible.
            let outs = model
                .execute_queries(&mem, &addresses, &[(r0, 6, 1)])
                .unwrap();
            assert_eq!(outs[0].data_for(6), Some(1), "{}: tie write", model.name());
            assert_eq!(outs[1].data_for(6), Some(1), "{}", model.name());
            // One layer later: query 0 sees the old value, query 1 the new.
            let outs = model
                .execute_queries(&mem, &addresses, &[(r0 + 1, 6, 1)])
                .unwrap();
            assert_eq!(outs[0].data_for(6), Some(0), "{}: late write", model.name());
            assert_eq!(outs[1].data_for(6), Some(1), "{}", model.name());
        }
    }

    #[test]
    fn retrieval_layers_match_closed_forms() {
        let (bb, ft) = models(8);
        for q in 0..6 {
            // Fat-Tree: 10q + 5n; BB: q(8n + 1) + 4n + 1 (n = 3).
            assert_eq!(ft.retrieval_layer(q), 10 * q as u64 + 15);
            assert_eq!(bb.retrieval_layer(q), q as u64 * 25 + 13);
        }
    }

    #[test]
    #[should_panic(expected = "must match")]
    fn batch_rejects_mismatched_memory() {
        let (_, ft) = models(8);
        let mem = ClassicalMemory::zeros(4);
        let _ = ft.execute_queries(&mem, &[], &[]);
    }

    #[test]
    fn repeated_addresses_hit_the_memo_cache() {
        let (_, ft) = models(8);
        let mem = ClassicalMemory::from_words(1, &[1, 0, 0, 1, 1, 0, 1, 0]).unwrap();
        // 6 queries over 2 distinct address sets → 2 misses, 4 hits.
        let addresses: Vec<AddressState> = (0..6u64)
            .map(|i| AddressState::classical(3, i % 2).unwrap())
            .collect();
        let (outs, stats) = execute_batch_traced(&ft, &mem, &addresses, &[]).unwrap();
        assert_eq!(stats.misses, 2);
        assert_eq!(stats.hits, 4);
        assert!((stats.hit_rate() - 4.0 / 6.0).abs() < 1e-12);
        for (i, out) in outs.iter().enumerate() {
            assert_eq!(out.data_for(i as u64 % 2), Some(mem.read(i as u64 % 2)));
        }
    }

    #[test]
    fn memo_hits_apply_per_query_amplitudes() {
        // Two superpositions over the SAME address set with different
        // amplitudes: the second must hit the cache yet keep its own
        // amplitudes in the outcome.
        let (_, ft) = models(8);
        let mem = ClassicalMemory::from_words(1, &[1, 0, 0, 1, 1, 0, 1, 0]).unwrap();
        let uniform = AddressState::uniform(3, &[2, 5]).unwrap();
        let skewed = AddressState::new(
            3,
            [
                (qsim::Complex::real(2.0), 2u64),
                (qsim::Complex::real(1.0), 5u64),
            ],
        )
        .unwrap();
        let (outs, stats) =
            execute_batch_traced(&ft, &mem, &[uniform.clone(), skewed.clone()], &[]).unwrap();
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hits, 1);
        assert!((outs[0].fidelity(&mem.ideal_query(&uniform)) - 1.0).abs() < 1e-12);
        assert!((outs[1].fidelity(&mem.ideal_query(&skewed)) - 1.0).abs() < 1e-12);
        // And the two outcomes differ (different amplitude profiles).
        assert!(outs[0].fidelity(&outs[1]) < 1.0 - 1e-6);
    }

    #[test]
    fn memory_write_invalidates_the_memo_cache() {
        // Same address queried before and after a write: the write bumps
        // the epoch, so the second query must MISS and see the new value.
        let (bb, _) = models(8);
        let mem = ClassicalMemory::zeros(8);
        let addresses: Vec<AddressState> = (0..3)
            .map(|_| AddressState::classical(3, 4).unwrap())
            .collect();
        // BB retrievals at 13, 38, 63; write lands between q0 and q1.
        let (outs, stats) = execute_batch_traced(&bb, &mem, &addresses, &[(20, 4, 1)]).unwrap();
        assert_eq!(outs[0].data_for(4), Some(0));
        assert_eq!(outs[1].data_for(4), Some(1));
        assert_eq!(outs[2].data_for(4), Some(1));
        assert_eq!(stats.misses, 2, "epoch bump must force a re-execution");
        assert_eq!(stats.hits, 1, "third query re-hits the post-write entry");
    }

    #[test]
    fn memoized_and_unmemoized_batches_agree() {
        // The traced entry point (kernel plus memo pass) against the
        // reference interpreter sweep, across two writes that split the
        // epochs.
        let (bb, ft) = models(8);
        let mem = ClassicalMemory::from_words(1, &[1, 0, 0, 1, 1, 0, 1, 0]).unwrap();
        let addresses: Vec<AddressState> = vec![
            AddressState::uniform(3, &[0, 3, 5]).unwrap(),
            AddressState::classical(3, 3).unwrap(),
            AddressState::uniform(3, &[0, 3, 5]).unwrap(),
            AddressState::classical(3, 3).unwrap(),
        ];
        let updates = [(14u64, 3u64, 1u64), (30, 5, 1)];
        for model in [&bb as &dyn QramModel, &ft as &dyn QramModel] {
            let (memoized, _) = execute_batch_traced(model, &mem, &addresses, &updates).unwrap();
            let reference =
                crate::reference::execute_batch(model, &mem, &addresses, &updates).unwrap();
            assert_eq!(memoized, reference, "{}", model.name());
        }
    }

    #[test]
    fn empty_batch_reports_empty_stats() {
        let (_, ft) = models(4);
        let mem = ClassicalMemory::zeros(4);
        let (outs, stats) = execute_batch_traced(&ft, &mem, &[], &[]).unwrap();
        assert!(outs.is_empty());
        assert_eq!(stats, BatchCacheStats::default());
        assert_eq!(stats.hit_rate(), 0.0);
    }
}
