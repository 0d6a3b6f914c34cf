//! Property-based tests over the core invariants of the reproduction.

use std::collections::HashSet;

use fat_tree_qram::core::exec::execute_layers;
use fat_tree_qram::core::{
    execute_batch, execute_batch_traced, reference, BatchCacheStats, BucketBrigadeQram,
    CompiledQuery, FatTreeQram, Op, PipelineSchedule, QramModel, QubitTag, ShardedQram,
};
use fat_tree_qram::metrics::{Capacity, Layers};
use fat_tree_qram::noise::distilled_infidelity;
use fat_tree_qram::qsim::branch::{AddressState, ClassicalMemory};
use fat_tree_qram::qsim::Complex;
use fat_tree_qram::sched::{
    schedule_fifo, schedule_in_order, OnlineFifoScheduler, QramServer, QueryRequest,
};
use proptest::prelude::*;

proptest! {
    /// Every [`QramModel`] backend must reproduce the ideal query
    /// semantics (`ClassicalMemory::ideal_query`) for random memories and
    /// random address superpositions — asserted generically through the
    /// trait, so a future backend is covered by adding one line.
    #[test]
    fn qram_model_backends_match_ideal_semantics(
        n in 1u32..=7,
        seed_cells in prop::collection::vec(0u64..2, 1..128),
        picks in prop::collection::vec(0u64..128, 1..10),
    ) {
        let capacity = 1u64 << n;
        let mut cells = seed_cells;
        cells.resize(capacity as usize, 0);
        let memory = ClassicalMemory::from_words(1, &cells).unwrap();
        let mut addresses: Vec<u64> = picks.iter().map(|p| p % capacity).collect();
        addresses.sort_unstable();
        addresses.dedup();
        let address = AddressState::uniform(n, &addresses).unwrap();
        let cap = Capacity::new(capacity).unwrap();
        let backends: [Box<dyn QramModel>; 2] = [
            Box::new(BucketBrigadeQram::new(cap)),
            Box::new(FatTreeQram::new(cap)),
        ];
        let ideal = memory.ideal_query(&address);
        for backend in &backends {
            let outcome = backend.execute_query(&memory, &address).unwrap();
            prop_assert!(
                (outcome.fidelity(&ideal) - 1.0).abs() < 1e-9,
                "{} diverges from ideal semantics", backend.name()
            );
        }
    }

    /// Batched execution through the trait returns per-query outcomes that
    /// each match the ideal semantics, on both architectures.
    #[test]
    fn qram_model_batches_match_ideal_semantics(
        n in 1u32..=5,
        seed_cells in prop::collection::vec(0u64..2, 1..32),
        query_addrs in prop::collection::vec(0u64..32, 1..6),
    ) {
        let capacity = 1u64 << n;
        let mut cells = seed_cells;
        cells.resize(capacity as usize, 0);
        let memory = ClassicalMemory::from_words(1, &cells).unwrap();
        let addresses: Vec<AddressState> = query_addrs
            .iter()
            .map(|&a| AddressState::classical(n, a % capacity).unwrap())
            .collect();
        let cap = Capacity::new(capacity).unwrap();
        let backends: [Box<dyn QramModel>; 2] = [
            Box::new(BucketBrigadeQram::new(cap)),
            Box::new(FatTreeQram::new(cap)),
        ];
        for backend in &backends {
            let outcomes = backend.execute_queries(&memory, &addresses, &[]).unwrap();
            prop_assert_eq!(outcomes.len(), addresses.len());
            for (address, outcome) in addresses.iter().zip(&outcomes) {
                let ideal = memory.ideal_query(address);
                prop_assert!(
                    (outcome.fidelity(&ideal) - 1.0).abs() < 1e-9,
                    "{} batch diverges from ideal semantics", backend.name()
                );
            }
        }
    }

    /// A sharded Fat-Tree of any shard count is observably equivalent to
    /// the monolithic machine of equal total capacity: batched execution
    /// over random memories and random address superpositions reproduces
    /// `ideal_query` per query and matches the monolithic outcome
    /// query-for-query (the sharded serving backend's acceptance
    /// criterion).
    #[test]
    fn sharded_fat_tree_matches_monolith_and_ideal(
        n in 3u32..=6,
        k_exp in 1u32..=3,
        seed_cells in prop::collection::vec(0u64..2, 1..64),
        query_picks in prop::collection::vec(prop::collection::vec(0u64..64, 1..5), 1..6),
    ) {
        let capacity = 1u64 << n;
        // K ∈ {2, 4, 8}, clamped so each shard keeps ≥ 1 address bit.
        let k = 1u32 << k_exp.min(n - 1);
        let mut cells = seed_cells;
        cells.resize(capacity as usize, 0);
        let memory = ClassicalMemory::from_words(1, &cells).unwrap();
        let addresses: Vec<AddressState> = query_picks
            .iter()
            .map(|picks| {
                let mut a: Vec<u64> = picks.iter().map(|p| p % capacity).collect();
                a.sort_unstable();
                a.dedup();
                AddressState::uniform(n, &a).unwrap()
            })
            .collect();
        let cap = Capacity::new(capacity).unwrap();
        let sharded = ShardedQram::fat_tree(cap, k);
        let monolith = FatTreeQram::new(cap);
        let sharded_outs = sharded.execute_queries(&memory, &addresses, &[]).unwrap();
        let mono_outs = monolith.execute_queries(&memory, &addresses, &[]).unwrap();
        prop_assert_eq!(sharded_outs.len(), addresses.len());
        for ((address, s_out), m_out) in addresses.iter().zip(&sharded_outs).zip(&mono_outs) {
            let ideal = memory.ideal_query(address);
            prop_assert!(
                (s_out.fidelity(&ideal) - 1.0).abs() < 1e-9,
                "K={} diverges from ideal semantics", k
            );
            prop_assert!(
                (s_out.fidelity(m_out) - 1.0).abs() < 1e-9,
                "K={} diverges from the monolithic outcome", k
            );
        }
    }

    /// The online FIFO scheduler equals the offline FIFO schedule on
    /// arrival sequences containing *duplicate* arrival times and bursts
    /// larger than the pipeline parallelism — not just strictly increasing
    /// Poisson arrivals.
    #[test]
    fn online_fifo_matches_offline_on_bursty_duplicate_arrivals(
        gaps in prop::collection::vec(0u32..3, 2..40),
        burst in 2usize..=20,
        n_exp in 2u32..=6,
    ) {
        // Mostly-zero gaps create duplicate arrival times; the leading
        // burst at t = 0 exceeds parallelism (log₂ N ≤ 6 < burst ≤ 20
        // whenever burst > n_exp).
        let mut requests: Vec<QueryRequest> = Vec::new();
        for _ in 0..burst {
            requests.push(QueryRequest { id: requests.len(), arrival: Layers::ZERO });
        }
        let mut t = 0.0;
        for &gap in &gaps {
            t += f64::from(gap);
            requests.push(QueryRequest { id: requests.len(), arrival: Layers::new(t) });
        }
        let server = QramServer::fat_tree_integer_layers(Capacity::from_address_width(n_exp));
        let mut online = OnlineFifoScheduler::new(server);
        for &r in &requests {
            online.submit(r).unwrap();
        }
        let online_schedule = online.finish();
        let offline = schedule_fifo(&requests, &server);
        prop_assert_eq!(online_schedule.entries(), offline.entries());
    }

    /// Executing the generated Fat-Tree instruction stream over any
    /// address superposition reproduces Eq. (1) exactly.
    #[test]
    fn fat_tree_execution_matches_ideal_semantics(
        n in 1u32..=8,
        seed_cells in prop::collection::vec(0u64..2, 1..256),
        picks in prop::collection::vec(0u64..256, 1..12),
    ) {
        let capacity = 1u64 << n;
        let mut cells = seed_cells;
        cells.resize(capacity as usize, 0);
        let memory = ClassicalMemory::from_words(1, &cells).unwrap();
        let mut addresses: Vec<u64> = picks.iter().map(|p| p % capacity).collect();
        addresses.sort_unstable();
        addresses.dedup();
        let address = AddressState::uniform(n, &addresses).unwrap();
        let qram = FatTreeQram::new(Capacity::new(capacity).unwrap());
        let outcome = qram.execute_query(&memory, &address).unwrap();
        let ideal = memory.ideal_query(&address);
        prop_assert!((outcome.fidelity(&ideal) - 1.0).abs() < 1e-9);
    }

    /// Ditto for the bucket-brigade stream, with non-uniform amplitudes.
    #[test]
    fn bb_execution_matches_ideal_semantics(
        n in 1u32..=7,
        weights in prop::collection::vec(1u32..100, 2..8),
    ) {
        let capacity = 1u64 << n;
        let cells: Vec<u64> = (0..capacity).map(|i| i % 2).collect();
        let memory = ClassicalMemory::from_words(1, &cells).unwrap();
        let terms: Vec<(Complex, u64)> = weights
            .iter()
            .enumerate()
            .map(|(i, &w)| (Complex::real(f64::from(w)), (i as u64 * 37) % capacity))
            .collect();
        // Deduplicate addresses.
        let mut seen = std::collections::HashSet::new();
        let terms: Vec<_> = terms
            .into_iter()
            .filter(|&(_, a)| seen.insert(a))
            .collect();
        let address = AddressState::new(n, terms).unwrap();
        let qram = BucketBrigadeQram::new(Capacity::new(capacity).unwrap());
        let outcome = qram.execute_query(&memory, &address).unwrap();
        let ideal = memory.ideal_query(&address);
        prop_assert!((outcome.fidelity(&ideal) - 1.0).abs() < 1e-9);
    }

    /// The Fat-Tree pipeline never double-books a sub-QRAM, for any
    /// capacity and any batch size.
    #[test]
    fn pipeline_is_always_conflict_free(n in 1u32..=10, queries in 1usize..=40) {
        let schedule = PipelineSchedule::new(Capacity::from_address_width(n), queries);
        prop_assert!(schedule.validate_no_conflicts().is_ok());
    }

    /// At every gate step, at most log₂(N) queries are in flight.
    #[test]
    fn pipeline_respects_parallelism(n in 1u32..=8, queries in 1usize..=30) {
        let schedule = PipelineSchedule::new(Capacity::from_address_width(n), queries);
        for t in 1..=schedule.total_gate_steps() {
            prop_assert!(schedule.occupancy_at(t).len() <= n as usize);
        }
    }

    /// FIFO minimizes total latency against random permutations
    /// (Appendix A.2), on random arrival patterns and random servers.
    #[test]
    fn fifo_is_latency_optimal(
        arrivals in prop::collection::vec(0.0f64..500.0, 2..10),
        perm_seed in 0u64..1000,
        n_exp in 2u32..=8,
    ) {
        let requests: Vec<QueryRequest> = arrivals
            .iter()
            .enumerate()
            .map(|(id, &a)| QueryRequest { id, arrival: Layers::new(a) })
            .collect();
        let server = QramServer::fat_tree_integer_layers(
            Capacity::from_address_width(n_exp));
        let fifo = schedule_fifo(&requests, &server).total_latency();
        // A deterministic pseudo-random permutation from the seed.
        let mut order: Vec<usize> = (0..requests.len()).collect();
        let mut state = perm_seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        for i in (1..order.len()).rev() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let j = (state >> 33) as usize % (i + 1);
            order.swap(i, j);
        }
        let alt = schedule_in_order(&requests, &order, &server).total_latency();
        prop_assert!(fifo <= alt + Layers::new(1e-9),
            "FIFO {} > permuted {}", fifo.get(), alt.get());
    }

    /// Distilled infidelity is monotone non-increasing in copies and never
    /// exceeds the input infidelity.
    #[test]
    fn distillation_is_monotone(eps in 0.0f64..0.49, k in 1u32..8) {
        let once = distilled_infidelity(eps, k);
        let more = distilled_infidelity(eps, k + 1);
        prop_assert!(more <= once + 1e-15);
        prop_assert!(once <= eps + 1e-15);
    }

    /// The compiled plan (`execute_query_traced`) returns the
    /// interpreter's exact `Execution` — outcome terms and gate counts — on
    /// both instruction-stream architectures, over superpositions of up to
    /// 200 branches at n ≤ 8 (the plan property below stops at 12 branches
    /// and n ≤ 6).
    #[test]
    fn parallel_and_sequential_executors_agree(
        n in 4u32..=8,
        seed_cells in prop::collection::vec(0u64..2, 1..256),
        stride in 1u64..37,
        branch_count in 1usize..200,
    ) {
        let capacity = 1u64 << n;
        let mut cells = seed_cells;
        cells.resize(capacity as usize, 0);
        let memory = ClassicalMemory::from_words(1, &cells).unwrap();
        let mut addresses: Vec<u64> = (0..branch_count as u64)
            .map(|i| (i * stride) % capacity)
            .collect();
        addresses.sort_unstable();
        addresses.dedup();
        let address = AddressState::uniform(n, &addresses).unwrap();
        let cap = Capacity::new(capacity).unwrap();
        let backends: [Box<dyn QramModel>; 2] = [
            Box::new(BucketBrigadeQram::new(cap)),
            Box::new(FatTreeQram::new(cap)),
        ];
        for backend in &backends {
            let compiled = backend.execute_query_traced(&memory, &address).unwrap();
            let interpreted =
                execute_layers(&backend.query_layers(), &memory, &address).unwrap();
            prop_assert_eq!(&compiled, &interpreted);
        }
    }

    /// `ShardedQram::execute_queries` (the columnar kernel over the
    /// unsplit image) equals the reference interpreter sweep on random
    /// batches of wide superpositions with interleaved memory writes, for
    /// Fat-Tree and bucket-brigade shards.
    #[test]
    fn sharded_parallel_and_sequential_agree(
        n in 4u32..=6,
        k_exp in 1u32..=3,
        seed_cells in prop::collection::vec(0u64..2, 1..64),
        query_strides in prop::collection::vec(1u64..23, 1..5),
        // The vendored proptest has no tuple strategies: each u64 encodes
        // (layer, address, value) and is decoded below.
        updates in prop::collection::vec(0u64..(200 * 64 * 2), 0..4),
    ) {
        let capacity = 1u64 << n;
        let k = 1u32 << k_exp.min(n - 1);
        let mut cells = seed_cells;
        cells.resize(capacity as usize, 0);
        let memory = ClassicalMemory::from_words(1, &cells).unwrap();
        let addresses: Vec<AddressState> = query_strides
            .iter()
            .map(|&stride| {
                let mut a: Vec<u64> = (0..capacity).map(|i| (i * stride) % capacity).collect();
                a.sort_unstable();
                a.dedup();
                AddressState::uniform(n, &a).unwrap()
            })
            .collect();
        let updates: Vec<(u64, u64, u64)> = updates
            .into_iter()
            .map(|enc| (enc / 128, (enc / 2) % capacity, enc % 2))
            .collect();
        let cap = Capacity::new(capacity).unwrap();
        let ft = ShardedQram::fat_tree(cap, k);
        let bb = ShardedQram::bucket_brigade(cap, k);
        prop_assert_eq!(
            ft.execute_queries(&memory, &addresses, &updates).unwrap(),
            reference::execute_batch(&ft, &memory, &addresses, &updates).unwrap()
        );
        prop_assert_eq!(
            bb.execute_queries(&memory, &addresses, &updates).unwrap(),
            reference::execute_batch(&bb, &memory, &addresses, &updates).unwrap()
        );
    }

    /// Batch execution (`execute_batch`, the columnar kernel) equals the
    /// reference interpreter sweep across interleaved memory writes on all
    /// three backends: repeated address sets meet writes that change what
    /// a repeat must read, exactly as §7.2 requires.
    #[test]
    fn memoized_batches_match_unmemoized_across_interleaved_writes(
        n in 3u32..=5,
        seed_cells in prop::collection::vec(0u64..2, 1..32),
        // Few distinct addresses over many queries → plenty of repeats.
        query_addrs in prop::collection::vec(0u64..4, 2..12),
        // Encoded (layer, address, value) triples, as above.
        updates in prop::collection::vec(0u64..(300 * 32 * 2), 0..6),
    ) {
        let capacity = 1u64 << n;
        let mut cells = seed_cells;
        cells.resize(capacity as usize, 0);
        let memory = ClassicalMemory::from_words(1, &cells).unwrap();
        let addresses: Vec<AddressState> = query_addrs
            .iter()
            .map(|&a| AddressState::classical(n, a % capacity).unwrap())
            .collect();
        let updates: Vec<(u64, u64, u64)> = updates
            .into_iter()
            .map(|enc| (enc / 64, (enc / 2) % capacity, enc % 2))
            .collect();
        let cap = Capacity::new(capacity).unwrap();
        let backends: [Box<dyn QramModel>; 3] = [
            Box::new(BucketBrigadeQram::new(cap)),
            Box::new(FatTreeQram::new(cap)),
            Box::new(ShardedQram::fat_tree(cap, 2)),
        ];
        for backend in &backends {
            let fast = execute_batch(backend.as_ref(), &memory, &addresses, &updates).unwrap();
            let expected =
                reference::execute_batch(backend.as_ref(), &memory, &addresses, &updates)
                    .unwrap();
            prop_assert_eq!(&fast, &expected);
        }
    }

    /// Compiled query plans are observably identical to the interpreter
    /// on all three backends: same outcomes and same gate counts for
    /// random memories and superpositions. `execute_query_traced` runs the
    /// backend's plan, and is compared against the interpreter run over
    /// the backend's generated stream.
    #[test]
    fn compiled_plans_match_interpreter_on_all_backends(
        n in 2u32..=6,
        seed_cells in prop::collection::vec(0u64..2, 1..64),
        picks in prop::collection::vec(0u64..64, 1..12),
    ) {
        let capacity = 1u64 << n;
        let mut cells = seed_cells;
        cells.resize(capacity as usize, 0);
        let memory = ClassicalMemory::from_words(1, &cells).unwrap();
        let mut addresses: Vec<u64> = picks.iter().map(|p| p % capacity).collect();
        addresses.sort_unstable();
        addresses.dedup();
        let address = AddressState::uniform(n, &addresses).unwrap();
        let cap = Capacity::new(capacity).unwrap();
        let backends: [Box<dyn QramModel>; 3] = [
            Box::new(BucketBrigadeQram::new(cap)),
            Box::new(FatTreeQram::new(cap)),
            Box::new(ShardedQram::bucket_brigade(cap, 2)),
        ];
        for backend in &backends {
            let compiled = backend.execute_query_traced(&memory, &address).unwrap();
            let interpreted =
                execute_layers(&backend.query_layers(), &memory, &address).unwrap();
            prop_assert!(
                compiled == interpreted,
                "{} compiled != interpreted", backend.name()
            );
        }
    }

    /// Compiled batched execution (`execute_queries`: the columnar
    /// kernel) equals the reference interpreter sweep
    /// (`reference::execute_batch`) across interleaved §7.2 memory writes
    /// on all three backends. The sharded backend draws K ∈ {1, 2, 4, 8},
    /// capped at N/2, so the kernel's direct loads from the unsplit image
    /// (shard `s`'s local cell `l` is global cell `l·K + s`) meet the
    /// reference at every interleaving.
    #[test]
    fn compiled_batches_match_interpreted_reference(
        n in 3u32..=5,
        k_exp in 0u32..=3,
        seed_cells in prop::collection::vec(0u64..2, 1..32),
        query_addrs in prop::collection::vec(0u64..32, 1..8),
        // Encoded (layer, address, value) triples (the vendored proptest
        // has no tuple strategies).
        updates in prop::collection::vec(0u64..(300 * 32 * 2), 0..5),
    ) {
        let capacity = 1u64 << n;
        let mut cells = seed_cells;
        cells.resize(capacity as usize, 0);
        let memory = ClassicalMemory::from_words(1, &cells).unwrap();
        let addresses: Vec<AddressState> = query_addrs
            .iter()
            .map(|&a| AddressState::classical(n, a % capacity).unwrap())
            .collect();
        let updates: Vec<(u64, u64, u64)> = updates
            .into_iter()
            .map(|enc| (enc / 64, (enc / 2) % capacity, enc % 2))
            .collect();
        let cap = Capacity::new(capacity).unwrap();
        let k = 1u32 << k_exp.min(n - 1);
        let backends: [Box<dyn QramModel>; 3] = [
            Box::new(BucketBrigadeQram::new(cap)),
            Box::new(FatTreeQram::new(cap)),
            Box::new(ShardedQram::fat_tree(cap, k)),
        ];
        for backend in &backends {
            let compiled =
                backend.execute_queries(&memory, &addresses, &updates).unwrap();
            let expected =
                reference::execute_batch(backend.as_ref(), &memory, &addresses, &updates)
                    .unwrap();
            prop_assert!(compiled == expected, "{} (K={}) diverges", backend.name(), k);
        }
    }

    /// Randomly mutated instruction streams behave identically under
    /// compilation and interpretation: a corrupted stream is rejected at
    /// compile time with the interpreter's exact error (layer index and
    /// message), and a mutation that leaves the stream valid (e.g. a
    /// duplicated retrieval whose reads XOR-cancel) compiles to a plan
    /// with the interpreter's outcome.
    #[test]
    fn mutated_streams_compile_and_interpret_identically(
        n in 2u32..=5,
        arch_pick in 0u64..2,
        mutation in 0u64..6,
        position in 0u64..10_000,
    ) {
        let capacity = 1u64 << n;
        let cells: Vec<u64> = (0..capacity).map(|i| (i * 3 + 1) % 2).collect();
        let memory = ClassicalMemory::from_words(1, &cells).unwrap();
        let address = AddressState::full_superposition(n);
        let arch: Box<dyn QramModel> = if arch_pick == 1 {
            Box::new(FatTreeQram::new(Capacity::new(capacity).unwrap()))
        } else {
            Box::new(BucketBrigadeQram::new(Capacity::new(capacity).unwrap()))
        };
        let mut layers = arch.query_layers();
        let layer = (position as usize) % layers.len();
        let level = (position % u64::from(n)) as u32;
        match mutation {
            0 => {
                // Duplicate the layer's first op in place.
                if let Some(&op) = layers[layer].ops.first() {
                    layers[layer].ops.push(op);
                }
            }
            1 => {
                // Drop the layer's first op.
                if !layers[layer].ops.is_empty() {
                    layers[layer].ops.remove(0);
                }
            }
            2 => layers[layer].ops.clear(),
            3 => layers[layer].ops.push(Op::Store(level)),
            4 => layers[layer].ops.insert(0, Op::ClassicalGates),
            _ => layers[layer].ops.push(Op::Load(QubitTag::Bus)),
        }
        let compiled = CompiledQuery::compile(n, &layers);
        let interpreted = execute_layers(&layers, &memory, &address);
        match (compiled, interpreted) {
            (Ok(plan), Ok(exec)) => {
                prop_assert_eq!(plan.execute(&memory, &address), exec);
            }
            (Err(compile_err), Err(interp_err)) => {
                prop_assert!(
                    compile_err == interp_err,
                    "compile error {compile_err:?} != interpreter error {interp_err:?}"
                );
            }
            (Ok(_), Err(e)) => {
                return Err(TestCaseError::fail(format!(
                    "stream compiled but the interpreter rejected it: {e}"
                )));
            }
            (Err(e), Ok(_)) => {
                return Err(TestCaseError::fail(format!(
                    "interpreter accepted a stream compilation rejected: {e}"
                )));
            }
        }
    }

    /// The columnar structure-of-arrays kernel (`execute_batch_traced`, on
    /// the backend's compiled plan) returns the reference interpreter
    /// sweep's outcomes and the brute-force memo model's `BatchCacheStats`
    /// across interleaved §7.2 memory writes.
    /// Queries mix classical addresses with 2–4-branch superpositions over
    /// a pool of six, so repeats of both kinds span several epochs (the
    /// kernel counts single-branch sets with a bitmap and multi-branch
    /// sets with a sort).
    #[test]
    fn columnar_kernel_matches_rowwise_and_interpreter(
        n in 3u32..=5,
        seed_cells in prop::collection::vec(0u64..2, 1..32),
        // Each u64 picks a pool offset (mod 6) and a width: half the
        // codes are classical, the rest windows of 2, 3 or 4 pool
        // addresses. Few distinct sets over many queries → many hits.
        query_codes in prop::collection::vec(0u64..36, 2..12),
        // Encoded (layer, address, value) triples (the vendored proptest
        // has no tuple strategies).
        updates in prop::collection::vec(0u64..(300 * 32 * 2), 0..6),
    ) {
        let capacity = 1u64 << n;
        let mut cells = seed_cells;
        cells.resize(capacity as usize, 0);
        let memory = ClassicalMemory::from_words(1, &cells).unwrap();
        // Six distinct addresses: 5 is odd, so i·5 mod 2ⁿ is injective.
        let pool: Vec<u64> = (0..6).map(|i| (i * 5) % capacity).collect();
        let addresses: Vec<AddressState> = query_codes
            .iter()
            .map(|&code| {
                let (offset, kind) = (code % 6, code / 6);
                let width = if kind < 3 { 1 } else { kind - 1 };
                let branches: Vec<u64> =
                    (0..width).map(|i| pool[((offset + i) % 6) as usize]).collect();
                AddressState::uniform(n, &branches).unwrap()
            })
            .collect();
        let updates: Vec<(u64, u64, u64)> = updates
            .into_iter()
            .map(|enc| (enc / 64, (enc / 2) % capacity, enc % 2))
            .collect();
        let cap = Capacity::new(capacity).unwrap();
        let backends: [Box<dyn QramModel>; 3] = [
            Box::new(BucketBrigadeQram::new(cap)),
            Box::new(FatTreeQram::new(cap)),
            Box::new(ShardedQram::fat_tree(cap, 2)),
        ];
        for backend in &backends {
            let (outs, stats) =
                execute_batch_traced(backend.as_ref(), &memory, &addresses, &updates).unwrap();
            let expected =
                reference::execute_batch(backend.as_ref(), &memory, &addresses, &updates)
                    .unwrap();
            prop_assert!(outs == expected, "{} columnar outcomes diverge", backend.name());
            let modeled = memo_model(backend.as_ref(), &addresses, &updates);
            prop_assert!(
                stats == modeled,
                "{} columnar stats diverge: {stats:?} != {modeled:?}", backend.name()
            );
        }
    }

    /// A Zipf-skewed batch — wide superpositions whose branches pile onto
    /// one hot shard, mixed with a minority of cross-shard queries — is
    /// identical under `execute_queries` (columnar kernel over the unsplit
    /// image) and the reference interpreter sweep, with interleaved writes
    /// landing on the hot shard, for K ∈ {1, 2, 4, 8}.
    #[test]
    fn skewed_shard_loads_keep_deterministic_outcomes(
        n in 5u32..=7,
        k_exp in 0u32..=3,
        hot_pick in 0u64..8,
        seed_cells in prop::collection::vec(0u64..2, 1..128),
        query_strides in prop::collection::vec(1u64..17, 2..6),
        updates in prop::collection::vec(0u64..(200 * 128 * 2), 0..4),
    ) {
        let capacity = 1u64 << n;
        let mut cells = seed_cells;
        cells.resize(capacity as usize, 0);
        let memory = ClassicalMemory::from_words(1, &cells).unwrap();
        // K capped at N/2, so every shard keeps at least one address bit.
        let k = 1u64 << k_exp.min(n - 1);
        let hot_shard = hot_pick % k;
        let local = capacity / k;
        // Hot queries: every branch ≡ hot_shard (mod K). One cold query
        // spans all shards so recombination order is exercised too.
        let mut addresses: Vec<AddressState> = query_strides
            .iter()
            .map(|&stride| {
                let mut a: Vec<u64> = (0..local)
                    .map(|i| ((i * stride) % local) * k + hot_shard)
                    .collect();
                a.sort_unstable();
                a.dedup();
                AddressState::uniform(n, &a).unwrap()
            })
            .collect();
        addresses.push(AddressState::full_superposition(n));
        // Writes target the hot shard's cells.
        let updates: Vec<(u64, u64, u64)> = updates
            .into_iter()
            .map(|enc| (enc / 256, ((enc / 2) % local) * k + hot_shard, enc % 2))
            .collect();
        let shards = u32::try_from(k).unwrap();
        let sharded = ShardedQram::fat_tree(Capacity::new(capacity).unwrap(), shards);
        let fast = sharded.execute_queries(&memory, &addresses, &updates).unwrap();
        let expected = reference::execute_batch(&sharded, &memory, &addresses, &updates).unwrap();
        prop_assert_eq!(fast, expected);
    }

    /// Query outcomes are unitary-consistent: branch amplitudes are
    /// preserved by execution (the QRAM only permutes/labels branches).
    #[test]
    fn execution_preserves_amplitudes(n in 2u32..=6, k in 2usize..6) {
        let capacity = 1u64 << n;
        let cells: Vec<u64> = (0..capacity).map(|i| (i / 3) % 2).collect();
        let memory = ClassicalMemory::from_words(1, &cells).unwrap();
        let k = k.min(capacity as usize);
        let spacing = capacity / k as u64; // >= 1 since k <= capacity
        let addresses: Vec<u64> = (0..k as u64).map(|i| i * spacing).collect();
        let address = AddressState::uniform(n, &addresses).unwrap();
        let qram = FatTreeQram::new(Capacity::new(capacity).unwrap());
        let outcome = qram.execute_query(&memory, &address).unwrap();
        let total: f64 = outcome.iter().map(|&(amp, _, _)| amp.norm_sqr()).sum();
        prop_assert!((total - 1.0).abs() < 1e-9);
        for &(amp, _, _) in outcome.iter() {
            prop_assert!((amp.norm_sqr() - 1.0 / k as f64).abs() < 1e-9);
        }
    }
}

/// Brute-force memo accounting: visit queries in retrieval order; every
/// delivered write (layer ≤ the next query's retrieval layer, the §7.2
/// tie rule) opens a new epoch; within an epoch the first query over an
/// address set misses and each repeat hits.
fn memo_model(
    model: &dyn QramModel,
    addresses: &[AddressState],
    updates: &[(u64, u64, u64)],
) -> BatchCacheStats {
    let mut order: Vec<usize> = (0..addresses.len()).collect();
    order.sort_by_key(|&q| model.retrieval_layer(q));
    let mut writes: Vec<u64> = updates.iter().map(|&(layer, _, _)| layer).collect();
    writes.sort_unstable();
    let mut writes = writes.into_iter().peekable();
    let mut seen: HashSet<Vec<u64>> = HashSet::new();
    let mut stats = BatchCacheStats::default();
    for q in order {
        while writes
            .next_if(|&layer| layer <= model.retrieval_layer(q))
            .is_some()
        {
            seen.clear();
        }
        let set: Vec<u64> = addresses[q].iter().map(|&(_, a)| a).collect();
        if seen.insert(set) {
            stats.misses += 1;
        } else {
            stats.hits += 1;
        }
    }
    stats
}
