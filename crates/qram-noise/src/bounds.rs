//! Analytic query-fidelity bounds (§8.1, Table 3, Fig. 11).
//!
//! Bucket-brigade style QRAM has *intrinsic noise resilience*: only the
//! `O(log² N)` gates along active branches damage a query, not the `O(N)`
//! idle routers, so infidelity scales as `2·log²(N)·Σεᵢ`. A generic circuit
//! (GC) occupying the same hardware for the same duration has worst-case
//! infidelity linear in its space-time volume — exponentially worse in the
//! tree depth.

use qram_core::QramModel;
use qram_metrics::Capacity;

use crate::rates::GateErrorRates;

/// Analytic query-infidelity upper bound `2·log²(N)·Σεᵢ` for a
/// [`QramModel`] backend, summing only the error rates of gate classes the
/// backend actually schedules (presence is derived from its compiled
/// plan's gate counts, so no per-architecture dispatch is needed).
/// Reproduces [`fat_tree_query_infidelity`] and [`bb_query_infidelity`]
/// for the two built-in architectures.
///
/// The `2·log²(N)` prefactor is the paper's active-branch gate-count bound
/// for bucket-brigade-style tree traversals (§8.1) and is *assumed*, not
/// derived: a future backend whose per-query stream executes asymptotically
/// more than `O(log² N)` gates per class on the active branch (e.g. a
/// paging/virtual scheme) needs its own bound.
#[must_use]
pub fn query_infidelity_bound<M: QramModel + ?Sized>(model: &M, rates: &GateErrorRates) -> f64 {
    // Class presence comes from the compiled plan's gate counts: a class
    // whose ops execute no gate (e.g. a swap step with nothing in flight)
    // contributes no physical error, so it is left out of the sum.
    let counts = model.compiled_query().gate_counts();
    let mut sum = 0.0;
    if counts.cswap > 0 {
        sum += rates.e0;
    }
    if counts.inter_node_swap > 0 {
        sum += rates.e1;
    }
    if counts.local_swap > 0 {
        sum += rates.e2;
    }
    let n = model.capacity().n_f64();
    (2.0 * n * n * sum).min(1.0)
}

/// Fat-Tree query infidelity upper bound `2·log²(N)·(ε₀ + ε₁ + ε₂)`,
/// clamped to 1: the query fidelity is at least `1 −` this (§8.1).
#[must_use]
pub fn fat_tree_query_infidelity(capacity: Capacity, rates: &GateErrorRates) -> f64 {
    let n = capacity.n_f64();
    (2.0 * n * n * rates.sum()).min(1.0)
}

/// Bucket-brigade query infidelity upper bound `2·log²(N)·(ε₀ + ε₁)`
/// (Hann et al. 2021) — no local swap steps, hence no `ε₂` term.
#[must_use]
pub fn bb_query_infidelity(capacity: Capacity, rates: &GateErrorRates) -> f64 {
    let n = capacity.n_f64();
    (2.0 * n * n * (rates.e0 + rates.e1)).min(1.0)
}

/// Worst-case infidelity of a *generic circuit* (GC) occupying the same
/// hardware for the same duration as one QRAM query: linear in the circuit
/// size — all `≈2N` routers firing one gate in each of the `2n` gate
/// steps (`4·N·n` gate opportunities at the mean class rate) — hence
/// exponential in the tree depth, unlike QRAM's `log² N` resilience
/// (the standard assumption in formal fault-tolerance analyses, §8.3.1).
#[must_use]
pub fn generic_circuit_infidelity(capacity: Capacity, rates: &GateErrorRates) -> f64 {
    let n = capacity.n_f64();
    let gates = 4.0 * capacity.capacity_f64() * n;
    (gates * rates.sum() / 3.0).min(1.0)
}

/// One row of Table 3: query infidelity of a capacity-`N` QRAM for a given
/// CSWAP error rate `ε₀` (with the paper's proportions ε₁ = ε₀,
/// ε₂ = ε₀/2, giving `5·log²(N)·ε₀`).
#[must_use]
pub fn table3_infidelity(capacity: Capacity, e0: f64) -> f64 {
    fat_tree_query_infidelity(capacity, &GateErrorRates::from_cswap_rate(e0))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cap(n: u64) -> Capacity {
        Capacity::new(n).unwrap()
    }

    #[test]
    fn table3_exact_values() {
        // Paper's Table 3, ε₀ = 10⁻³ column: 0.045 / 0.08 / 0.125 / 0.18.
        assert!((table3_infidelity(cap(8), 1e-3) - 0.045).abs() < 1e-12);
        assert!((table3_infidelity(cap(16), 1e-3) - 0.08).abs() < 1e-12);
        assert!((table3_infidelity(cap(32), 1e-3) - 0.125).abs() < 1e-12);
        assert!((table3_infidelity(cap(64), 1e-3) - 0.18).abs() < 1e-12);
        // ε₀ = 10⁻⁴ column scales by 10.
        assert!((table3_infidelity(cap(16), 1e-4) - 0.008).abs() < 1e-12);
        assert!((table3_infidelity(cap(64), 1e-5) - 0.0018).abs() < 1e-12);
    }

    #[test]
    fn table4_pre_distillation_fidelities() {
        // N = 16, ε₀ = 2·10⁻³: Fat-Tree 0.84, BB 0.872 (§8.2).
        let rates = GateErrorRates::from_cswap_rate(2e-3);
        assert!((1.0 - fat_tree_query_infidelity(cap(16), &rates) - 0.84).abs() < 1e-12);
        assert!((1.0 - bb_query_infidelity(cap(16), &rates) - 0.872).abs() < 1e-12);
    }

    #[test]
    fn fat_tree_overhead_is_constant_factor_over_bb() {
        // Fig. 11: Fat-Tree infidelity is only 0.25× worse than BB
        // (the ε₂ term over ε₀ + ε₁).
        let rates = GateErrorRates::paper_default();
        for n in [8u64, 64, 1024] {
            let ft = fat_tree_query_infidelity(cap(n), &rates);
            let bb = bb_query_infidelity(cap(n), &rates);
            assert!((ft / bb - 1.25).abs() < 1e-9, "N={n}");
        }
    }

    #[test]
    fn qram_beats_generic_circuit_exponentially() {
        let rates = GateErrorRates::from_cswap_rate(1e-5);
        let mut advantage_prev = 0.0;
        for n in [16u64, 64, 256] {
            let qram = fat_tree_query_infidelity(cap(n), &rates);
            let gc = generic_circuit_infidelity(cap(n), &rates);
            let advantage = gc / qram;
            assert!(advantage > 1.0, "N={n}");
            assert!(advantage > advantage_prev, "advantage must grow with N");
            advantage_prev = advantage;
        }
    }

    #[test]
    fn generic_bound_matches_closed_forms() {
        use qram_core::{BucketBrigadeQram, FatTreeQram};
        let rates = GateErrorRates::paper_default();
        for n in [8u64, 64, 1024] {
            let c = cap(n);
            let ft = query_infidelity_bound(&FatTreeQram::new(c), &rates);
            assert!(
                (ft - fat_tree_query_infidelity(c, &rates)).abs() < 1e-15,
                "N={n}"
            );
            let bb = query_infidelity_bound(&BucketBrigadeQram::new(c), &rates);
            assert!((bb - bb_query_infidelity(c, &rates)).abs() < 1e-15, "N={n}");
        }
    }

    #[test]
    fn generic_bound_covers_sharded_backends() {
        use qram_core::ShardedQram;
        let rates = GateErrorRates::paper_default();
        for (n, k) in [(64u64, 2u32), (1024, 4), (1024, 8)] {
            let c = cap(n);
            // The sharded machine's whole-query stream is the equivalent
            // monolithic capacity-N stream (routing log₂ K bits plus one
            // shard traversal), so the 2·log²(N) bound applies unchanged.
            let sharded = query_infidelity_bound(&ShardedQram::fat_tree(c, k), &rates);
            assert!(
                (sharded - fat_tree_query_infidelity(c, &rates)).abs() < 1e-15,
                "N={n} K={k}"
            );
            let bb = query_infidelity_bound(&ShardedQram::bucket_brigade(c, k), &rates);
            assert!(
                (bb - bb_query_infidelity(c, &rates)).abs() < 1e-15,
                "N={n} K={k}"
            );
        }
    }

    #[test]
    fn infidelity_clamps_at_one() {
        let rates = GateErrorRates::new(0.5, 0.5, 0.5);
        assert_eq!(fat_tree_query_infidelity(cap(1 << 10), &rates), 1.0);
    }
}
