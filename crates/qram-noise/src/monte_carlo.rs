//! Monte-Carlo validation of the analytic fidelity bounds.
//!
//! Injects stochastic per-gate faults along a backend's compiled query
//! plan (only gates touching the active query branch can fault — the
//! mechanism behind QRAM's intrinsic noise resilience) and estimates the
//! query fidelity by trajectory averaging.

use qram_core::QramModel;
use qsim::branch::{AddressState, ClassicalMemory};
use qsim::noise::FidelityEstimator;
use rand::Rng;

use crate::rates::GateErrorRates;

/// Estimates the query fidelity of any [`QramModel`] backend by sampling
/// `trials` noisy trajectories of its instruction stream —
/// architecture-agnostic: the error profile falls out of the gates the
/// backend actually schedules.
///
/// Trajectories are sampled against the per-layer gate counts of the
/// backend's compiled plan ([`QramModel::compiled_query`]) instead of
/// re-walking the op stream per trial. Each gate along an active branch
/// faults with its class rate, one decision per quantum gate per class
/// per branch, as the interpreter's `execute_layers_noisy` draws them
/// (only the RNG consumption order within a layer differs). A faulted
/// branch is assumed orthogonal to the ideal output (worst case), so
/// per-trajectory fidelity is the squared surviving amplitude weight.
///
/// # Panics
///
/// Panics if `memory` does not match the QRAM capacity.
pub fn estimate_query_fidelity<M: QramModel + ?Sized, R: Rng + ?Sized>(
    model: &M,
    memory: &ClassicalMemory,
    address: &AddressState,
    rates: &GateErrorRates,
    trials: u32,
    rng: &mut R,
) -> FidelityEstimator {
    let plan = model.compiled_query();
    assert_eq!(
        memory.address_width(),
        plan.address_width(),
        "memory capacity must match QRAM capacity"
    );
    let mut estimator = FidelityEstimator::new();
    for _ in 0..trials {
        let survival = plan.noisy_survival(address, |class| {
            let p = rates.class_rate(class);
            p > 0.0 && rng.random::<f64>() < p
        });
        estimator.record(survival * survival);
    }
    estimator
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bounds;
    use qram_core::{BucketBrigadeQram, FatTreeQram};
    use qram_metrics::Capacity;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn memory(n: u32) -> ClassicalMemory {
        let cells: Vec<u64> = (0..(1u64 << n)).map(|i| (i * 7 + 1) % 2).collect();
        ClassicalMemory::from_words(1, &cells).unwrap()
    }

    #[test]
    fn empirical_infidelity_tracks_analytic_bound() {
        // The analytic bound 2n²(ε₀+ε₁+ε₂) must upper-bound the empirical
        // infidelity while staying within a small constant factor — this
        // is the paper's log²(N) noise-resilience claim, measured.
        let mut rng = StdRng::seed_from_u64(11);
        for n in [3u32, 4, 5] {
            let cap = Capacity::from_address_width(n);
            let qram = FatTreeQram::new(cap);
            let rates = GateErrorRates::from_cswap_rate(5e-4);
            let addr = AddressState::classical(n, 1).unwrap();
            let est = estimate_query_fidelity(&qram, &memory(n), &addr, &rates, 4000, &mut rng);
            let empirical = 1.0 - est.mean();
            let bound = bounds::fat_tree_query_infidelity(cap, &rates);
            assert!(
                empirical <= bound * 1.3,
                "n={n}: empirical {empirical} exceeds bound {bound}"
            );
            assert!(
                empirical >= bound / 6.0,
                "n={n}: empirical {empirical} implausibly below bound {bound}"
            );
        }
    }

    #[test]
    fn infidelity_grows_quadratically_with_depth() {
        let mut rng = StdRng::seed_from_u64(23);
        let rates = GateErrorRates::from_cswap_rate(3e-4);
        let mut infidelities = Vec::new();
        for n in [2u32, 4] {
            let qram = FatTreeQram::new(Capacity::from_address_width(n));
            let addr = AddressState::classical(n, 0).unwrap();
            let est = estimate_query_fidelity(&qram, &memory(n), &addr, &rates, 6000, &mut rng);
            infidelities.push(1.0 - est.mean());
        }
        // Doubling n should roughly quadruple infidelity (±Monte-Carlo).
        let ratio = infidelities[1] / infidelities[0];
        assert!(
            (2.0..8.0).contains(&ratio),
            "ratio {ratio} not quadratic-like: {infidelities:?}"
        );
    }

    #[test]
    fn bb_has_lower_infidelity_than_fat_tree() {
        // Fat-Tree pays the extra local-swap (ε₂) gates.
        let mut rng = StdRng::seed_from_u64(37);
        let n = 4u32;
        let cap = Capacity::from_address_width(n);
        let rates = GateErrorRates::from_cswap_rate(2e-3);
        let addr = AddressState::classical(n, 5).unwrap();
        let bb = estimate_query_fidelity(
            &BucketBrigadeQram::new(cap),
            &memory(n),
            &addr,
            &rates,
            6000,
            &mut rng,
        );
        let ft = estimate_query_fidelity(
            &FatTreeQram::new(cap),
            &memory(n),
            &addr,
            &rates,
            6000,
            &mut rng,
        );
        assert!(
            ft.mean() < bb.mean(),
            "Fat-Tree fidelity {} should be below BB {}",
            ft.mean(),
            bb.mean()
        );
        // ...but only by a modest constant factor in infidelity.
        let ratio = (1.0 - ft.mean()) / (1.0 - bb.mean());
        assert!(ratio < 2.0, "infidelity ratio {ratio}");
    }

    #[test]
    fn sharded_backend_estimates_track_the_monolithic_bound() {
        use qram_core::ShardedQram;
        let mut rng = StdRng::seed_from_u64(17);
        let n = 4u32;
        let cap = Capacity::from_address_width(n);
        let rates = GateErrorRates::from_cswap_rate(5e-4);
        let addr = AddressState::classical(n, 11).unwrap();
        let est = estimate_query_fidelity(
            &ShardedQram::fat_tree(cap, 4),
            &memory(n),
            &addr,
            &rates,
            4000,
            &mut rng,
        );
        let empirical = 1.0 - est.mean();
        let bound = bounds::fat_tree_query_infidelity(cap, &rates);
        assert!(
            empirical <= bound * 1.3,
            "empirical {empirical} exceeds bound {bound}"
        );
        assert!(empirical > 0.0, "some trajectories must fault");
    }

    #[test]
    fn zero_rates_give_unit_fidelity() {
        let mut rng = StdRng::seed_from_u64(1);
        let qram = FatTreeQram::new(Capacity::new(8).unwrap());
        let addr = AddressState::full_superposition(3);
        let est = estimate_query_fidelity(
            &qram,
            &memory(3),
            &addr,
            &GateErrorRates::new(0.0, 0.0, 0.0),
            10,
            &mut rng,
        );
        assert!((est.mean() - 1.0).abs() < 1e-9);
        assert_eq!(est.count(), 10);
    }

    #[test]
    fn superposed_queries_decohere_gracefully() {
        // With B branches, losing one branch costs ((B−1)/B)² fidelity per
        // trajectory — the estimator must land between full loss and none.
        let mut rng = StdRng::seed_from_u64(5);
        let qram = FatTreeQram::new(Capacity::new(8).unwrap());
        let addr = AddressState::full_superposition(3);
        let est = estimate_query_fidelity(
            &qram,
            &memory(3),
            &addr,
            &GateErrorRates::from_cswap_rate(2e-3),
            3000,
            &mut rng,
        );
        let f = est.mean();
        assert!(f > 0.5 && f < 1.0, "fidelity {f}");
    }
}
