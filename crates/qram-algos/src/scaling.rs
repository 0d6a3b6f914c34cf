//! Asymptotic circuit-depth scalings of §7.3.
//!
//! With problem-independent parameters (precision, sparsity) fixed to
//! constants, the paper reports these overall-depth reductions when moving
//! the four parallel algorithms from a sequential shared QRAM (BB /
//! Virtual) to Fat-Tree:
//!
//! * Grover: `O(log²N·√N)` → `O(log N·√N)`
//! * k-Sum: `O(log²N·(N/log N)^{k/(k+1)})` → `O(log N·(…))`
//! * Hamiltonian simulation: `O(log N·log log N + log²N)` →
//!   `O(log N·log log N + log N)`
//! * QSP: `O(poly(d))` → `O(poly(d)/log N)`

use qram_metrics::Capacity;

use crate::parallel::ParallelAlgorithm;

/// Asymptotic overall depth of an algorithm on a *sequential* shared QRAM
/// (BB-style), up to constant factors.
#[must_use]
pub fn sequential_depth_scaling(algorithm: ParallelAlgorithm, capacity: Capacity) -> f64 {
    let n_cells = capacity.capacity_f64();
    let n = capacity.n_f64().max(1.0);
    match algorithm {
        ParallelAlgorithm::Grover => n * n * n_cells.sqrt(),
        ParallelAlgorithm::KSum { k } => {
            let kf = f64::from(k);
            n * n * (n_cells / n).powf(kf / (kf + 1.0))
        }
        ParallelAlgorithm::HamiltonianSimulation => n * n.log2().max(1.0) + n * n,
        ParallelAlgorithm::Qsp { degree } => f64::from(degree) * f64::from(degree),
    }
}

/// Asymptotic overall depth of the same algorithm on a Fat-Tree QRAM.
#[must_use]
pub fn fat_tree_depth_scaling(algorithm: ParallelAlgorithm, capacity: Capacity) -> f64 {
    let n_cells = capacity.capacity_f64();
    let n = capacity.n_f64().max(1.0);
    match algorithm {
        ParallelAlgorithm::Grover => n * n_cells.sqrt(),
        ParallelAlgorithm::KSum { k } => {
            let kf = f64::from(k);
            n * (n_cells / n).powf(kf / (kf + 1.0))
        }
        ParallelAlgorithm::HamiltonianSimulation => n * n.log2().max(1.0) + n,
        ParallelAlgorithm::Qsp { degree } => f64::from(degree) * f64::from(degree) / n,
    }
}

/// The asymptotic depth-reduction factor Fat-Tree buys for an algorithm.
#[must_use]
pub fn depth_reduction_factor(algorithm: ParallelAlgorithm, capacity: Capacity) -> f64 {
    sequential_depth_scaling(algorithm, capacity) / fat_tree_depth_scaling(algorithm, capacity)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fig9::algorithm_depth;
    use qram_arch::Architecture;
    use qram_metrics::TimingModel;

    fn cap(width: u32) -> Capacity {
        Capacity::from_address_width(width)
    }

    #[test]
    fn grover_reduction_is_log_n() {
        for width in [6u32, 10, 16] {
            let r = depth_reduction_factor(ParallelAlgorithm::Grover, cap(width));
            assert!((r - f64::from(width)).abs() < 1e-9, "width {width}");
        }
    }

    #[test]
    fn ksum_reduction_is_log_n() {
        let r = depth_reduction_factor(ParallelAlgorithm::KSum { k: 2 }, cap(10));
        assert!((r - 10.0).abs() < 1e-9);
    }

    #[test]
    fn hamsim_reduction_is_sublogarithmic() {
        // (n·loglog n + n²) / (n·loglog n + n) → between 1 and log N.
        let r = depth_reduction_factor(ParallelAlgorithm::HamiltonianSimulation, cap(16));
        assert!(r > 2.0 && r < 16.0, "r = {r}");
    }

    #[test]
    fn qsp_reduction_is_log_n() {
        let r = depth_reduction_factor(ParallelAlgorithm::Qsp { degree: 30 }, cap(10));
        assert!((r - 10.0).abs() < 1e-9);
    }

    #[test]
    fn scalings_grow_monotonically_in_capacity() {
        for algorithm in ParallelAlgorithm::figure9_suite() {
            let mut prev = 0.0;
            for width in [4u32, 8, 12, 16] {
                if matches!(algorithm, ParallelAlgorithm::Qsp { .. }) {
                    continue; // QSP depth depends on d, not N
                }
                let d = fat_tree_depth_scaling(algorithm, cap(width));
                assert!(d > prev, "{algorithm} width {width}");
                prev = d;
            }
        }
    }

    #[test]
    fn measured_reduction_tracks_asymptotics() {
        use qram_core::{BucketBrigadeQram, FatTreeQram};
        let capacity = Capacity::new(1024).unwrap();
        let timing = TimingModel::paper_default();
        let bb = BucketBrigadeQram::new(capacity);
        let ft = FatTreeQram::new(capacity);
        for algorithm in ParallelAlgorithm::figure9_suite() {
            let measured = algorithm.depth_on(&bb, &timing) / algorithm.depth_on(&ft, &timing);
            let asymptotic = depth_reduction_factor(algorithm, capacity);
            let ratio = measured / asymptotic;
            assert!(
                (0.3..3.0).contains(&ratio),
                "{algorithm}: measured {measured} vs asymptotic {asymptotic}"
            );
        }
    }

    #[test]
    fn simulation_reductions_track_asymptotics_within_constant() {
        // The simulated Fig. 9 speedups must lie within a constant factor
        // of the asymptotic predictions (they include pipeline fill/drain
        // and processing overlap that the asymptotics ignore).
        let capacity = Capacity::new(1024).unwrap();
        let timing = TimingModel::paper_default();
        for algorithm in ParallelAlgorithm::figure9_suite() {
            let simulated =
                algorithm_depth(algorithm, Architecture::BucketBrigade, capacity, timing).get()
                    / algorithm_depth(algorithm, Architecture::FatTree, capacity, timing).get();
            let asymptotic = depth_reduction_factor(algorithm, capacity);
            let ratio = simulated / asymptotic;
            assert!(
                (0.3..3.0).contains(&ratio),
                "{algorithm}: simulated {simulated} vs asymptotic {asymptotic}"
            );
        }
    }
}
