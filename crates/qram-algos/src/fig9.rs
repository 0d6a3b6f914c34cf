//! Figure 9: overall circuit depth of parallel algorithms across the five
//! shared-QRAM architectures at `N = 2¹⁰`.

use qram_arch::Architecture;
use qram_metrics::{Capacity, Layers, TimingModel};
use qram_sched::{simulate_streams, QramServer};

use crate::parallel::ParallelAlgorithm;

/// One bar of Fig. 9: an algorithm's overall circuit depth on one
/// architecture.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Figure9Bar {
    /// The benchmark.
    pub algorithm: ParallelAlgorithm,
    /// The serving architecture.
    pub architecture: Architecture,
    /// Overall circuit depth (weighted layers) until all streams finish.
    pub depth: Layers,
}

/// Computes one bar for a named table architecture (including the
/// distributed and virtual baselines, which are compositions without an
/// instruction-level backend), via its closed-form cost model.
#[must_use]
pub fn algorithm_depth(
    algorithm: ParallelAlgorithm,
    architecture: Architecture,
    capacity: Capacity,
    timing: TimingModel,
) -> Layers {
    let p = capacity.address_width();
    let server = QramServer::for_architecture(architecture, capacity, timing);
    let streams = algorithm.streams(capacity, p);
    simulate_streams(&streams, &server).makespan()
}

/// Computes the full Fig. 9 grid (4 algorithms × 5 architectures).
#[must_use]
pub fn figure9(capacity: Capacity, timing: TimingModel) -> Vec<Figure9Bar> {
    let mut bars = Vec::with_capacity(20);
    for algorithm in ParallelAlgorithm::figure9_suite() {
        for architecture in Architecture::ALL {
            bars.push(Figure9Bar {
                algorithm,
                architecture,
                depth: algorithm_depth(algorithm, architecture, capacity, timing),
            });
        }
    }
    bars
}

#[cfg(test)]
mod tests {
    use super::*;

    fn depth(algorithm: ParallelAlgorithm, architecture: Architecture) -> f64 {
        algorithm_depth(
            algorithm,
            architecture,
            Capacity::new(1024).unwrap(),
            TimingModel::paper_default(),
        )
        .get()
    }

    #[test]
    fn fat_tree_beats_bb_by_large_factor_on_grover() {
        // The paper reports up to ~10× depth reduction vs BB at N = 2¹⁰.
        let ft = depth(ParallelAlgorithm::Grover, Architecture::FatTree);
        let bb = depth(ParallelAlgorithm::Grover, Architecture::BucketBrigade);
        let ratio = bb / ft;
        assert!(
            (4.0..15.0).contains(&ratio),
            "BB/Fat-Tree depth ratio {ratio} outside the paper's regime"
        );
    }

    #[test]
    fn fat_tree_beats_virtual_on_every_benchmark() {
        for algorithm in ParallelAlgorithm::figure9_suite() {
            let ft = depth(algorithm, Architecture::FatTree);
            let virt = depth(algorithm, Architecture::Virtual);
            assert!(
                virt > 1.5 * ft,
                "{algorithm}: Virtual {virt} not clearly worse than Fat-Tree {ft}"
            );
        }
    }

    #[test]
    fn distributed_variants_win_by_brute_force() {
        // D-BB uses log N× more qubits and should at least match Fat-Tree's
        // order of magnitude (they appear comparable in Fig. 9).
        for algorithm in ParallelAlgorithm::figure9_suite() {
            let ft = depth(algorithm, Architecture::FatTree);
            let dbb = depth(algorithm, Architecture::DistributedBucketBrigade);
            assert!(
                dbb < 2.5 * ft,
                "{algorithm}: D-BB {dbb} unexpectedly far above Fat-Tree {ft}"
            );
            let dft = depth(algorithm, Architecture::DistributedFatTree);
            assert!(dft <= ft * 1.01, "{algorithm}: D-Fat-Tree must be fastest");
        }
    }

    #[test]
    fn generic_executor_matches_table_architectures() {
        use qram_core::{BucketBrigadeQram, FatTreeQram};
        let capacity = Capacity::new(1024).unwrap();
        let timing = TimingModel::paper_default();
        for algorithm in ParallelAlgorithm::figure9_suite() {
            let ft = algorithm.depth_on(&FatTreeQram::new(capacity), &timing);
            assert_eq!(
                ft,
                algorithm_depth(algorithm, Architecture::FatTree, capacity, timing),
                "{algorithm} on Fat-Tree"
            );
            let bb = algorithm.depth_on(&BucketBrigadeQram::new(capacity), &timing);
            assert_eq!(
                bb,
                algorithm_depth(algorithm, Architecture::BucketBrigade, capacity, timing),
                "{algorithm} on BB"
            );
        }
    }

    #[test]
    fn figure9_grid_is_complete() {
        let bars = figure9(Capacity::new(64).unwrap(), TimingModel::paper_default());
        assert_eq!(bars.len(), 20);
        for bar in &bars {
            assert!(bar.depth.get() > 0.0);
        }
    }

    #[test]
    fn qsp_depth_reduction_scales_with_parallelism() {
        // QSP: O(poly(d)) → O(poly(d)/log N): Fat-Tree should cut depth by
        // nearly the full parallelism factor versus BB.
        let ft = depth(ParallelAlgorithm::Qsp { degree: 30 }, Architecture::FatTree);
        let bb = depth(
            ParallelAlgorithm::Qsp { degree: 30 },
            Architecture::BucketBrigade,
        );
        assert!(bb / ft > 5.0, "ratio {}", bb / ft);
    }
}
