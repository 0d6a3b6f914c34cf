//! The paper's headline numbers, asserted end to end. Each test cites the
//! table or figure it reproduces.

use fat_tree_qram::algos::{algorithm_depth, sweep_cell, ParallelAlgorithm};
use fat_tree_qram::arch::{Architecture, CostModel, NodeLayout, OnChipPlan};
use fat_tree_qram::core::{BucketBrigadeQram, FatTreeQram, QramModel};
use fat_tree_qram::metrics::{Capacity, TimingModel};
use fat_tree_qram::noise::{bounds, table4, GateErrorRates};

fn cap(n: u64) -> Capacity {
    Capacity::new(n).unwrap()
}

fn timing() -> TimingModel {
    TimingModel::paper_default()
}

// ---- Figure 1(b) / Table 1 ----

#[test]
fn fig1b_asymptotic_comparison() {
    let c = cap(1 << 12);
    let ft = CostModel::new(Architecture::FatTree, c, timing());
    let bb = CostModel::new(Architecture::BucketBrigade, c, timing());
    // O(N) qubits both, 2× constant for Fat-Tree.
    assert_eq!(ft.qubit_count(), 2 * bb.qubit_count());
    // Parallelism log N vs 1.
    assert_eq!(ft.query_parallelism(), 12);
    assert_eq!(bb.query_parallelism(), 1);
    // log N queries: O(log N) vs O(log² N).
    let ft_t = ft.parallel_queries_latency(12).get();
    let bb_t = bb.parallel_queries_latency(12).get();
    assert!(ft_t < 200.0 && bb_t > 900.0);
}

#[test]
fn table1_fat_tree_row() {
    let m = CostModel::new(Architecture::FatTree, cap(1024), timing());
    assert_eq!(m.qubit_count(), 16 * 1024);
    assert!((m.single_query_latency().get() - 82.375).abs() < 1e-9);
    assert!((m.parallel_queries_latency(10).get() - 156.625).abs() < 1e-9);
    assert!((m.amortized_query_latency().get() - 8.25).abs() < 1e-9);
}

// ---- Table 2 ----

#[test]
fn table2_bandwidth_and_volume() {
    let ft = CostModel::new(Architecture::FatTree, cap(1024), timing());
    assert!((ft.bandwidth(1).get() - 1.2121e5).abs() < 10.0);
    assert!((ft.spacetime_volume_per_query().per_cell(1024) - 132.0).abs() < 1e-9);
    assert!((ft.classical_swap_budget_micros() - 8.25).abs() < 1e-9);
    let bb = CostModel::new(Architecture::BucketBrigade, cap(1024), timing());
    assert!((bb.classical_swap_budget_micros() - 80.125).abs() < 1e-9);
}

// ---- Figure 2(a) / Figure 6 ----

#[test]
fn fig2a_and_fig6_layer_counts() {
    let bb = BucketBrigadeQram::new(cap(8));
    assert_eq!(bb.single_query_layers_integer(), 25);
    assert_eq!(bb.stage_finish_layers(), vec![4, 8, 12, 13, 17, 21, 25]);
    let ft = FatTreeQram::new(cap(8));
    assert_eq!(ft.single_query_layers_integer(), 29); // 29:25 (Fig. 6)
    let schedule = ft.pipeline(3);
    assert_eq!(schedule.makespan_integer(), 49);
    assert!(schedule.validate_no_conflicts().is_ok());
}

// ---- Figure 8 ----

#[test]
fn fig8_fat_tree_bandwidth_is_flat() {
    let values: Vec<f64> = Capacity::sweep(1024)
        .skip(1)
        .map(|c| {
            CostModel::new(Architecture::FatTree, c, timing())
                .bandwidth(1)
                .get()
        })
        .collect();
    for w in values.windows(2) {
        assert!(
            (w[0] - w[1]).abs() < 1e-6,
            "Fat-Tree bandwidth must be flat"
        );
    }
    let bb: Vec<f64> = Capacity::sweep(1024)
        .skip(1)
        .map(|c| {
            CostModel::new(Architecture::BucketBrigade, c, timing())
                .bandwidth(1)
                .get()
        })
        .collect();
    for w in bb.windows(2) {
        assert!(w[0] > w[1], "BB bandwidth must decay with N");
    }
}

// ---- Figure 9 ----

#[test]
fn fig9_depth_reductions() {
    let c = cap(1024);
    for algorithm in ParallelAlgorithm::figure9_suite() {
        let ft = algorithm_depth(algorithm, Architecture::FatTree, c, timing()).get();
        let bb = algorithm_depth(algorithm, Architecture::BucketBrigade, c, timing()).get();
        let ratio = bb / ft;
        assert!(
            (4.0..15.0).contains(&ratio),
            "{algorithm}: speedup {ratio} outside the paper's up-to-10x regime"
        );
    }
}

// ---- Figure 10 ----

#[test]
fn fig10_shape() {
    let c = cap(1024);
    // BB is bandwidth-bound: depth at p=30 is ~30x depth at p=1 when
    // processing is negligible.
    let bb1 = sweep_cell(Architecture::BucketBrigade, c, timing(), 0.25, 1)
        .depth
        .get();
    let bb30 = sweep_cell(Architecture::BucketBrigade, c, timing(), 0.25, 30)
        .depth
        .get();
    assert!(bb30 / bb1 > 20.0);
    // Fat-Tree at the same point is far shallower.
    let ft30 = sweep_cell(Architecture::FatTree, c, timing(), 0.25, 30)
        .depth
        .get();
    assert!(bb30 / ft30 > 5.0);
    // Utilization: Fat-Tree spans the whole range.
    let low = sweep_cell(Architecture::FatTree, c, timing(), 2.0, 1)
        .utilization
        .get();
    let high = sweep_cell(Architecture::FatTree, c, timing(), 0.0, 30)
        .utilization
        .get();
    assert!(low < 0.2 && high > 0.85);
}

// ---- Table 3 / Table 4 / Figure 11 ----

#[test]
fn table3_column() {
    for (n, expect) in [(8u64, 0.045), (16, 0.08), (32, 0.125), (64, 0.18)] {
        assert!((bounds::table3_infidelity(cap(n), 1e-3) - expect).abs() < 1e-12);
    }
}

#[test]
fn table4_rows() {
    let [ft, bb] = table4();
    assert!((ft.fidelity_before - 0.84).abs() < 1e-12);
    assert!((bb.fidelity_before - 0.872).abs() < 1e-12);
    assert!(ft.fidelity_after > 0.999);
    assert!((bb.fidelity_after - 0.984).abs() < 1e-3);
}

#[test]
fn fig11_constant_factor_between_ft_and_bb() {
    let rates = GateErrorRates::paper_default();
    let ft = bounds::fat_tree_query_infidelity(cap(1 << 8), &rates);
    let bb = bounds::bb_query_infidelity(cap(1 << 8), &rates);
    assert!((ft / bb - 1.25).abs() < 1e-9);
}

// ---- §4.1 / §4.2 hardware claims ----

#[test]
fn router_count_only_doubles() {
    for n in [64u64, 1024, 1 << 15] {
        let ft = FatTreeQram::new(cap(n));
        let bb = BucketBrigadeQram::new(cap(n));
        let ratio = ft.router_count() as f64 / bb.router_count() as f64;
        assert!(ratio < 2.0 && ratio > 1.8, "N={n}: ratio {ratio}");
    }
}

#[test]
fn biplanar_chip_has_no_crossings() {
    // Every node size appearing in a capacity-2^16 Fat-Tree.
    for routers in 1..=16u32 {
        assert_eq!(NodeLayout::new(routers).biplanar_crossings(), 0);
    }
    // And the global plane alternation is consistent.
    assert!(OnChipPlan::new(cap(1 << 10)).verify_alternation());
}
