//! Closed-form query latencies (Table 1 of the paper).
//!
//! All functions return *weighted* circuit layers under a [`TimingModel`]:
//! standard (CSWAP) layers count 1, intra-node swap and classical layers
//! count by their relative gate time (⅛ with the paper's defaults). The
//! `*_integer` variants count raw circuit layers as drawn in Figs. 2/6.

use qram_metrics::{Capacity, LayerKind, Layers, TimingModel};

/// Integer circuit layers of a single bucket-brigade query: `8n + 1`
/// (25 for `N = 8`, Fig. 2(a)).
#[must_use]
pub fn bb_single_query_integer(capacity: Capacity) -> u64 {
    8 * u64::from(capacity.address_width()) + 1
}

/// Weighted layers of a single bucket-brigade query: `8n + w_cg` where
/// `w_cg` is the classical-layer weight (`8n + 0.125` by default,
/// Table 1).
#[must_use]
pub fn bb_single_query(capacity: Capacity, timing: &TimingModel) -> Layers {
    let n = capacity.n_f64();
    Layers::new(8.0 * n + timing.layer_weight(LayerKind::Classical))
}

/// Weighted latency of `p` queries on a (sequential) bucket-brigade QRAM:
/// `p · (8n + w_cg)`.
#[must_use]
pub fn bb_parallel_queries(capacity: Capacity, p: u32, timing: &TimingModel) -> Layers {
    bb_single_query(capacity, timing) * f64::from(p)
}

/// Integer circuit layers of a single Fat-Tree query: `10n − 1`
/// (29 for `N = 8`, Fig. 6).
#[must_use]
pub fn fat_tree_single_query_integer(capacity: Capacity) -> u64 {
    10 * u64::from(capacity.address_width()) - 1
}

/// Weighted layers of a single Fat-Tree query: `8n + (2n−1)·w_s`
/// (`8.25n − 0.125` by default, Table 1): `2n` gate steps of four standard
/// layers plus `2n − 1` interleaved swap layers, one of which hosts data
/// retrieval.
#[must_use]
pub fn fat_tree_single_query(capacity: Capacity, timing: &TimingModel) -> Layers {
    let n = capacity.n_f64();
    let w = timing.layer_weight(LayerKind::IntraNode);
    Layers::new(8.0 * n + (2.0 * n - 1.0) * w)
}

/// Weighted Fat-Tree pipeline interval: `8 + 2·w_s` (`8.25` by default) —
/// also the amortized single-query latency at full utilization (Table 1).
#[must_use]
pub fn fat_tree_pipeline_interval(timing: &TimingModel) -> Layers {
    Layers::new(8.0 + 2.0 * timing.layer_weight(LayerKind::IntraNode))
}

/// Weighted latency for `p` pipelined Fat-Tree queries: the last query
/// starts `(p−1)` intervals in and runs for a full single-query latency.
/// For `p = log₂ N` this is `16.5n − 8.375` (Table 1).
#[must_use]
pub fn fat_tree_parallel_queries(capacity: Capacity, p: u32, timing: &TimingModel) -> Layers {
    assert!(p >= 1, "at least one query");
    fat_tree_pipeline_interval(timing) * f64::from(p - 1) + fat_tree_single_query(capacity, timing)
}

/// Weighted single-query latency of the Virtual QRAM baseline (Xu et al.
/// 2023) on the Fat-Tree's qubit budget: `K` pages of size `M = N/K` with
/// `K = n/2`, each page queried by a `(8·log M + w_cg)`-layer BB query:
/// `4n² + (4 + w/2)n − 4n·log₂ n` (Table 1's
/// `4 log²N + 4.0625 log N − 4 log N log log N`).
#[must_use]
pub fn virtual_single_query(capacity: Capacity, timing: &TimingModel) -> Layers {
    let n = capacity.n_f64();
    let w = timing.layer_weight(LayerKind::Classical);
    if n < 2.0 {
        // Degenerate: a single page is an ordinary BB QRAM.
        return bb_single_query(capacity, timing);
    }
    let k = n / 2.0; // number of pages
    let m_log = n - n.log2() + 1.0; // log₂(M) with M = N/K = 2N/n
    Layers::new(k * (8.0 * m_log + w))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cap(n: u64) -> Capacity {
        Capacity::new(n).unwrap()
    }

    fn paper() -> TimingModel {
        TimingModel::paper_default()
    }

    #[test]
    fn bb_matches_table_1() {
        // 8·log N + 0.125.
        assert_eq!(bb_single_query(cap(8), &paper()).get(), 24.125);
        assert_eq!(bb_single_query(cap(1024), &paper()).get(), 80.125);
        assert_eq!(bb_single_query_integer(cap(8)), 25);
    }

    #[test]
    fn fat_tree_matches_table_1() {
        // 8.25·log N − 0.125.
        assert_eq!(fat_tree_single_query(cap(8), &paper()).get(), 24.625);
        assert_eq!(
            fat_tree_single_query(cap(1024), &paper()).get(),
            8.25 * 10.0 - 0.125
        );
        assert_eq!(fat_tree_single_query_integer(cap(8)), 29);
    }

    #[test]
    fn fat_tree_parallel_matches_table_1() {
        // t_logN = 16.5·log N − 8.375.
        for n_exp in [3u32, 5, 10] {
            let c = Capacity::from_address_width(n_exp);
            let got = fat_tree_parallel_queries(c, n_exp, &paper()).get();
            let expect = 16.5 * f64::from(n_exp) - 8.375;
            assert!((got - expect).abs() < 1e-9, "n={n_exp}: {got} vs {expect}");
        }
    }

    #[test]
    fn bb_parallel_is_sequential() {
        let c = cap(1024);
        let one = bb_single_query(c, &paper()).get();
        assert_eq!(bb_parallel_queries(c, 10, &paper()).get(), 10.0 * one);
    }

    #[test]
    fn amortized_interval_is_8_25() {
        assert_eq!(fat_tree_pipeline_interval(&paper()).get(), 8.25);
    }

    #[test]
    fn virtual_matches_table_1_formula() {
        // 4n² + 4.0625n − 4n·log₂(n) at n = 10:
        let got = virtual_single_query(cap(1024), &paper()).get();
        let n: f64 = 10.0;
        let expect = 4.0 * n * n + 4.0625 * n - 4.0 * n * n.log2();
        assert!((got - expect).abs() < 1e-9, "{got} vs {expect}");
    }

    #[test]
    fn virtual_degenerates_to_bb_at_n2() {
        let c = cap(2);
        assert_eq!(
            virtual_single_query(c, &paper()),
            bb_single_query(c, &paper())
        );
    }

    #[test]
    fn fat_tree_faster_than_bb_for_parallel_queries() {
        // The headline result: for log N parallel queries Fat-Tree wins
        // asymptotically (16.5n vs 8n²).
        for n_exp in 2..=16u32 {
            let c = Capacity::from_address_width(n_exp);
            let ft = fat_tree_parallel_queries(c, n_exp, &paper());
            let bb = bb_parallel_queries(c, n_exp, &paper());
            assert!(ft < bb, "n={n_exp}");
        }
    }

    #[test]
    fn fat_tree_single_query_overhead_is_constant_factor() {
        // Single-query latency overhead vs BB is 29:25-like, bounded.
        for n_exp in 1..=16u32 {
            let c = Capacity::from_address_width(n_exp);
            let ratio = fat_tree_single_query(c, &paper()) / bb_single_query(c, &paper());
            assert!(ratio < 1.04, "n={n_exp}: ratio {ratio}");
        }
    }
}
