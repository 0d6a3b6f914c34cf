//! Order statistics for the benchmark's samples.

/// The percentiles the tail metric may report, lowest first. The ladder
/// stops at p99: beyond it a run of seconds on a shared two-core host
/// measures scheduler preemptions, not the program.
pub const TAIL_LADDER: [f64; 3] = [50.0, 90.0, 99.0];

/// Samples that must lie strictly beyond the reported tail percentile.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Nearest-rank index of percentile `p` (0–100) in a sorted sample of
/// `n ≥ 1` values: the smallest index whose value covers `p`% of them.
#[must_use]
pub fn nearest_rank(p: f64, n: usize) -> usize {
    assert!(n > 0, "an empty sample has no percentiles");
    // `p · n` first: exact for the ladder's integral percentiles.
    let rank = (p * n as f64 / 100.0).ceil() as usize;
    rank.clamp(1, n) - 1
}

/// Percentile `p` of `values` by nearest rank.
#[must_use]
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[nearest_rank(p, sorted.len())]
}

/// The median, as the mean of the two middle values for an even count
/// (the convention of Python's `statistics.median`).
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "an empty sample has no median");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// The tail of a timing sample: the highest ladder percentile with at
/// least [`TAIL_MIN_BEYOND`] samples strictly beyond its rank.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile reported (one of [`TAIL_LADDER`]).
    pub percentile: f64,
    /// Its value.
    pub value: f64,
    /// Samples ranked beyond it.
    pub beyond: usize,
    /// Sample size.
    pub samples: usize,
}

/// [`Tail`] of `values`, or `None` when even the median has fewer than
/// [`TAIL_MIN_BEYOND`] samples beyond it.
#[must_use]
pub fn tail(values: &[f64]) -> Option<Tail> {
    let n = values.len();
    if n == 0 {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    TAIL_LADDER
        .iter()
        .rev()
        .map(|&p| (p, nearest_rank(p, n)))
        .find(|&(_, rank)| n - 1 - rank >= TAIL_MIN_BEYOND)
        .map(|(percentile, rank)| Tail {
            percentile,
            value: sorted[rank],
            beyond: n - 1 - rank,
            samples: n,
        })
}

/// A stretch of calls whose median runs this many times above the run's
/// quiet floor was slowed by the host, not by the program: on a shared
/// host, other tenants slow whole stretches of 0.1–1 s by ~1.55×.
pub const CONTENTION_RATIO: f64 = 1.25;

/// The samples of `values` taken outside contended stretches.
///
/// `values`, in the order they were taken, are cut into blocks of
/// `block` consecutive samples. The quiet floor is the 10th percentile of
/// the block medians; blocks whose median exceeds [`CONTENTION_RATIO`]
/// times the floor are dropped. A program that gets slower on every call
/// moves the floor with it and keeps every block; so does one whose slow
/// calls are spread through the run, since a block's median ignores a
/// few slow calls.
#[must_use]
pub fn uncontended(values: &[f64], block: usize) -> Vec<f64> {
    let block = block.max(1);
    let medians: Vec<f64> = values.chunks(block).map(median).collect();
    let ceiling = CONTENTION_RATIO * percentile(&medians, 10.0);
    values
        .chunks(block)
        .zip(&medians)
        .filter(|&(_, &m)| m <= ceiling)
        .flat_map(|(chunk, _)| chunk.iter().copied())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Descending, so the functions must sort.
        (1..=n).rev().map(|v| v as f64).collect()
    }

    #[test]
    fn nearest_rank_covers_the_percentile() {
        assert_eq!(nearest_rank(50.0, 1), 0);
        assert_eq!(nearest_rank(50.0, 10), 4);
        assert_eq!(nearest_rank(99.0, 1000), 989);
        assert_eq!(nearest_rank(100.0, 7), 6);
        assert_eq!(nearest_rank(0.0, 7), 0);
    }

    #[test]
    fn p99_needs_a_thousand_samples_for_ten_beyond() {
        // 1000 samples: rank 989, so exactly 10 lie beyond p99.
        let t = tail(&ramp(1000)).unwrap();
        assert_eq!(t.percentile, 99.0);
        assert_eq!(t.beyond, 10);
        assert_eq!(t.value, 990.0);
        // 999 samples: p99's rank is 989 again, leaving only 9 beyond,
        // so the rule falls back to p90.
        let t = tail(&ramp(999)).unwrap();
        assert_eq!(t.percentile, 90.0);
        assert_eq!(t.beyond, 999 - 1 - nearest_rank(90.0, 999));
        assert!(t.beyond >= TAIL_MIN_BEYOND);
    }

    #[test]
    fn p90_and_median_thresholds() {
        // 100 samples: p90 rank 89, 10 beyond.
        assert_eq!(tail(&ramp(100)).unwrap().percentile, 90.0);
        // 99 samples: p90 leaves 9 beyond, the median 49.
        let t = tail(&ramp(99)).unwrap();
        assert_eq!((t.percentile, t.beyond), (50.0, 49));
        // 20 samples: the median (rank 9) has 10 beyond; 19 do not.
        assert_eq!(tail(&ramp(20)).unwrap().beyond, 10);
        assert_eq!(tail(&ramp(19)), None);
        assert_eq!(tail(&[]), None);
    }

    #[test]
    fn the_ladder_stops_at_p99() {
        let t = tail(&ramp(100_000)).unwrap();
        assert_eq!(t.percentile, 99.0);
        assert_eq!(t.beyond, 1000);
    }

    fn steady(n: usize) -> Vec<f64> {
        (0..n).map(|i| 1.0 + (i % 7) as f64 * 0.01).collect()
    }

    #[test]
    fn a_quiet_run_keeps_every_sample() {
        let values = steady(1000);
        assert_eq!(uncontended(&values, 10), values);
    }

    #[test]
    fn contended_stretches_are_dropped() {
        let mut values = steady(1000);
        // Two stretches of 150 calls run 1.55x slower.
        for i in (100..250).chain(600..750) {
            values[i] *= 1.55;
        }
        let quiet = uncontended(&values, 10);
        assert_eq!(quiet.len(), 700);
        assert!(quiet.iter().all(|&v| v < 1.1));
        assert!((median(&quiet) - median(&steady(1000))).abs() < 0.011);
    }

    #[test]
    fn a_slower_program_is_not_filtered() {
        // Every call slower: the floor moves with it.
        let slower: Vec<f64> = steady(1000).iter().map(|v| v * 1.6).collect();
        assert_eq!(uncontended(&slower, 10), slower);
        // One call in five 3x slower, spread through the run: block
        // medians do not move, so every call (and the tail) stays.
        let spiky: Vec<f64> = steady(1000)
            .iter()
            .enumerate()
            .map(|(i, v)| if i % 5 == 0 { v * 3.0 } else { *v })
            .collect();
        assert_eq!(uncontended(&spiky, 10), spiky);
    }

    #[test]
    fn median_matches_the_python_convention() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(percentile(&[4.0, 1.0, 3.0, 2.0], 50.0), 2.0);
    }
}
