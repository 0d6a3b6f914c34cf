//! Integrity counters for a durable, self-auditing serving fleet.
//!
//! Where [`AvailabilityCounters`](crate::AvailabilityCounters) account
//! for what the fault-*tolerance* machinery did (retries, failovers,
//! rejoins), [`IntegrityCounters`] account for what the fault-*auditing*
//! machinery did: how often the anti-entropy scrubber ran, how many
//! memory chunks it compared with the durable chain, how many
//! diverged, and how many repairs — replica image resets and re-appended
//! write-ahead-log tails — it performed. A report with non-zero
//! `mismatches` and matching `repairs` is a run where silent corruption
//! happened *and was driven back out*; a report with zero everything is
//! a run the scrubber certified clean.

use std::fmt;

/// Monotone counters describing the durability and anti-entropy work of
/// one serving run.
///
/// # Examples
///
/// ```
/// use qram_metrics::IntegrityCounters;
///
/// let mut counters = IntegrityCounters::default();
/// counters.scrub_cycles += 1;
/// counters.chunks_verified += 64;
/// assert!(counters.clean(), "verified chunks alone are not divergence");
/// counters.mismatches += 1;
/// counters.repairs += 1;
/// assert!(!counters.clean());
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IntegrityCounters {
    /// Anti-entropy scrub passes completed (scheduled ticks plus the
    /// final end-of-run sweep).
    pub scrub_cycles: u64,
    /// Per-replica memory chunks compared cell for cell with the
    /// durable chain's expected image.
    pub chunks_verified: u64,
    /// Compared chunks that differed from the durable chain's image:
    /// one per distinct dirty chunk, however many of its cells differ.
    pub mismatches: u64,
    /// Repair actions taken: diverged replica images re-derived from the
    /// durable chain, and lost acknowledged WAL epochs re-appended.
    pub repairs: u64,
    /// Torn or corrupt WAL tails truncated by a scrub's disk audit.
    pub torn_tails_truncated: u64,
    /// Write-ahead-log records appended (one per durable fleet epoch,
    /// plus any re-appends after a tail truncation).
    pub wal_appends: u64,
    /// Commit-group syncs: durability barriers actually paid. Under
    /// per-record commit this equals `wal_appends`; under group commit
    /// the gap between the two is the fsyncs saved.
    pub wal_syncs: u64,
    /// Largest commit group landed by a single sync.
    pub max_group_records: u64,
    /// Full checkpoint images installed (each compacts the WAL behind
    /// it and folds any delta chain).
    pub checkpoints: u64,
    /// Incremental delta checkpoints installed (each also compacts the
    /// WAL, but writes only the cells dirtied since the last one).
    pub delta_checkpoints: u64,
    /// Length of the delta chain at end of run — a gauge, not a
    /// counter. `None` when no checkpoint work ran at all, which is
    /// *not* the same as a chain of zero deltas (that means a full
    /// image is installed and current).
    pub delta_chain_len: Option<u64>,
}

impl IntegrityCounters {
    /// True when no divergence was observed and nothing needed repair —
    /// the scrubber's clean bill of health (vacuously true when no
    /// scrubbing ran).
    #[must_use]
    pub fn clean(&self) -> bool {
        self.mismatches == 0 && self.repairs == 0 && self.torn_tails_truncated == 0
    }
}

impl fmt::Display for IntegrityCounters {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "scrubs={} chunks={} mismatches={} repairs={} torn_tails={} wal_appends={} \
             wal_syncs={} max_group={} checkpoints={} deltas={} chain=",
            self.scrub_cycles,
            self.chunks_verified,
            self.mismatches,
            self.repairs,
            self.torn_tails_truncated,
            self.wal_appends,
            self.wal_syncs,
            self.max_group_records,
            self.checkpoints,
            self.delta_checkpoints,
        )?;
        // A run that never checkpointed has no chain to speak of — `-`
        // rather than a `0` that would read as "full image, current".
        match self.delta_chain_len {
            Some(len) => write!(f, "{len}"),
            None => write!(f, "-"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_tracks_divergence_not_activity() {
        let mut c = IntegrityCounters::default();
        assert!(c.clean(), "an idle run is clean");
        c.scrub_cycles = 5;
        c.chunks_verified = 500;
        c.wal_appends = 40;
        c.checkpoints = 2;
        assert!(c.clean(), "activity without divergence stays clean");
        c.torn_tails_truncated = 1;
        assert!(!c.clean(), "a truncated tail is a divergence event");
    }

    #[test]
    fn display_summarizes_the_ledger() {
        let c = IntegrityCounters {
            scrub_cycles: 3,
            chunks_verified: 96,
            mismatches: 2,
            repairs: 2,
            wal_syncs: 7,
            max_group_records: 32,
            delta_checkpoints: 4,
            ..Default::default()
        };
        let shown = c.to_string();
        assert!(shown.contains("scrubs=3"));
        assert!(shown.contains("chunks=96"));
        assert!(shown.contains("mismatches=2"));
        assert!(shown.contains("repairs=2"));
        assert!(shown.contains("wal_syncs=7"));
        assert!(shown.contains("max_group=32"));
        assert!(shown.contains("deltas=4"));
    }

    #[test]
    fn a_chainless_run_reports_dash_not_zero() {
        // No checkpoint ever ran: a 0 here would claim "full image,
        // current" — the zero-state lie this field exists to avoid.
        let none = IntegrityCounters::default();
        assert!(none.to_string().ends_with("chain=-"));
        let zero = IntegrityCounters {
            checkpoints: 1,
            delta_chain_len: Some(0),
            ..Default::default()
        };
        assert!(zero.to_string().ends_with("chain=0"));
        let some = IntegrityCounters {
            delta_checkpoints: 2,
            delta_chain_len: Some(2),
            ..Default::default()
        };
        assert!(some.to_string().ends_with("chain=2"));
    }
}
