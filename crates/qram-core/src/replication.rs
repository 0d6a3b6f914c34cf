//! Epoch-replicated classical memory for a QRAM fleet.
//!
//! A fleet serves reads from `R` replicas of one logical memory. Writes
//! commit at a single *origin* replica and replicate to the others
//! asynchronously, so replicas can transiently diverge. [`ReplicatedMemory`]
//! makes that divergence a first-class, checkable quantity:
//!
//! * every fleet-visible write bumps a monotone **fleet epoch** and lands
//!   in a totally ordered write log;
//! * each replica tracks the **applied epoch** — the log prefix it has
//!   absorbed into its memory through [`ClassicalMemory::write`];
//! * a replica whose applied epoch trails the fleet epoch is **stale**
//!   ([`ReplicatedMemory::is_stale`]); a read dispatched there is
//!   detectably behind and must be flagged, never silently served as
//!   fresh.
//! * each replica keeps a **journal** ([`ReplicatedMemory::journal`]) of
//!   every cell change it applied — replicated log entries, injected
//!   corruption, and the cell diff of a reset — each tagged with the
//!   replica's applied epoch after the step. The base image plus the
//!   entries tagged at most `e` is the replica's final image at epoch
//!   `e`, so one retrieval-order sweep can serve reads of every epoch
//!   without a memory copy per epoch;
//! * every replica starts as the **base image**, which the memory borrows
//!   from its caller ([`ReplicatedMemory::borrowed`]) or owns
//!   ([`ReplicatedMemory::new`]). A replica copies the base only on its
//!   first change — an applied log entry, an injected corruption or a
//!   reset — so a read-only run copies no image at all.
//!
//! The consistency model is deliberately simple and property-testable:
//! the log is a single total order (no concurrent conflicting writes), so
//! two replicas at the same applied epoch hold bit-identical memories, and
//! catching a replica up to the fleet epoch always converges it.

use std::borrow::Cow;

use qsim::branch::ClassicalMemory;

/// One committed fleet write: the log entry replicas replay.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplicatedWrite {
    /// The fleet epoch this write established (1-based: the `e`-th write).
    pub epoch: u64,
    /// The replica the write was applied at synchronously.
    pub origin: usize,
    /// The written global cell address.
    pub address: u64,
    /// The written value.
    pub value: u64,
}

/// One cell change a replica applied, as its journal records it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JournalEntry {
    /// The replica's applied epoch after the step that made the change.
    pub tag: u64,
    /// The changed global cell address.
    pub address: u64,
    /// The cell's new value.
    pub value: u64,
}

/// `R` replicas of one logical [`ClassicalMemory`] under single-order
/// write replication with explicit epochs.
///
/// # Examples
///
/// ```
/// use qram_core::ReplicatedMemory;
/// use qsim::branch::ClassicalMemory;
///
/// let base = ClassicalMemory::from_words(1, &[0; 8])?;
/// let mut fleet = ReplicatedMemory::new(base, 3);
///
/// // A write at replica 1 is immediately visible there ...
/// fleet.write_at(1, 5, 1);
/// assert_eq!(fleet.memory(1).read(5), 1);
/// assert!(!fleet.is_stale(1));
/// // ... while the others are detectably stale until they catch up.
/// assert!(fleet.is_stale(0));
/// assert_eq!(fleet.memory(0).read(5), 0);
/// fleet.catch_up(0);
/// assert_eq!(fleet.memory(0).read(5), 1);
/// assert!(!fleet.is_stale(0));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct ReplicatedMemory<'a> {
    /// The image every replica starts from.
    base: Cow<'a, ClassicalMemory>,
    /// `replicas[r]` = replica `r`'s own image, made from the base at its
    /// first change; `None` while it still reads the base.
    replicas: Vec<Option<ClassicalMemory>>,
    /// `applied[r]` = number of log entries replica `r` has absorbed.
    applied: Vec<u64>,
    /// The totally ordered write log; entry `e − 1` established epoch `e`.
    log: Vec<ReplicatedWrite>,
    /// `journals[r]` = every cell change replica `r` applied, in order,
    /// with non-decreasing tags.
    journals: Vec<Vec<JournalEntry>>,
}

/// Equality is semantic: two replicated memories are equal when every
/// replica's [`ReplicatedMemory::memory`], applied epoch and journal and
/// the write log match, whether or not a replica has copied the base yet.
impl PartialEq for ReplicatedMemory<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.num_replicas() == other.num_replicas()
            && (0..self.num_replicas()).all(|r| self.memory(r) == other.memory(r))
            && self.applied == other.applied
            && self.log == other.log
            && self.journals == other.journals
    }
}

impl ReplicatedMemory<'static> {
    /// `num_replicas` replicas initialized from one base memory, which
    /// the replicated memory owns, all at epoch 0.
    ///
    /// # Panics
    ///
    /// Panics if `num_replicas` is zero.
    #[must_use]
    pub fn new(base: ClassicalMemory, num_replicas: usize) -> Self {
        ReplicatedMemory::with_base(Cow::Owned(base), num_replicas)
    }
}

impl<'a> ReplicatedMemory<'a> {
    /// `num_replicas` replicas initialized from `base`, borrowed: no
    /// replica copies it before its first change. All start at epoch 0.
    ///
    /// # Panics
    ///
    /// Panics if `num_replicas` is zero.
    #[must_use]
    pub fn borrowed(base: &'a ClassicalMemory, num_replicas: usize) -> Self {
        ReplicatedMemory::with_base(Cow::Borrowed(base), num_replicas)
    }

    fn with_base(base: Cow<'a, ClassicalMemory>, num_replicas: usize) -> Self {
        assert!(num_replicas >= 1, "a fleet needs at least one replica");
        ReplicatedMemory {
            base,
            replicas: vec![None; num_replicas],
            applied: vec![0; num_replicas],
            log: Vec::new(),
            journals: vec![Vec::new(); num_replicas],
        }
    }

    /// Number of replicas.
    #[must_use]
    pub fn num_replicas(&self) -> usize {
        self.replicas.len()
    }

    /// The fleet epoch: total writes committed anywhere.
    #[must_use]
    pub fn fleet_epoch(&self) -> u64 {
        self.log.len() as u64
    }

    /// The epoch replica `replica` has applied up to.
    #[must_use]
    pub fn applied_epoch(&self, replica: usize) -> u64 {
        self.applied[replica]
    }

    /// True when `replica` trails the fleet epoch: a read served there
    /// would observe a superseded memory state and must be flagged stale.
    #[must_use]
    pub fn is_stale(&self, replica: usize) -> bool {
        self.applied[replica] < self.fleet_epoch()
    }

    /// Log entries replica `replica` has yet to apply.
    #[must_use]
    pub fn lag(&self, replica: usize) -> u64 {
        self.fleet_epoch() - self.applied[replica]
    }

    /// The committed write log, in epoch order.
    #[must_use]
    pub fn log(&self) -> &[ReplicatedWrite] {
        &self.log
    }

    /// Replica `replica`'s current memory: the base image itself until
    /// the replica's first change.
    #[must_use]
    pub fn memory(&self, replica: usize) -> &ClassicalMemory {
        self.replicas[replica].as_ref().unwrap_or(&self.base)
    }

    /// Replica `replica`'s journal: every cell change it applied since
    /// the memory was made, in order, tagged with non-decreasing applied
    /// epochs. Writing the entries tagged at most `e` over the base image
    /// gives the replica's memory as it last stood at applied epoch `e`;
    /// all of them give [`Self::memory`].
    #[must_use]
    pub fn journal(&self, replica: usize) -> &[JournalEntry] {
        &self.journals[replica]
    }

    /// Commits a write: appends it to the log at the next fleet epoch and
    /// applies it at `origin` synchronously (catching `origin` up through
    /// any earlier entries it had not yet absorbed — the log is applied in
    /// order, never sparsely). Returns the new fleet epoch.
    ///
    /// # Panics
    ///
    /// Panics if `origin` is out of range or `address` exceeds the memory
    /// capacity (via [`ClassicalMemory::write`]).
    pub fn write_at(&mut self, origin: usize, address: u64, value: u64) -> u64 {
        assert!(
            origin < self.replicas.len(),
            "origin replica {origin} out of range (R = {})",
            self.replicas.len()
        );
        let epoch = self.fleet_epoch() + 1;
        self.log.push(ReplicatedWrite {
            epoch,
            origin,
            address,
            value,
        });
        self.catch_up(origin);
        epoch
    }

    /// Applies every committed write replica `replica` has not yet seen,
    /// in epoch order. Returns the number of entries applied (0 when the
    /// replica was already current — catch-up is idempotent).
    pub fn catch_up(&mut self, replica: usize) -> u64 {
        self.catch_up_to(replica, self.fleet_epoch())
    }

    /// Applies committed writes at `replica` up to (and including) epoch
    /// `upto`, in order. Epochs already applied are skipped; `upto` beyond
    /// the fleet epoch is clamped. Returns the number of entries applied.
    pub fn catch_up_to(&mut self, replica: usize, upto: u64) -> u64 {
        let target = upto.min(self.fleet_epoch());
        let from = self.applied[replica];
        if target <= from {
            return 0;
        }
        // The replica's first change copies the base.
        let image =
            self.replicas[replica].get_or_insert_with(|| ClassicalMemory::clone(&self.base));
        for entry in &self.log[from as usize..target as usize] {
            image.write(entry.address, entry.value);
            self.journals[replica].push(JournalEntry {
                tag: target,
                address: entry.address,
                value: entry.value,
            });
        }
        self.applied[replica] = target;
        target - from
    }

    /// Installs an externally recovered memory image at `replica`, as of
    /// `epoch` — the rejoin path for a replica that rebuilt its state
    /// from a durable checkpoint + WAL replay (or a scrub repair that
    /// re-derives a diverged replica from the durable chain). The
    /// replica continues from `epoch` through ordinary catch-up; writes
    /// it had applied before the reset are superseded wholesale. The
    /// journal records the cells where `memory` differs from the
    /// replaced image, in ascending address order.
    ///
    /// # Panics
    ///
    /// Panics if `replica` is out of range, `epoch` exceeds the fleet
    /// epoch (a recovered image cannot be ahead of the committed log) or
    /// trails the replica's applied epoch (a replica never un-applies
    /// the log), or `memory` differs from the replica in capacity or bus
    /// width.
    pub fn reset_replica(&mut self, replica: usize, memory: ClassicalMemory, epoch: u64) {
        assert!(
            epoch <= self.fleet_epoch(),
            "recovered epoch {epoch} is ahead of the fleet epoch {}",
            self.fleet_epoch()
        );
        assert!(
            epoch >= self.applied[replica],
            "recovered epoch {epoch} is behind replica {replica}'s applied epoch {}",
            self.applied[replica]
        );
        let old = self.replicas[replica].as_ref().unwrap_or(&self.base);
        assert!(
            memory.capacity() == old.capacity() && memory.bus_width() == old.bus_width(),
            "a recovered image must match the replica's capacity and bus width"
        );
        let diff = old.differing_cells(&memory).map(|address| JournalEntry {
            tag: epoch,
            address,
            value: memory.read(address),
        });
        self.journals[replica].extend(diff);
        self.replicas[replica] = Some(memory);
        self.applied[replica] = epoch;
    }

    /// Flips the lowest bit of one cell at `replica`, bypassing the write
    /// log — a **fault-injection hook** modeling silent media corruption,
    /// for exercising the anti-entropy scrubber. The replica's applied
    /// epoch is untouched: the divergence is invisible to staleness
    /// tracking and only a scrub's comparison can find it. The journal
    /// records the flip at the applied epoch.
    ///
    /// # Panics
    ///
    /// Panics if `replica` or `address` is out of range.
    pub fn corrupt_replica_cell(&mut self, replica: usize, address: u64) {
        // The replica's first change copies the base.
        let image =
            self.replicas[replica].get_or_insert_with(|| ClassicalMemory::clone(&self.base));
        let flipped = image.read(address) ^ 1;
        image.write(address, flipped);
        self.journals[replica].push(JournalEntry {
            tag: self.applied[replica],
            address,
            value: flipped,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fleet(r: usize) -> ReplicatedMemory<'static> {
        let base = ClassicalMemory::from_words(8, &[0; 16]).unwrap();
        ReplicatedMemory::new(base, r)
    }

    #[test]
    fn writes_bump_the_fleet_epoch_in_order() {
        let mut m = fleet(3);
        assert_eq!(m.fleet_epoch(), 0);
        assert_eq!(m.write_at(0, 1, 1), 1);
        assert_eq!(m.write_at(2, 2, 1), 2);
        assert_eq!(m.write_at(0, 1, 0), 3);
        assert_eq!(m.fleet_epoch(), 3);
        let epochs: Vec<u64> = m.log().iter().map(|w| w.epoch).collect();
        assert_eq!(epochs, vec![1, 2, 3]);
    }

    #[test]
    fn origin_sees_its_write_synchronously_others_lag() {
        let mut m = fleet(3);
        m.write_at(1, 7, 9);
        assert_eq!(m.memory(1).read(7), 9);
        assert!(!m.is_stale(1));
        for r in [0, 2] {
            assert!(m.is_stale(r));
            assert_eq!(m.lag(r), 1);
            assert_eq!(m.memory(r).read(7), 0, "stale replica serves old data");
        }
    }

    #[test]
    fn catch_up_applies_the_log_in_order_and_is_idempotent() {
        let mut m = fleet(2);
        m.write_at(0, 3, 5);
        m.write_at(0, 3, 6); // later write to the same cell wins
        m.write_at(0, 4, 1);
        assert_eq!(m.catch_up(1), 3);
        assert_eq!(m.memory(1).read(3), 6);
        assert_eq!(m.memory(1).read(4), 1);
        assert_eq!(m.catch_up(1), 0, "idempotent");
        assert_eq!(m.memory(0), m.memory(1));
    }

    #[test]
    fn partial_catch_up_stops_at_the_requested_epoch() {
        let mut m = fleet(2);
        m.write_at(0, 1, 1);
        m.write_at(0, 2, 2);
        m.write_at(0, 3, 3);
        assert_eq!(m.catch_up_to(1, 2), 2);
        assert_eq!(m.applied_epoch(1), 2);
        assert!(m.is_stale(1));
        assert_eq!(m.memory(1).read(2), 2);
        assert_eq!(m.memory(1).read(3), 0);
        // Clamped beyond the fleet epoch; converges exactly.
        assert_eq!(m.catch_up_to(1, 99), 1);
        assert!(!m.is_stale(1));
        assert_eq!(m.memory(0), m.memory(1));
    }

    #[test]
    fn interleaved_origins_converge_to_one_total_order() {
        let mut m = fleet(4);
        // Writes from different origins race on the same cell; the log
        // order (commit order) decides, everywhere.
        m.write_at(0, 5, 10);
        m.write_at(3, 5, 11);
        m.write_at(1, 5, 12);
        for r in 0..4 {
            m.catch_up(r);
            assert_eq!(m.memory(r).read(5), 12);
            assert!(!m.is_stale(r));
        }
        for r in 1..4 {
            assert_eq!(m.memory(0), m.memory(r), "replica {r} diverged");
        }
    }

    #[test]
    fn equal_applied_epochs_mean_equal_memories() {
        let mut m = fleet(3);
        for i in 0..10u64 {
            m.write_at((i % 3) as usize, i % 16, i * i);
            let e = m.applied_epoch(2);
            m.catch_up_to(0, e);
            if m.applied_epoch(0) == m.applied_epoch(2) {
                assert_eq!(m.memory(0), m.memory(2));
            }
        }
    }

    #[test]
    fn lag_larger_than_any_single_replication_step_still_converges() {
        // A replica that slept through many epochs: one ordered prefix
        // replay converges it.
        let mut m = fleet(2);
        for i in 0..12u64 {
            m.write_at(0, i % 16, i + 1);
        }
        assert_eq!(m.lag(1), 12);
        // Requesting far more than the log holds clamps to the log.
        assert_eq!(m.catch_up_to(1, 1_000), 12);
        assert_eq!(m.lag(1), 0);
        assert_eq!(m.memory(0), m.memory(1));
    }

    #[test]
    fn multi_epoch_backlog_drains_in_one_catch_up_step() {
        // Several epochs behind, caught up in a single call: the replica
        // lands exactly at the fleet epoch with the last-writer value.
        let mut m = fleet(3);
        m.write_at(0, 5, 1);
        m.write_at(0, 5, 2);
        m.write_at(0, 5, 3);
        m.write_at(0, 9, 4);
        assert_eq!(m.applied_epoch(2), 0);
        assert_eq!(m.catch_up(2), 4, "all four epochs in one step");
        assert_eq!(m.applied_epoch(2), 4);
        assert_eq!(m.memory(2).read(5), 3);
        assert_eq!(m.memory(2).read(9), 4);
    }

    #[test]
    fn reset_replica_installs_a_recovered_image() {
        let mut m = fleet(2);
        m.write_at(0, 1, 7);
        m.write_at(0, 2, 9);
        // Replica 1 "restarts" with a disk image as of epoch 1.
        let mut image = ClassicalMemory::from_words(8, &[0; 16]).unwrap();
        image.write(1, 7);
        m.reset_replica(1, image, 1);
        assert_eq!(m.applied_epoch(1), 1);
        assert!(m.is_stale(1));
        // Ordinary catch-up replays the non-durable suffix and converges.
        assert_eq!(m.catch_up(1), 1);
        assert_eq!(m.memory(0), m.memory(1));
    }

    #[test]
    #[should_panic(expected = "ahead of the fleet epoch")]
    fn reset_replica_cannot_outrun_the_log() {
        let mut m = fleet(2);
        m.write_at(0, 1, 1);
        m.reset_replica(1, ClassicalMemory::from_words(8, &[0; 16]).unwrap(), 5);
    }

    #[test]
    #[should_panic(expected = "behind replica 0's applied epoch")]
    fn reset_replica_cannot_unapply_the_log() {
        let mut m = fleet(2);
        m.write_at(0, 1, 1);
        m.reset_replica(0, ClassicalMemory::from_words(8, &[0; 16]).unwrap(), 0);
    }

    /// Random steps of every kind that changes a replica: at every step
    /// each replica's journal has non-decreasing tags and replays over
    /// the base image to its memory, and at the end the entries tagged
    /// at most `e` replay to the image the replica last held at applied
    /// epoch `e`, for every epoch it passed through.
    #[test]
    fn journal_replays_every_replica_image() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        use std::collections::BTreeMap;

        let replay = |base: &ClassicalMemory, journal: &[JournalEntry], upto: u64| {
            let mut image = base.clone();
            for e in journal.iter().filter(|e| e.tag <= upto) {
                image.write(e.address, e.value);
            }
            image
        };
        for seed in 0..16u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let replicas = 1 + (seed as usize % 4);
            let words: Vec<u64> = (0..16).map(|i| i * 37 % 256).collect();
            let base = ClassicalMemory::from_words(8, &words).unwrap();
            let mut m = ReplicatedMemory::new(base.clone(), replicas);
            let mut finals: Vec<BTreeMap<u64, ClassicalMemory>> = vec![BTreeMap::new(); replicas];
            for step in 0..300 {
                let r = rng.random_range(0..replicas);
                match rng.random_range(0..5u32) {
                    0 => {
                        m.write_at(r, rng.random_range(0..16u64), rng.random_range(0..256u64));
                    }
                    1 => {
                        let upto = rng.random_range(0..=m.fleet_epoch());
                        m.catch_up_to(r, upto);
                    }
                    2 => {
                        m.catch_up(r);
                    }
                    3 => m.corrupt_replica_cell(r, rng.random_range(0..16u64)),
                    _ => {
                        // As the fleet does: a recovered image at an epoch
                        // between the replica's applied epoch and the
                        // fleet epoch, sometimes itself off the log.
                        let epoch = rng.random_range(m.applied_epoch(r)..=m.fleet_epoch());
                        let mut image = base.clone();
                        for w in &m.log()[..epoch as usize] {
                            image.write(w.address, w.value);
                        }
                        if rng.random_bool(0.5) {
                            image.write(rng.random_range(0..16u64), rng.random_range(0..256u64));
                        }
                        m.reset_replica(r, image, epoch);
                    }
                }
                for (r, finals) in finals.iter_mut().enumerate() {
                    let journal = m.journal(r);
                    assert!(
                        journal.windows(2).all(|w| w[0].tag <= w[1].tag),
                        "seed {seed}, step {step}: replica {r}'s tags decrease"
                    );
                    assert_eq!(
                        &replay(&base, journal, m.applied_epoch(r)),
                        m.memory(r),
                        "seed {seed}, step {step}, replica {r}"
                    );
                    finals.insert(m.applied_epoch(r), m.memory(r).clone());
                }
            }
            for (r, finals) in finals.iter().enumerate() {
                for (&epoch, image) in finals {
                    assert_eq!(
                        &replay(&base, m.journal(r), epoch),
                        image,
                        "seed {seed}, replica {r}, epoch {epoch}"
                    );
                }
            }
        }
    }

    fn words() -> ClassicalMemory {
        let words: Vec<u64> = (0..16).map(|i| i * 37 % 256).collect();
        ClassicalMemory::from_words(8, &words).unwrap()
    }

    /// Which replicas hold an image of their own rather than the base.
    fn copied(m: &ReplicatedMemory<'_>, base: &ClassicalMemory) -> Vec<bool> {
        (0..m.num_replicas())
            .map(|r| m.memory(r).words().as_ptr() != base.words().as_ptr())
            .collect()
    }

    #[test]
    fn an_unchanged_replica_reads_the_base_buffer() {
        let base = words();
        let mut m = ReplicatedMemory::borrowed(&base, 3);
        assert_eq!(copied(&m, &base), [false; 3]);
        // Catch-ups with nothing to apply change nothing.
        assert_eq!(m.catch_up(1), 0);
        m.write_at(0, 3, 1);
        assert_eq!(m.catch_up_to(2, 0), 0);
        assert_eq!(copied(&m, &base), [true, false, false]);
        assert_eq!(m.memory(1), &base);
    }

    #[test]
    fn each_first_change_copies_only_the_replica_it_touches() {
        let base = words();
        let fresh = || ReplicatedMemory::borrowed(&base, 3);

        let mut m = fresh();
        m.write_at(1, 3, 1);
        assert_eq!(copied(&m, &base), [false, true, false], "write_at");

        let mut m = fresh();
        m.write_at(0, 3, 1);
        assert_eq!(m.catch_up_to(2, 1), 1);
        assert_eq!(copied(&m, &base), [true, false, true], "catch_up_to");
        assert_eq!(m.memory(2).read(3), 1);

        let mut m = fresh();
        m.corrupt_replica_cell(1, 3);
        assert_eq!(copied(&m, &base), [false, true, false], "corrupt");
        assert_eq!(m.memory(1).read(3), base.read(3) ^ 1);

        let mut m = fresh();
        m.reset_replica(1, base.clone(), 0);
        assert_eq!(copied(&m, &base), [false, true, false], "reset");

        // The base itself never changes.
        assert_eq!(base, words());
    }

    #[test]
    fn a_reset_of_an_uncopied_replica_journals_its_diff_against_the_base() {
        let base = words();
        let mut m = ReplicatedMemory::borrowed(&base, 3);
        m.write_at(0, 9, 1);
        let mut image = base.clone();
        image.write(2, 200);
        image.write(5, 201);
        image.write(7, base.read(7)); // unchanged: not journaled
        m.reset_replica(2, image.clone(), 1);
        let entry = |address, value| JournalEntry {
            tag: 1,
            address,
            value,
        };
        assert_eq!(m.journal(2), [entry(2, 200), entry(5, 201)]);
        assert_eq!(m.memory(2), &image);
        assert!(m.journal(1).is_empty());
    }

    #[test]
    fn memories_that_differ_only_in_copying_compare_equal() {
        let base = words();
        let uncopied = ReplicatedMemory::borrowed(&base, 2);
        let mut copied_one = ReplicatedMemory::borrowed(&base, 2);
        // A reset to the base image copies replica 1 and journals nothing.
        copied_one.reset_replica(1, base.clone(), 0);
        assert_eq!(copied(&copied_one, &base), [false, true]);
        assert_eq!(uncopied, copied_one);
        assert_eq!(ReplicatedMemory::new(base.clone(), 2), uncopied);
        copied_one.corrupt_replica_cell(1, 4);
        assert_ne!(uncopied, copied_one);
    }

    #[test]
    fn corrupt_replica_cell_diverges_silently() {
        let mut m = fleet(2);
        m.write_at(0, 3, 4);
        m.catch_up(1);
        m.corrupt_replica_cell(1, 3);
        assert_eq!(m.memory(1).read(3), 5, "low bit flipped");
        assert!(!m.is_stale(1), "staleness tracking cannot see corruption");
        assert_ne!(m.memory(0), m.memory(1));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_origin_rejected() {
        let mut m = fleet(2);
        m.write_at(2, 0, 1);
    }

    #[test]
    #[should_panic(expected = "at least one replica")]
    fn zero_replicas_rejected() {
        let base = ClassicalMemory::zeros(8);
        let _ = ReplicatedMemory::new(base, 0);
    }
}
