//! The durable fleet store: WAL + checkpoint lifecycle and recovery.
//!
//! [`DurableFleet`] owns a store directory and maintains one invariant:
//! *the directory always recovers to exactly the acknowledged write
//! prefix*. It keeps a **shadow memory** — the checkpoint image plus
//! every synced write — so checkpoints are taken from the durable
//! chain itself, never from a live replica that might have silently
//! diverged (the scrubber's job is to catch exactly that divergence, so
//! the durable chain must not inherit it).
//!
//! Lifecycle:
//!
//! 1. [`DurableFleet::create`] anchors a fresh directory with a
//!    checkpoint of the base memory at epoch 0.
//! 2. [`DurableFleet::append`] buffers each fleet epoch into the open
//!    commit group; the group lands as one WAL append + one sync (the
//!    **acknowledgment point**) when it reaches
//!    [`GroupCommitPolicy::max_records`] or the caller forces
//!    [`DurableFleet::flush`] (the fleet arms a virtual-time deadline
//!    for that). Under the default per-record policy every append lands
//!    as one WAL append and one sync before it returns.
//! 3. Every [`CheckpointPolicy::every`] synced records, a checkpoint is
//!    installed — a full image, or a [`checkpoint::Delta`] of just the
//!    cells written since the last one when
//!    [`CheckpointPolicy::max_chain`] allows — and the WAL compacts
//!    behind it. Past `max_chain` deltas, the chain folds into a fresh
//!    base image.
//! 4. [`DurableFleet::recover`] (or [`DurableFleet::open`]) rebuilds
//!    state from any crash debris through one loader: load the base
//!    image, replay the delta chain (sweeping stale fold debris), scan
//!    the WAL streaming (truncating torn/corrupt tails), skip entries
//!    the checkpoint chain already absorbed, replay the rest. `open`
//!    replays onto a copy, since a live store keeps the checkpoint
//!    image for [`DurableFleet::state_at`]; `recover` keeps no image
//!    beside the state, so it replays onto the loaded image itself.
//!    Buffered-but-unsynced records are exactly the writes a crash may
//!    lose — they were never acknowledged.
//! 5. [`DurableFleet::rescan`] re-reads the WAL underneath a live store
//!    — the anti-entropy primitive that notices a lying disk (torn
//!    write acknowledged but not persisted) and rolls the durable
//!    watermark back so the caller can re-append from the fleet log.
//!    Its scan buffers live in the store, so an audit that finds the
//!    disk as the store left it allocates nothing.

use std::collections::BTreeMap;

use qsim::branch::ClassicalMemory;

use super::checkpoint;
use super::dir::Dir;
use super::wal::{self, GroupCommitPolicy, WalScan};
use super::StoreError;
use crate::replication::ReplicatedWrite;

/// How often the store installs a checkpoint (after `every` synced WAL
/// records since the last one) and how it is allowed to shape them:
/// `max_chain = 0` means every checkpoint is a full image; `max_chain =
/// N` lets up to `N` incremental deltas chain off a base image before
/// the chain folds into a fresh base.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckpointPolicy {
    /// Synced records between automatic checkpoints; `0` = never.
    pub every: u64,
    /// Longest allowed delta chain before folding; `0` = full images
    /// only.
    pub max_chain: usize,
}

impl CheckpointPolicy {
    /// Full-image checkpoint every `every` records (`0` = never).
    #[must_use]
    pub fn every(every: u64) -> Self {
        CheckpointPolicy {
            every,
            max_chain: 0,
        }
    }

    /// Delta checkpoint every `every` records, folding to a fresh base
    /// image after `max_chain` deltas.
    #[must_use]
    pub fn deltas(every: u64, max_chain: usize) -> Self {
        CheckpointPolicy { every, max_chain }
    }

    /// No automatic checkpoints; the WAL grows unboundedly.
    #[must_use]
    pub fn never() -> Self {
        CheckpointPolicy {
            every: 0,
            max_chain: 0,
        }
    }
}

impl Default for CheckpointPolicy {
    fn default() -> Self {
        CheckpointPolicy {
            every: 64,
            max_chain: 0,
        }
    }
}

/// What a sync made durable: returned by [`DurableFleet::append`] and
/// [`DurableFleet::flush`] so the caller knows which acknowledgments to
/// release and what checkpoint work happened underneath.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SyncSummary {
    /// Records the commit-group sync just made durable (and therefore
    /// acknowledged). `0` when the call only buffered.
    pub synced_records: usize,
    /// Whether a checkpoint (full or delta) was installed.
    pub checkpointed: bool,
    /// Whether that checkpoint was an incremental delta.
    pub delta: bool,
}

/// Fleet state rebuilt from a store directory by
/// [`DurableFleet::recover`]: everything a restarted replica needs to
/// rejoin without the in-memory log.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveredState {
    /// The memory image at [`RecoveredState::epoch`].
    pub memory: ClassicalMemory,
    /// The durable fleet epoch: checkpoint watermark + replayed WAL.
    pub epoch: u64,
    /// The epoch the recovered checkpoint chain reaches (base image
    /// plus replayed deltas).
    pub checkpoint_epoch: u64,
    /// Length of the delta chain replayed onto the base image.
    pub delta_chain: usize,
    /// The WAL writes replayed on top of the checkpoint, in epoch order.
    pub writes: Vec<ReplicatedWrite>,
    /// Torn/corrupt WAL tail bytes truncated during recovery (crash
    /// debris from an unacknowledged write; never part of the durable
    /// prefix).
    pub truncated_bytes: usize,
}

/// Summary of a [`DurableFleet::rescan`] pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RescanSummary {
    /// Torn/corrupt tail bytes truncated from the on-disk WAL.
    pub truncated_bytes: usize,
    /// Acknowledged epochs the disk lost (durable watermark rollback);
    /// the caller re-appends them from the fleet's in-memory log.
    pub lost_epochs: u64,
}

/// A crash-consistent store for one fleet's replicated write stream.
#[derive(Debug)]
pub struct DurableFleet {
    dir: Box<dyn Dir>,
    policy: CheckpointPolicy,
    group: GroupCommitPolicy,
    /// Watermark of the installed checkpoint chain (base + deltas).
    checkpoint_epoch: u64,
    /// Cached image of the checkpoint chain at `checkpoint_epoch`.
    checkpoint_image: ClassicalMemory,
    /// Installed deltas since the last base image.
    chain_len: usize,
    /// Synced WAL entries after the checkpoint: epochs
    /// `checkpoint_epoch + 1 ..= durable_epoch()`, in order.
    suffix: Vec<ReplicatedWrite>,
    /// The open commit group: buffered, NOT yet durable, NOT yet
    /// acknowledged.
    pending: Vec<ReplicatedWrite>,
    /// The open group's records, pre-framed into one reusable buffer so
    /// the flush is a single byte-stream append.
    pending_frames: Vec<u8>,
    /// `checkpoint_image` + `suffix` applied: the durable chain's own
    /// view of memory at the durable epoch.
    shadow: ClassicalMemory,
    /// The disk audit's WAL scan buffers, kept between rescans.
    scan: WalScan,
}

/// A store directory as crash repair leaves it: the checkpoint chain's
/// image and watermark, and the WAL records past the watermark. What
/// [`DurableFleet::open`] and [`DurableFleet::recover`] both start from.
struct Loaded {
    dir: Box<dyn Dir>,
    image: ClassicalMemory,
    checkpoint_epoch: u64,
    chain_len: usize,
    scan: WalScan,
}

impl DurableFleet {
    /// Anchors a fresh store: installs `base` as the epoch-0 checkpoint
    /// and clears any leftover WAL and delta chain, under the default
    /// policy.
    ///
    /// # Errors
    /// [`StoreError::Io`] when the directory fails.
    pub fn create(dir: Box<dyn Dir>, base: &ClassicalMemory) -> Result<Self, StoreError> {
        Self::create_with(dir, base, CheckpointPolicy::default())
    }

    /// [`DurableFleet::create`] with an explicit checkpoint policy.
    ///
    /// # Errors
    /// [`StoreError::Io`] when the directory fails.
    pub fn create_with(
        mut dir: Box<dyn Dir>,
        base: &ClassicalMemory,
        policy: CheckpointPolicy,
    ) -> Result<Self, StoreError> {
        checkpoint::install(dir.as_mut(), base, 0)?;
        let mut stale = 1;
        while dir.exists(&checkpoint::delta_file(stale)) {
            dir.remove(&checkpoint::delta_file(stale))?;
            stale += 1;
        }
        dir.remove(checkpoint::DELTA_TMP)?;
        dir.remove(wal::WAL_FILE)?;
        dir.remove(wal::WAL_TMP)?;
        dir.sync()?;
        Ok(DurableFleet {
            dir,
            policy,
            group: GroupCommitPolicy::per_record(),
            checkpoint_epoch: 0,
            checkpoint_image: base.clone(),
            chain_len: 0,
            suffix: Vec::new(),
            pending: Vec::new(),
            pending_frames: Vec::new(),
            shadow: base.clone(),
            scan: WalScan::default(),
        })
    }

    /// Sets the commit-group policy, builder style.
    #[must_use]
    pub fn with_group_commit(mut self, group: GroupCommitPolicy) -> Self {
        self.group = group;
        self
    }

    /// Opens an existing store, repairing crash debris: leftover scratch
    /// files are removed, stale delta-chain prefixes swept, torn/corrupt
    /// WAL tails truncated, and WAL entries the checkpoint chain already
    /// absorbed skipped.
    ///
    /// # Errors
    /// [`StoreError::MissingCheckpoint`] when the directory was never
    /// [`DurableFleet::create`]d, [`StoreError::CorruptCheckpoint`] when
    /// the installed image or a chained delta fails its CRC (detected,
    /// never replayed) or a delta or WAL cell write does not fit the
    /// image, [`StoreError::NonContiguousEpoch`] when the WAL
    /// starts past the checkpoint watermark (acknowledged epochs are
    /// unrecoverable), or [`StoreError::Io`].
    pub fn open(dir: Box<dyn Dir>, policy: CheckpointPolicy) -> Result<Self, StoreError> {
        let Loaded {
            dir,
            image,
            checkpoint_epoch,
            chain_len,
            mut scan,
        } = Self::load(dir)?;
        let mut shadow = image.clone();
        replay(&mut shadow, &scan.writes)?;
        Ok(DurableFleet {
            dir,
            policy,
            group: GroupCommitPolicy::per_record(),
            checkpoint_epoch,
            checkpoint_image: image,
            chain_len,
            suffix: std::mem::take(&mut scan.writes),
            pending: Vec::new(),
            pending_frames: Vec::new(),
            shadow,
            scan,
        })
    }

    /// Rebuilds fleet state from a store directory: checkpoint chain +
    /// WAL replay. The one-call recovery path a restarted replica uses
    /// to rejoin from disk instead of the in-memory log. Nothing keeps
    /// the checkpoint image afterwards, so the WAL replays onto the
    /// loaded image in place: one image-sized buffer for the cells.
    ///
    /// # Errors
    /// As [`DurableFleet::open`].
    pub fn recover(dir: Box<dyn Dir>) -> Result<RecoveredState, StoreError> {
        let Loaded {
            mut image,
            checkpoint_epoch,
            chain_len,
            scan,
            ..
        } = Self::load(dir)?;
        replay(&mut image, &scan.writes)?;
        Ok(RecoveredState {
            memory: image,
            epoch: checkpoint_epoch + scan.writes.len() as u64,
            checkpoint_epoch,
            delta_chain: chain_len,
            writes: scan.writes,
            truncated_bytes: scan.truncated_bytes,
        })
    }

    /// The one loader behind `open` and `recover`: repairs crash debris
    /// and reads the checkpoint chain and the WAL records past it.
    fn load(mut dir: Box<dyn Dir>) -> Result<Loaded, StoreError> {
        // Scratch files are pre-crash debris: an install that never
        // reached its rename. The authoritative files win.
        dir.remove(checkpoint::CHECKPOINT_TMP)?;
        dir.remove(checkpoint::DELTA_TMP)?;
        dir.remove(wal::WAL_TMP)?;
        let (image, checkpoint_epoch, chain_len) =
            checkpoint::load_chain(dir.as_mut())?.ok_or(StoreError::MissingCheckpoint)?;
        // A crash between checkpoint install and WAL compaction leaves
        // absorbed entries at the log head; the scan skips them.
        let mut scan = WalScan::default();
        wal::load(dir.as_mut(), checkpoint_epoch, &mut scan)?;
        if let Some(first) = scan.writes.first() {
            if first.epoch != checkpoint_epoch + 1 {
                return Err(StoreError::NonContiguousEpoch {
                    expected: checkpoint_epoch + 1,
                    found: first.epoch,
                });
            }
        }
        Ok(Loaded {
            dir,
            image,
            checkpoint_epoch,
            chain_len,
            scan,
        })
    }

    /// The durable fleet epoch: every epoch at or below it is synced and
    /// acknowledged on stable storage (as far as the store knows — see
    /// [`DurableFleet::rescan`] for the lying-disk audit). Buffered
    /// records in the open commit group are *above* this watermark.
    #[must_use]
    pub fn durable_epoch(&self) -> u64 {
        self.checkpoint_epoch + self.suffix.len() as u64
    }

    /// The tail epoch including the open commit group: the epoch the
    /// next append must extend by one.
    #[must_use]
    pub fn tail_epoch(&self) -> u64 {
        self.durable_epoch() + self.pending.len() as u64
    }

    /// Records buffered in the open commit group — accepted but not yet
    /// durable or acknowledged.
    #[must_use]
    pub fn pending_records(&self) -> usize {
        self.pending.len()
    }

    /// The active commit-group policy.
    #[must_use]
    pub fn group_commit(&self) -> GroupCommitPolicy {
        self.group
    }

    /// Replaces the commit-group policy. Takes effect on the next
    /// append: a shrunken `max_records` flushes the (now oversized)
    /// open group when the next record arrives.
    pub fn set_group_commit(&mut self, group: GroupCommitPolicy) {
        self.group = group;
    }

    /// The epoch of the installed checkpoint chain (base + deltas).
    #[must_use]
    pub fn checkpoint_epoch(&self) -> u64 {
        self.checkpoint_epoch
    }

    /// Deltas installed since the last full base image.
    #[must_use]
    pub fn delta_chain_len(&self) -> usize {
        self.chain_len
    }

    /// The synced WAL suffix after the checkpoint, in epoch order.
    #[must_use]
    pub fn suffix(&self) -> &[ReplicatedWrite] {
        &self.suffix
    }

    /// The durable chain's memory image at [`DurableFleet::durable_epoch`].
    #[must_use]
    pub fn shadow(&self) -> &ClassicalMemory {
        &self.shadow
    }

    /// Rebuilds the durable chain's memory image at `epoch` into `image`,
    /// reusing its cell buffer, and returns true; or returns false and
    /// leaves `image` untouched when the epoch predates the checkpoint
    /// (compacted away) or exceeds the durable watermark. This is the
    /// scrubber's expected state.
    #[must_use]
    pub fn state_at(&self, epoch: u64, image: &mut ClassicalMemory) -> bool {
        if epoch < self.checkpoint_epoch || epoch > self.durable_epoch() {
            return false;
        }
        image.clone_from(&self.checkpoint_image);
        for w in self.suffix.iter().take_while(|w| w.epoch <= epoch) {
            image.write(w.address, w.value);
        }
        true
    }

    /// Accepts one fleet write into the open commit group. The group —
    /// and with it this record's acknowledgment — lands when it reaches
    /// [`GroupCommitPolicy::max_records`] (one append + one sync for
    /// the whole group), or when the caller forces
    /// [`DurableFleet::flush`] on its deadline. Under the default
    /// per-record policy the group is the record: one append and one
    /// sync before this returns.
    ///
    /// # Errors
    /// [`StoreError::NonContiguousEpoch`] when `w.epoch` does not extend
    /// the tail (synced + buffered) by one, or [`StoreError::Io`].
    pub fn append(&mut self, w: &ReplicatedWrite) -> Result<SyncSummary, StoreError> {
        let expected = self.tail_epoch() + 1;
        if w.epoch != expected {
            return Err(StoreError::NonContiguousEpoch {
                expected,
                found: w.epoch,
            });
        }
        wal::encode_frame_into(&mut self.pending_frames, w);
        self.pending.push(*w);
        if self.pending.len() >= self.group.max_records.max(1) {
            return self.flush();
        }
        Ok(SyncSummary::default())
    }

    /// Lands the open commit group (one append + one sync — the
    /// acknowledgment point for every record in it), then installs a
    /// checkpoint if the synced suffix crossed the policy interval. The
    /// fleet calls this on the group's virtual-time deadline; with an
    /// empty group it touches nothing.
    ///
    /// # Errors
    /// [`StoreError::Io`] when the directory fails.
    pub fn flush(&mut self) -> Result<SyncSummary, StoreError> {
        let synced_records = self.flush_records()?;
        let mut summary = SyncSummary {
            synced_records,
            ..SyncSummary::default()
        };
        if self.policy.every > 0 && self.suffix.len() as u64 >= self.policy.every {
            summary.delta = self.install_checkpoint()?;
            summary.checkpointed = true;
        }
        Ok(summary)
    }

    /// Appends + syncs the open group, draining it into the synced
    /// suffix and shadow. Returns how many records became durable.
    fn flush_records(&mut self) -> Result<usize, StoreError> {
        if self.pending.is_empty() {
            return Ok(0);
        }
        wal::append_group(self.dir.as_mut(), &self.pending_frames)?;
        let n = self.pending.len();
        for w in self.pending.drain(..) {
            self.shadow.write(w.address, w.value);
            self.suffix.push(w);
        }
        self.pending_frames.clear();
        Ok(n)
    }

    /// Flushes the open group, then installs a checkpoint of the
    /// durable chain at the durable epoch and compacts the WAL behind
    /// it. A no-op when nothing was written since the last checkpoint.
    ///
    /// # Errors
    /// [`StoreError::Io`] when the directory fails.
    pub fn checkpoint(&mut self) -> Result<(), StoreError> {
        self.flush_records()?;
        if self.suffix.is_empty() {
            return Ok(());
        }
        self.install_checkpoint()?;
        Ok(())
    }

    /// Installs a checkpoint at the durable epoch — an incremental
    /// delta while the policy's chain allows, else a full image (which
    /// folds any existing chain) — then compacts the WAL behind it.
    /// Returns whether a delta was installed. Caller guarantees the
    /// suffix is non-empty (a delta must advance its base epoch).
    fn install_checkpoint(&mut self) -> Result<bool, StoreError> {
        let watermark = self.checkpoint_epoch + self.suffix.len() as u64;
        let as_delta = self.policy.max_chain > 0 && self.chain_len < self.policy.max_chain;
        if as_delta {
            // Last write wins per cell; BTreeMap keeps addresses sorted
            // so equal states encode to equal bytes.
            let cells: BTreeMap<u64, u64> =
                self.suffix.iter().map(|w| (w.address, w.value)).collect();
            let delta = checkpoint::Delta {
                base_epoch: self.checkpoint_epoch,
                epoch: watermark,
                cells: cells.into_iter().collect(),
            };
            checkpoint::install_delta(self.dir.as_mut(), self.chain_len + 1, &delta)?;
            self.chain_len += 1;
        } else {
            // Fold: the fresh base supersedes the chain. Install first,
            // remove second (highest index first) — a crash in between
            // leaves a stale contiguous prefix that load_chain sweeps.
            checkpoint::install(self.dir.as_mut(), &self.shadow, watermark)?;
            checkpoint::remove_chain(self.dir.as_mut(), self.chain_len)?;
            self.chain_len = 0;
        }
        wal::compact(self.dir.as_mut(), &[])?;
        self.checkpoint_epoch = watermark;
        self.checkpoint_image.clone_from(&self.shadow);
        self.suffix.clear();
        Ok(as_delta)
    }

    /// Audits the on-disk WAL against the store's in-memory view: a torn
    /// or corrupt tail (e.g. a write the disk acknowledged but never
    /// persisted) is truncated, and the durable watermark rolls back to
    /// what the disk actually holds. The caller re-appends the lost
    /// epochs from the fleet's in-memory log. The scan reads into
    /// buffers the store keeps, and the suffix is swapped for the
    /// scanned records only when the disk differs, so an audit of an
    /// intact log allocates nothing.
    ///
    /// # Errors
    /// [`StoreError::CorruptCheckpoint`] when a WAL cell write on disk
    /// does not fit the image, or
    /// [`StoreError::Io`] when the directory fails.
    pub fn rescan(&mut self) -> Result<RescanSummary, StoreError> {
        // Land the open group first so the on-disk log and the
        // in-memory suffix describe the same prefix — a rollback must
        // never strand buffered epochs above a gap. Under per-record
        // commit the group is always empty and this touches nothing.
        self.flush_records()?;
        let before = self.durable_epoch();
        wal::load(self.dir.as_mut(), self.checkpoint_epoch, &mut self.scan)?;
        if self.scan.writes != self.suffix {
            // A replay the image refuses leaves the store as it was.
            let mut shadow = self.checkpoint_image.clone();
            replay(&mut shadow, &self.scan.writes)?;
            self.shadow = shadow;
            std::mem::swap(&mut self.suffix, &mut self.scan.writes);
        }
        Ok(RescanSummary {
            truncated_bytes: self.scan.truncated_bytes,
            lost_epochs: before.saturating_sub(self.durable_epoch()),
        })
    }

    /// The underlying directory — the hook tests use to inject torn
    /// writes and bit flips (downcast via [`Dir::as_any_mut`]).
    pub fn dir_mut(&mut self) -> &mut dyn Dir {
        self.dir.as_mut()
    }

    /// Consumes the store, returning the directory (e.g. to hand to
    /// [`DurableFleet::recover`] as a simulated restart). Buffered
    /// records in the open commit group are *dropped* — this models a
    /// kill, and unsynced records were never acknowledged.
    #[must_use]
    pub fn into_dir(self) -> Box<dyn Dir> {
        self.dir
    }
}

/// Replays the WAL `writes` onto `image` in order, each range-checked
/// against it.
fn replay(image: &mut ClassicalMemory, writes: &[ReplicatedWrite]) -> Result<(), StoreError> {
    for w in writes {
        checkpoint::replay_cell(image, w.address, w.value)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::dir::{DirOp, SimDir};
    use crate::store::{frame, CHECKPOINT_FILE, WAL_FILE};

    fn base() -> ClassicalMemory {
        ClassicalMemory::from_words(16, &(0..16).collect::<Vec<u64>>()).unwrap()
    }

    fn w(epoch: u64) -> ReplicatedWrite {
        ReplicatedWrite {
            epoch,
            origin: (epoch % 3) as usize,
            address: epoch % 16,
            value: (epoch * 13) % 65_536,
        }
    }

    fn sim(store: &mut DurableFleet) -> &mut SimDir {
        store
            .dir_mut()
            .as_any_mut()
            .downcast_mut::<SimDir>()
            .expect("test store runs on SimDir")
    }

    #[test]
    fn create_append_recover_roundtrips() {
        let mut store =
            DurableFleet::create_with(Box::new(SimDir::new()), &base(), CheckpointPolicy::never())
                .unwrap();
        for e in 1..=10 {
            let summary = store.append(&w(e)).unwrap();
            assert!(!summary.checkpointed);
            assert_eq!(summary.synced_records, 1, "per-record policy syncs each");
        }
        assert_eq!(store.durable_epoch(), 10);
        let recovered = DurableFleet::recover(store.into_dir()).unwrap();
        assert_eq!(recovered.epoch, 10);
        assert_eq!(recovered.checkpoint_epoch, 0);
        assert_eq!(recovered.delta_chain, 0);
        assert_eq!(recovered.writes.len(), 10);
        assert_eq!(recovered.truncated_bytes, 0);
        let mut expect = base();
        for e in 1..=10 {
            expect.write(w(e).address, w(e).value);
        }
        assert_eq!(recovered.memory, expect);
    }

    #[test]
    fn policy_checkpoints_compact_the_wal() {
        let mut store =
            DurableFleet::create_with(Box::new(SimDir::new()), &base(), CheckpointPolicy::every(4))
                .unwrap();
        let mut checkpoints = 0;
        for e in 1..=10 {
            if store.append(&w(e)).unwrap().checkpointed {
                checkpoints += 1;
            }
        }
        assert_eq!(checkpoints, 2, "epochs 4 and 8");
        assert_eq!(store.checkpoint_epoch(), 8);
        assert_eq!(store.suffix().len(), 2);
        let wal_len = sim(&mut store).len_of(WAL_FILE).unwrap();
        assert_eq!(
            wal_len,
            2 * (frame::HEADER_LEN + wal::RECORD_PAYLOAD_LEN),
            "WAL holds only the post-checkpoint suffix"
        );
        let recovered = DurableFleet::recover(store.into_dir()).unwrap();
        assert_eq!(recovered.epoch, 10);
        assert_eq!(recovered.checkpoint_epoch, 8);
        assert_eq!(recovered.writes.len(), 2);
    }

    #[test]
    fn non_contiguous_append_is_rejected() {
        let mut store = DurableFleet::create(Box::new(SimDir::new()), &base()).unwrap();
        store.append(&w(1)).unwrap();
        let err = store.append(&w(3)).unwrap_err();
        assert!(matches!(
            err,
            StoreError::NonContiguousEpoch {
                expected: 2,
                found: 3
            }
        ));
        assert_eq!(store.durable_epoch(), 1, "rejected append changes nothing");
    }

    #[test]
    fn state_at_walks_the_durable_chain() {
        let mut store =
            DurableFleet::create_with(Box::new(SimDir::new()), &base(), CheckpointPolicy::never())
                .unwrap();
        for e in 1..=5 {
            store.append(&w(e)).unwrap();
        }
        // One buffer serves every rebuild.
        let mut image = base();
        let words = image.words().as_ptr();
        assert!(store.state_at(3, &mut image));
        let mut expect = base();
        for e in 1..=3 {
            expect.write(w(e).address, w(e).value);
        }
        assert_eq!(image, expect);
        assert!(store.state_at(0, &mut image));
        assert_eq!(image, base());
        assert!(!store.state_at(6, &mut image), "beyond the durable epoch");
        assert_eq!(image, base(), "a refusal leaves the image");
        store.checkpoint().unwrap();
        assert!(!store.state_at(3, &mut image), "compacted away");
        assert!(store.state_at(5, &mut image));
        assert_eq!(&image, store.shadow());
        assert_eq!(image.words().as_ptr(), words, "the word buffer is reused");
    }

    #[test]
    fn rescan_rolls_back_a_lying_disk_and_reappend_recovers() {
        let mut store =
            DurableFleet::create_with(Box::new(SimDir::new()), &base(), CheckpointPolicy::never())
                .unwrap();
        for e in 1..=3 {
            store.append(&w(e)).unwrap();
        }
        // Epoch 4's append tears on the platter while reporting success.
        sim(&mut store).tear_next_write(frame::HEADER_LEN + 7);
        store.append(&w(4)).unwrap();
        assert_eq!(store.durable_epoch(), 4, "the store believes the disk");
        let summary = store.rescan().unwrap();
        assert_eq!(summary.lost_epochs, 1);
        assert_eq!(summary.truncated_bytes, frame::HEADER_LEN + 7);
        assert_eq!(store.durable_epoch(), 3, "watermark rolled back");
        // The fleet log still has epoch 4: re-append and recover clean.
        store.append(&w(4)).unwrap();
        assert_eq!(store.rescan().unwrap(), RescanSummary::default());
        let recovered = DurableFleet::recover(store.into_dir()).unwrap();
        assert_eq!(recovered.epoch, 4);
    }

    #[test]
    fn recover_rejects_a_bit_flipped_checkpoint_not_silently() {
        let mut store = DurableFleet::create(Box::new(SimDir::new()), &base()).unwrap();
        store.append(&w(1)).unwrap();
        let mut dir = store.into_dir();
        dir.as_any_mut()
            .downcast_mut::<SimDir>()
            .unwrap()
            .flip_bit(CHECKPOINT_FILE, 30, 2);
        assert!(matches!(
            DurableFleet::recover(dir),
            Err(StoreError::CorruptCheckpoint(_))
        ));
    }

    #[test]
    fn recover_of_an_unanchored_dir_is_a_missing_checkpoint() {
        assert!(matches!(
            DurableFleet::recover(Box::new(SimDir::new())),
            Err(StoreError::MissingCheckpoint)
        ));
    }

    #[test]
    fn a_commit_group_buffers_then_lands_in_one_sync() {
        let mut store =
            DurableFleet::create_with(Box::new(SimDir::new()), &base(), CheckpointPolicy::never())
                .unwrap()
                .with_group_commit(GroupCommitPolicy::group(4, 8.0));
        let ops_at_start = sim(&mut store).journal().len();
        for e in 1..=3 {
            let summary = store.append(&w(e)).unwrap();
            assert_eq!(summary.synced_records, 0, "buffered, not acknowledged");
        }
        assert_eq!(store.durable_epoch(), 0, "nothing synced yet");
        assert_eq!((store.tail_epoch(), store.pending_records()), (3, 3));
        assert_eq!(
            sim(&mut store).journal().len(),
            ops_at_start,
            "buffering touches no disk"
        );
        // The fourth record fills the group: one append + one sync.
        let summary = store.append(&w(4)).unwrap();
        assert_eq!(summary.synced_records, 4);
        assert_eq!(store.durable_epoch(), 4);
        assert_eq!(store.pending_records(), 0);
        let ops = &sim(&mut store).journal()[ops_at_start..];
        assert!(
            matches!(
                ops,
                [DirOp::Append { name, bytes }, DirOp::Sync]
                    if name == WAL_FILE
                        && bytes.len() == 4 * (frame::HEADER_LEN + wal::RECORD_PAYLOAD_LEN)
            ),
            "group of 4 = one append + one sync, got {ops:?}"
        );
    }

    #[test]
    fn a_kill_before_the_group_sync_loses_only_unacknowledged_records() {
        let mut store =
            DurableFleet::create_with(Box::new(SimDir::new()), &base(), CheckpointPolicy::never())
                .unwrap()
                .with_group_commit(GroupCommitPolicy::group(8, 8.0));
        for e in 1..=4 {
            store.append(&w(e)).unwrap();
        }
        store.flush().unwrap();
        for e in 5..=7 {
            assert_eq!(store.append(&w(e)).unwrap().synced_records, 0);
        }
        // Kill: the open group (epochs 5-7) was never synced or acked.
        let recovered = DurableFleet::recover(store.into_dir()).unwrap();
        assert_eq!(recovered.epoch, 4, "exactly the acknowledged prefix");
    }

    #[test]
    fn a_forced_flush_acknowledges_a_partial_group() {
        let mut store =
            DurableFleet::create_with(Box::new(SimDir::new()), &base(), CheckpointPolicy::never())
                .unwrap()
                .with_group_commit(GroupCommitPolicy::group(64, 8.0));
        store.append(&w(1)).unwrap();
        store.append(&w(2)).unwrap();
        let summary = store.flush().unwrap();
        assert_eq!(summary.synced_records, 2, "deadline flush lands the group");
        assert_eq!(store.durable_epoch(), 2);
        assert_eq!(
            store.flush().unwrap(),
            SyncSummary::default(),
            "empty group: flushing touches nothing"
        );
    }

    #[test]
    fn delta_policy_chains_then_folds() {
        let mut store = DurableFleet::create_with(
            Box::new(SimDir::new()),
            &base(),
            CheckpointPolicy::deltas(2, 2),
        )
        .unwrap();
        // Epochs 2 and 4 install deltas; epoch 6 hits max_chain and
        // folds into a fresh base.
        let mut shapes = Vec::new();
        for e in 1..=6 {
            let summary = store.append(&w(e)).unwrap();
            if summary.checkpointed {
                shapes.push(summary.delta);
            }
        }
        assert_eq!(shapes, vec![true, true, false]);
        assert_eq!(store.checkpoint_epoch(), 6);
        assert_eq!(store.delta_chain_len(), 0, "fold reset the chain");
        assert!(!sim(&mut store).exists(&checkpoint::delta_file(1)));
        // Two more: a fresh delta off the new base.
        store.append(&w(7)).unwrap();
        store.append(&w(8)).unwrap();
        assert_eq!(store.delta_chain_len(), 1);
        let recovered = DurableFleet::recover(store.into_dir()).unwrap();
        assert_eq!(recovered.epoch, 8);
        assert_eq!(recovered.checkpoint_epoch, 8);
        assert_eq!(recovered.delta_chain, 1);
        let mut expect = base();
        for e in 1..=8 {
            expect.write(w(e).address, w(e).value);
        }
        assert_eq!(recovered.memory, expect);
    }

    #[test]
    fn delta_recovery_replays_chain_plus_wal_tail() {
        let mut store = DurableFleet::create_with(
            Box::new(SimDir::new()),
            &base(),
            CheckpointPolicy::deltas(3, 8),
        )
        .unwrap();
        for e in 1..=11 {
            store.append(&w(e)).unwrap();
        }
        assert_eq!(store.checkpoint_epoch(), 9);
        assert_eq!(store.delta_chain_len(), 3);
        assert_eq!(store.suffix().len(), 2, "epochs 10-11 live in the WAL");
        let shadow = store.shadow().clone();
        let recovered = DurableFleet::recover(store.into_dir()).unwrap();
        assert_eq!(recovered.epoch, 11);
        assert_eq!(recovered.delta_chain, 3);
        assert_eq!(recovered.memory, shadow);
    }

    #[test]
    fn state_at_tracks_the_delta_chain_watermark() {
        let mut store = DurableFleet::create_with(
            Box::new(SimDir::new()),
            &base(),
            CheckpointPolicy::deltas(4, 8),
        )
        .unwrap();
        for e in 1..=6 {
            store.append(&w(e)).unwrap();
        }
        let mut image = base();
        assert!(!store.state_at(3, &mut image), "absorbed by the delta");
        assert!(store.state_at(5, &mut image));
        let mut expect = base();
        for e in 1..=5 {
            expect.write(w(e).address, w(e).value);
        }
        assert_eq!(image, expect);
    }

    #[test]
    fn rescan_lands_the_open_group_before_auditing() {
        let mut store =
            DurableFleet::create_with(Box::new(SimDir::new()), &base(), CheckpointPolicy::never())
                .unwrap()
                .with_group_commit(GroupCommitPolicy::group(8, 8.0));
        for e in 1..=3 {
            store.append(&w(e)).unwrap();
        }
        assert_eq!(store.durable_epoch(), 0);
        let summary = store.rescan().unwrap();
        assert_eq!(summary, RescanSummary::default());
        assert_eq!(store.durable_epoch(), 3, "audit flushed the group first");
    }

    #[test]
    fn each_per_record_append_journals_one_append_and_one_sync() {
        // The max_records = 1 path lands every record on its own: one
        // framed record, then its barrier — the anchor the proptest
        // equivalence suite leans on.
        let mut store =
            DurableFleet::create_with(Box::new(SimDir::new()), &base(), CheckpointPolicy::never())
                .unwrap();
        for e in 1..=7 {
            let at = sim(&mut store).journal().len();
            let summary = store.append(&w(e)).unwrap();
            assert_eq!(summary.synced_records, 1);
            let ops = &sim(&mut store).journal()[at..];
            assert!(
                matches!(
                    ops,
                    [DirOp::Append { name, bytes }, DirOp::Sync]
                        if name == WAL_FILE
                            && bytes.len() == frame::HEADER_LEN + wal::RECORD_PAYLOAD_LEN
                ),
                "epoch {e}: got {ops:?}"
            );
        }
    }
}
