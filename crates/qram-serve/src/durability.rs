//! The durability tier of a serving run: the write-ahead log and
//! checkpoint store, its integrity ledger, and the anti-entropy scrub.

use qram_core::store::{frame, CheckpointPolicy, DurableFleet, SimDir, StoreError, SyncSummary};
use qram_core::{ReplicatedMemory, ReplicatedWrite};
use qram_metrics::IntegrityCounters;
use qsim::branch::ClassicalMemory;

use crate::fault::{AdaptiveGroupCommit, FaultConfig, FaultPlan};
use crate::run::ReplicaState;

/// Bytes of a torn WAL append the lying disk keeps: header plus part of
/// the record payload, so the defect lands mid-frame.
const TORN_KEEP_BYTES: usize = frame::HEADER_LEN + 7;

/// Durability bookkeeping for one serving run: the WAL + checkpoint
/// store, the epoch offset between this run's fleet epochs and the
/// store's chain, and the integrity ledger.
pub(crate) struct Durability<'a> {
    pub(crate) store: &'a mut DurableFleet,
    /// The store's durable epoch when the run started: fleet epoch `e`
    /// of this run lives at store epoch `wal_base + e`.
    wal_base: u64,
    pub(crate) counters: IntegrityCounters,
    /// Commit-group syncs paid so far — the freshness token carried by
    /// armed `Event::WalFlush` deadlines: a deadline whose `seq` is
    /// behind this counter raced a size-triggered flush and is stale.
    pub(crate) syncs: u64,
    /// `counters.wal_appends` at the last monitor tick, for the
    /// adaptive group-commit controller's per-tick append rate.
    appends_at_tick: u64,
    /// The scrub's expected image, made at the first scrub cycle (a run
    /// that never scrubs never makes it) and rebuilt in place per
    /// distinct epoch a cycle audits.
    expected: Option<ClassicalMemory>,
}

/// True when a run without an external store still needs a durability
/// tier: disk faults, a scrub interval or the adaptive group commit.
pub(crate) fn needs_store(plan: &FaultPlan, config: &FaultConfig) -> bool {
    plan.has_disk_faults()
        || config.scrub_interval.is_some()
        || config.adaptive_group_commit.is_some()
}

impl<'a> Durability<'a> {
    /// The run's durability tier. An external store (`serve_durable`)
    /// always activates it; otherwise disk faults, a scrub interval or
    /// the adaptive group commit spin up an ephemeral in-memory store in
    /// `ephemeral`, so the faults have a durable chain to lie against and
    /// be audited by. A run that activates none of this schedules no
    /// events and touches no disk, keeping the empty-plan reactor
    /// bit-identical to the fault-free loop.
    pub(crate) fn open(
        store: Option<&'a mut DurableFleet>,
        ephemeral: &'a mut Option<DurableFleet>,
        memory: &ClassicalMemory,
        plan: &FaultPlan,
        config: &FaultConfig,
    ) -> Result<Option<Self>, StoreError> {
        let store = match store {
            Some(s) => {
                s.set_group_commit(config.group_commit);
                s
            }
            None if needs_store(plan, config) => {
                let fresh = DurableFleet::create_with(
                    Box::new(SimDir::new()),
                    memory,
                    CheckpointPolicy::never(),
                )?
                .with_group_commit(config.group_commit);
                ephemeral.insert(fresh)
            }
            None => return Ok(None),
        };
        Ok(Some(Durability {
            wal_base: store.durable_epoch(),
            store,
            counters: IntegrityCounters::default(),
            syncs: 0,
            appends_at_tick: 0,
            expected: None,
        }))
    }

    /// Folds one store [`SyncSummary`] into the integrity ledger and
    /// the sync sequence number.
    fn note(&mut self, summary: SyncSummary) {
        if summary.synced_records > 0 {
            self.syncs += 1;
            self.counters.wal_syncs += 1;
            self.counters.max_group_records = self
                .counters
                .max_group_records
                .max(summary.synced_records as u64);
        }
        if summary.checkpointed {
            if summary.delta {
                self.counters.delta_checkpoints += 1;
            } else {
                self.counters.checkpoints += 1;
            }
            self.counters.delta_chain_len = Some(self.store.delta_chain_len() as u64);
        }
    }

    /// Logs one committed fleet write durably; `torn` arms the
    /// lying-disk hook so the append reports success while the platter
    /// keeps only [`TORN_KEEP_BYTES`]. Under group commit the record
    /// may buffer; the returned summary says whether a sync landed.
    pub(crate) fn append(
        &mut self,
        w: &ReplicatedWrite,
        torn: bool,
    ) -> Result<SyncSummary, StoreError> {
        if torn {
            self.store.dir_mut().tear_next_write(TORN_KEEP_BYTES);
        }
        let stored = ReplicatedWrite {
            epoch: self.wal_base + w.epoch,
            ..*w
        };
        let summary = self.store.append(&stored)?;
        self.counters.wal_appends += 1;
        self.note(summary);
        Ok(summary)
    }

    /// Lands any buffered commit group now (deadline flush, pre-audit
    /// barrier, end-of-run drain).
    pub(crate) fn flush(&mut self) -> Result<SyncSummary, StoreError> {
        let summary = self.store.flush()?;
        self.note(summary);
        Ok(summary)
    }

    /// The highest fleet epoch whose record has reached a synced group
    /// — the ack/replication watermark.
    pub(crate) fn synced_fleet_epoch(&self) -> u64 {
        self.store.durable_epoch().saturating_sub(self.wal_base)
    }

    /// The adaptive group commit's monitor tick: observe the append rate
    /// over the tick and retune the group size — double while the
    /// interval outran the group, halve when it ran at most half full.
    /// Only the group size moves, never the ack-at-sync point.
    pub(crate) fn adapt_group_commit(&mut self, bounds: AdaptiveGroupCommit) {
        let appends = self.counters.wal_appends - self.appends_at_tick;
        self.appends_at_tick = self.counters.wal_appends;
        let mut g = self.store.group_commit();
        let current = g.max_records;
        let next = if appends > current as u64 {
            current.saturating_mul(2).min(bounds.max_records)
        } else if appends <= (current as u64) / 2 {
            (current / 2).max(bounds.min_records)
        } else {
            current
        };
        if next != current {
            g.max_records = next.max(1);
            self.store.set_group_commit(g);
        }
    }

    /// Audits the on-disk WAL against the store's view: a torn tail is
    /// truncated, the watermark rolled back, and the lost acknowledged
    /// epochs re-appended from the fleet's in-memory log (each counted
    /// as a repair).
    fn audit_disk(&mut self, replicated: &ReplicatedMemory<'_>) -> Result<(), StoreError> {
        // Land the open group through the ledger first, so the store's
        // own pre-rescan flush has nothing left to sync invisibly.
        self.flush()?;
        let summary = self.store.rescan()?;
        if summary.truncated_bytes > 0 {
            self.counters.torn_tails_truncated += 1;
        }
        if summary.lost_epochs > 0 {
            let from = self.store.durable_epoch();
            for w in replicated.log() {
                let stored_epoch = self.wal_base + w.epoch;
                if stored_epoch > from {
                    let stored = ReplicatedWrite {
                        epoch: stored_epoch,
                        ..*w
                    };
                    let summary = self.store.append(&stored)?;
                    self.counters.wal_appends += 1;
                    self.counters.repairs += 1;
                    self.note(summary);
                }
            }
            // Re-appends buffer under the same group policy — the
            // audit's promise is a durable tail, so land them now.
            self.flush()?;
        }
        Ok(())
    }

    /// Replays a restarted replica from the durable chain: disk audit,
    /// then a reset to the chain's image at its watermark. The caller
    /// drains any remaining in-memory log suffix afterwards.
    pub(crate) fn rejoin_from_disk(
        &mut self,
        replica: usize,
        replicated: &mut ReplicatedMemory<'_>,
    ) -> Result<(), StoreError> {
        self.audit_disk(replicated)?;
        let durable_fleet_epoch = self.store.durable_epoch() - self.wal_base;
        if durable_fleet_epoch > replicated.applied_epoch(replica) {
            replicated.reset_replica(replica, self.store.shadow().clone(), durable_fleet_epoch);
        }
        Ok(())
    }

    /// One anti-entropy scrub cycle: audit the WAL, then compare each
    /// live replica's memory, chunk by chunk, with the durable chain's
    /// expected image at that replica's applied epoch, repairing
    /// divergence by resetting the replica to the expected image. The
    /// chain cannot change after the audit, so the image is rebuilt in
    /// one buffer, made at the first cycle, only when a replica's epoch
    /// differs from the last one built; only a repair copies it.
    pub(crate) fn scrub(
        &mut self,
        replicated: &mut ReplicatedMemory<'_>,
        replicas: &[ReplicaState],
        chunk_cells: usize,
    ) -> Result<(), StoreError> {
        self.counters.scrub_cycles += 1;
        self.audit_disk(replicated)?;
        let store = &*self.store;
        let expected = (self.expected).get_or_insert_with(|| store.shadow().clone());
        let mut built = None;
        for r in (0..replicas.len()).filter(|&r| replicas[r].alive) {
            let applied = replicated.applied_epoch(r);
            let epoch = self.wal_base + applied;
            if built != Some(epoch) {
                // An epoch already compacted behind a checkpoint is not
                // reconstructible — the replica is audited next cycle,
                // once catch-up moves it past the checkpoint watermark. A
                // refusal leaves the buffer at the last epoch built.
                if !store.state_at(epoch, expected) {
                    continue;
                }
                built = Some(epoch);
            }
            let want = expected.cells().chunks(chunk_cells);
            let have = replicated.memory(r).cells().chunks(chunk_cells);
            self.counters.chunks_verified += have.len() as u64;
            let diverged = want.zip(have).filter(|(w, h)| w != h).count() as u64;
            if diverged > 0 {
                self.counters.mismatches += diverged;
                self.counters.repairs += 1;
                // The reset journals the repaired cells at the same
                // epoch, so the version's final image — what its
                // dispatches read — is clean again.
                replicated.reset_replica(r, expected.clone(), applied);
            }
        }
        Ok(())
    }
}
