//! Kill-point property tests for the durable store.
//!
//! The harness runs a realistic store workload — appends with periodic
//! checkpoints and WAL compactions — on a journaling [`SimDir`], then
//! enumerates *every* I/O step the workload performed and simulates a
//! crash at each one: a clean kill between ops, and, for every byte
//! write (WAL appends, checkpoint scratch writes, compaction rewrites),
//! a torn cut at several byte offsets inside the op. Recovery from each
//! crash image must satisfy the durability contract:
//!
//! 1. **No acknowledged write is lost**: every epoch whose
//!    append-and-sync completed before the crash is in the recovered
//!    state.
//! 2. **No unacknowledged write is resurrected**: the recovered epoch
//!    never exceeds the epochs whose WAL bytes were fully written.
//! 3. **The log is always left scannable**: recovery succeeds, the
//!    recovered memory is exactly the replay of the recovered prefix,
//!    and the repaired directory supports further appends and a second
//!    recovery.
//!
//! On top of the crash sweep, injected faults — short writes through
//! the armed tear hook and single-bit flips at every byte of the WAL —
//! must be *detected* (prefix recovery or an explicit corruption
//! error), never silently replayed as state.

use qram_core::store::{
    delta_file, frame, CheckpointPolicy, DurableFleet, GroupCommitPolicy, SimDir, StoreError,
    CHECKPOINT_FILE, WAL_FILE,
};
use qram_core::ReplicatedWrite;
use qsim::branch::ClassicalMemory;

const CELLS: u64 = 16;
const BUS: u32 = 16;
const EPOCHS: u64 = 12;
const CHECKPOINT_EVERY: u64 = 4;

fn base() -> ClassicalMemory {
    ClassicalMemory::from_words(BUS, &(0..CELLS).collect::<Vec<u64>>()).expect("valid base")
}

fn write(epoch: u64) -> ReplicatedWrite {
    ReplicatedWrite {
        epoch,
        origin: (epoch % 3) as usize,
        address: (epoch * 5) % CELLS,
        value: (epoch * 13) % (1 << BUS),
    }
}

/// Replay of `write(1..=epoch)` onto the base memory: the ground truth
/// every recovered image is compared against.
fn expected_memory(epoch: u64) -> ClassicalMemory {
    let mut m = base();
    for e in 1..=epoch {
        let w = write(e);
        m.write(w.address, w.value);
    }
    m
}

fn journal_len(store: &mut DurableFleet) -> usize {
    store
        .dir_mut()
        .as_any_mut()
        .downcast_mut::<SimDir>()
        .expect("kill-point store runs on SimDir")
        .journal()
        .len()
}

/// One epoch's I/O footprint in the journal: `start` is the op index of
/// its WAL append, `acked` the op index after its durability sync (the
/// acknowledgment point — checkpoint ops that follow inside the same
/// `append` call come after it).
struct EpochOps {
    start: usize,
    acked: usize,
}

/// Runs the reference workload and returns the full op journal plus the
/// per-epoch ack bookkeeping and the op count of `create` itself.
fn run_workload() -> (SimDir, Vec<EpochOps>, usize) {
    let mut store = DurableFleet::create_with(
        Box::new(SimDir::new()),
        &base(),
        CheckpointPolicy::every(CHECKPOINT_EVERY),
    )
    .expect("create store");
    let create_done = journal_len(&mut store);
    let mut epochs = Vec::new();
    for e in 1..=EPOCHS {
        let start = journal_len(&mut store);
        store.append(&write(e)).expect("append");
        // A per-record append journals exactly [Append, Sync]; the sync
        // completes the acknowledgment even when a checkpoint follows in
        // the same call.
        epochs.push(EpochOps {
            start,
            acked: start + 2,
        });
    }
    let journal = store
        .dir_mut()
        .as_any_mut()
        .downcast_mut::<SimDir>()
        .expect("SimDir")
        .clone();
    (journal, epochs, create_done)
}

/// Highest epoch acknowledged when ops `0..k` completed.
fn acked_by(epochs: &[EpochOps], k: usize) -> u64 {
    epochs.iter().filter(|e| e.acked <= k).count() as u64
}

/// Highest epoch whose WAL record bytes were fully written by ops
/// `0..k` — the resurrection ceiling (a torn cut of op `k` never
/// completes a record, so it cannot raise this).
fn fully_written_by(epochs: &[EpochOps], k: usize) -> u64 {
    epochs.iter().filter(|e| e.start < k).count() as u64
}

/// Checks the full durability contract for one crash image.
fn check_recovery(crashed: SimDir, acked: u64, ceiling: u64, label: &str) {
    let replayable = crashed.clone();
    let recovered = DurableFleet::recover(Box::new(crashed))
        .unwrap_or_else(|e| panic!("{label}: recovery must succeed, got {e}"));
    assert!(
        recovered.epoch >= acked,
        "{label}: lost acknowledged writes (recovered {} < acked {acked})",
        recovered.epoch
    );
    assert!(
        recovered.epoch <= ceiling,
        "{label}: resurrected unwritten epochs (recovered {} > ceiling {ceiling})",
        recovered.epoch
    );
    assert_eq!(
        recovered.memory.cells(),
        expected_memory(recovered.epoch).cells(),
        "{label}: recovered image must equal the prefix replay"
    );
    // The repaired directory is a working store: it accepts the next
    // epoch and recovers again, including it.
    let mut reopened = DurableFleet::open(Box::new(replayable), CheckpointPolicy::never())
        .unwrap_or_else(|e| panic!("{label}: reopen must succeed, got {e}"));
    assert_eq!(reopened.durable_epoch(), recovered.epoch);
    let next = write(recovered.epoch + 1);
    reopened.append(&next).expect("append after repair");
    let after = DurableFleet::recover(reopened.into_dir()).expect("recover after repair");
    assert_eq!(after.epoch, recovered.epoch + 1, "{label}: continuation");
}

#[test]
fn every_crash_point_recovers_the_acknowledged_prefix() {
    let (journal_dir, epochs, create_done) = run_workload();
    let journal = journal_dir.journal();
    let mut crash_points = 0usize;
    for k in 0..=journal.len() {
        let acked = acked_by(&epochs, k);
        let ceiling = fully_written_by(&epochs, k);
        // Clean kill between op k−1 and op k.
        let crashed = journal_dir.replay_prefix(k, None);
        if k < create_done {
            // The store was never fully created: recovery may report the
            // missing anchor, but must never invent state.
            match DurableFleet::recover(Box::new(crashed)) {
                Ok(state) => assert_eq!(state.epoch, 0, "pre-create crash has no writes"),
                Err(StoreError::MissingCheckpoint) => {}
                Err(e) => panic!("pre-create crash at op {k}: unexpected {e}"),
            }
        } else {
            check_recovery(crashed, acked, ceiling, &format!("clean kill at op {k}"));
        }
        crash_points += 1;
        // Torn cut inside op k, at several byte offsets.
        if let Some(op) = journal.get(k) {
            if op.can_tear() {
                let len = op.write_len();
                let mut cuts = vec![0, 1, len / 2, len.saturating_sub(1)];
                cuts.dedup();
                for cut in cuts {
                    let crashed = journal_dir.replay_prefix(k, Some(cut));
                    let label = format!("torn write at op {k}, {cut}/{len} bytes");
                    if k < create_done {
                        let _ = DurableFleet::recover(Box::new(crashed));
                    } else {
                        check_recovery(crashed, acked, ceiling, &label);
                    }
                    crash_points += 1;
                }
            }
        }
    }
    // The sweep must actually have enumerated the interesting structure:
    // appends, syncs, checkpoint installs, and compactions all occurred.
    assert!(
        crash_points > 100,
        "the workload must expose a rich crash surface, got {crash_points}"
    );
    assert!(
        journal.iter().any(
            |op| matches!(op, qram_core::store::DirOp::Rename { to, .. } if to == CHECKPOINT_FILE)
        ),
        "workload must include checkpoint installs"
    );
    assert!(
        journal
            .iter()
            .any(|op| matches!(op, qram_core::store::DirOp::Rename { to, .. } if to == WAL_FILE)),
        "workload must include WAL compactions"
    );
}

/// Group-commit variant of the workload: appends buffer into commit
/// groups of [`GROUP`] records, checkpoints are incremental deltas that
/// fold at [`MAX_CHAIN`]. A buffered append touches no I/O at all, so
/// every epoch of a group shares its group's `start` (the journal index
/// of the single group `Append`) and `acked` (the index after the
/// group's one sync).
const GROUP: usize = 3;
const GROUP_EPOCHS: u64 = 18;
const MAX_CHAIN: usize = 2;

fn run_grouped_workload() -> (SimDir, Vec<EpochOps>, usize) {
    let mut store = DurableFleet::create_with(
        Box::new(SimDir::new()),
        &base(),
        CheckpointPolicy::deltas(CHECKPOINT_EVERY, MAX_CHAIN),
    )
    .expect("create store")
    .with_group_commit(GroupCommitPolicy::group(GROUP, 0.0));
    let create_done = journal_len(&mut store);
    let mut epochs = Vec::new();
    for e in 1..=GROUP_EPOCHS {
        let start = journal_len(&mut store);
        store.append(&write(e)).expect("append");
        // A buffered append leaves the journal untouched, so every
        // epoch of one group records the same `start`: the index where
        // the group's single [Append, Sync] eventually lands.
        epochs.push(EpochOps {
            start,
            acked: start + 2,
        });
    }
    assert_eq!(
        store.pending_records(),
        0,
        "GROUP_EPOCHS divides by GROUP: the last group landed"
    );
    let journal = store
        .dir_mut()
        .as_any_mut()
        .downcast_mut::<SimDir>()
        .expect("SimDir")
        .clone();
    (journal, epochs, create_done)
}

/// Resurrection ceiling for a torn cut of `cut` bytes inside op `k`: a
/// group `Append` is `GROUP` back-to-back records, so the cut completes
/// `cut / record_bytes` of the records the op was carrying — earlier
/// records of a half-flushed group legitimately survive even though
/// none of the group was acknowledged.
fn grouped_ceiling(epochs: &[EpochOps], k: usize, cut: usize, record_bytes: usize) -> u64 {
    let full = epochs.iter().filter(|e| e.start < k).count();
    let in_op = epochs.iter().filter(|e| e.start == k).count();
    (full + in_op.min(cut / record_bytes)) as u64
}

#[test]
fn every_crash_point_under_group_commit_recovers_the_acknowledged_prefix() {
    let (journal_dir, epochs, create_done) = run_grouped_workload();
    let journal = journal_dir.journal();
    // One record's framed length, derived from the first group append
    // (a single op carrying GROUP back-to-back frames).
    let record_bytes = journal[epochs[0].start].write_len() / GROUP;
    assert!(record_bytes > frame::HEADER_LEN, "frames carry payloads");
    let mut crash_points = 0usize;
    for k in 0..=journal.len() {
        let acked = acked_by(&epochs, k);
        // Clean kill between op k−1 and op k: buffered records of a
        // group whose flush has not started are in no journal op at
        // all, so a kill here proves the buffer-to-sync window loses
        // only unacknowledged writes.
        let ceiling = grouped_ceiling(&epochs, k, 0, record_bytes);
        let crashed = journal_dir.replay_prefix(k, None);
        if k < create_done {
            match DurableFleet::recover(Box::new(crashed)) {
                Ok(state) => assert_eq!(state.epoch, 0, "pre-create crash has no writes"),
                Err(StoreError::MissingCheckpoint) => {}
                Err(e) => panic!("pre-create crash at op {k}: unexpected {e}"),
            }
        } else {
            check_recovery(
                crashed,
                acked,
                ceiling,
                &format!("grouped clean kill at op {k}"),
            );
        }
        crash_points += 1;
        if let Some(op) = journal.get(k) {
            if op.can_tear() {
                let len = op.write_len();
                let mut cuts = vec![0, 1, len / 2, len.saturating_sub(1)];
                // Mid-group record boundaries: exactly at and one past
                // the first record of a group flush.
                if len > record_bytes {
                    cuts.push(record_bytes);
                    cuts.push(record_bytes + 1);
                }
                cuts.sort_unstable();
                cuts.dedup();
                for cut in cuts {
                    let ceiling = grouped_ceiling(&epochs, k, cut, record_bytes);
                    let crashed = journal_dir.replay_prefix(k, Some(cut));
                    let label = format!("grouped torn write at op {k}, {cut}/{len} bytes");
                    if k < create_done {
                        let _ = DurableFleet::recover(Box::new(crashed));
                    } else {
                        check_recovery(crashed, acked, ceiling, &label);
                    }
                    crash_points += 1;
                }
            }
        }
    }
    assert!(
        crash_points > 100,
        "the grouped workload must expose a rich crash surface, got {crash_points}"
    );
    // The sweep must have crossed the interesting delta-chain
    // structure: incremental installs, a full-image fold, compactions.
    let renames_to = |name: &str| {
        journal
            .iter()
            .any(|op| matches!(op, qram_core::store::DirOp::Rename { to, .. } if *to == name))
    };
    assert!(
        renames_to(&delta_file(1)) && renames_to(&delta_file(2)),
        "workload must install a delta chain"
    );
    assert!(
        renames_to(CHECKPOINT_FILE),
        "workload must fold the chain into a full image"
    );
    assert!(renames_to(WAL_FILE), "workload must compact the WAL");
}

#[test]
fn bit_flips_inside_a_partially_flushed_group_are_detected_never_misread() {
    // One synced group of three, then a second group whose flush the
    // lying disk cuts mid-record: the platter keeps the first record of
    // the group whole plus a fragment of the second. Every single-bit
    // flip anywhere in that WAL — including inside the partial group —
    // must cost at most the tail, never misread as state.
    let mut store =
        DurableFleet::create_with(Box::new(SimDir::new()), &base(), CheckpointPolicy::never())
            .expect("create")
            .with_group_commit(GroupCommitPolicy::group(3, 0.0));
    for e in 1..=3 {
        store.append(&write(e)).expect("append");
    }
    let record_bytes = {
        let sim = store
            .dir_mut()
            .as_any_mut()
            .downcast_mut::<SimDir>()
            .expect("SimDir");
        sim.len_of(WAL_FILE).expect("first group landed") / 3
    };
    store.append(&write(4)).expect("buffered");
    store.append(&write(5)).expect("buffered");
    store
        .dir_mut()
        .tear_next_write(record_bytes + frame::HEADER_LEN + 3);
    store.flush().expect("flush believes the disk");
    let mut dir = store.into_dir();
    let sim = dir
        .as_any_mut()
        .downcast_mut::<SimDir>()
        .expect("SimDir")
        .clone();
    let baseline = DurableFleet::recover(Box::new(sim.clone())).expect("recover");
    assert_eq!(
        baseline.epoch, 4,
        "the completed first record of the torn group survives"
    );
    let wal_len = sim.len_of(WAL_FILE).expect("wal exists");
    for offset in 0..wal_len {
        for bit in [0u32, 5] {
            let mut dirty = sim.clone();
            dirty.flip_bit(WAL_FILE, offset, bit);
            let recovered = DurableFleet::recover(Box::new(dirty))
                .unwrap_or_else(|e| panic!("bit flip at byte {offset}: recovery failed: {e}"));
            assert!(recovered.epoch <= 4);
            assert_eq!(
                recovered.memory.cells(),
                expected_memory(recovered.epoch).cells(),
                "bit {bit} of byte {offset} was silently misread"
            );
        }
    }
}

#[test]
fn injected_short_writes_truncate_to_the_acknowledged_prefix() {
    // The lying-disk variant: the tear hook makes an append report
    // success while persisting only part of the record. Recovery from
    // that disk must land exactly on the epochs fully persisted.
    for keep in [0, 1, frame::HEADER_LEN, frame::HEADER_LEN + 15] {
        let mut store =
            DurableFleet::create_with(Box::new(SimDir::new()), &base(), CheckpointPolicy::never())
                .expect("create");
        for e in 1..=3 {
            store.append(&write(e)).expect("append");
        }
        store.dir_mut().tear_next_write(keep);
        store.append(&write(4)).expect("append believes the disk");
        let recovered = DurableFleet::recover(store.into_dir()).expect("recover");
        assert_eq!(
            recovered.epoch, 3,
            "short write of {keep} bytes must not resurrect epoch 4"
        );
        assert_eq!(recovered.memory.cells(), expected_memory(3).cells());
    }
}

#[test]
fn every_single_bit_flip_in_the_wal_is_detected_never_misread() {
    let mut store =
        DurableFleet::create_with(Box::new(SimDir::new()), &base(), CheckpointPolicy::never())
            .expect("create");
    for e in 1..=4 {
        store.append(&write(e)).expect("append");
    }
    let mut dir = store.into_dir();
    let sim = dir
        .as_any_mut()
        .downcast_mut::<SimDir>()
        .expect("SimDir")
        .clone();
    let wal_len = sim.len_of(WAL_FILE).expect("wal exists");
    for offset in 0..wal_len {
        for bit in [0u32, 5] {
            let mut dirty = sim.clone();
            dirty.flip_bit(WAL_FILE, offset, bit);
            let recovered = DurableFleet::recover(Box::new(dirty))
                .unwrap_or_else(|e| panic!("bit flip at byte {offset}: recovery failed: {e}"));
            // The flip may cost the tail of the log, but never yields a
            // state that is not a true prefix replay.
            assert!(recovered.epoch <= 4);
            assert_eq!(
                recovered.memory.cells(),
                expected_memory(recovered.epoch).cells(),
                "bit {bit} of byte {offset} was silently misread"
            );
        }
    }
}

#[test]
fn a_bit_flipped_checkpoint_is_an_explicit_error_not_silent_state() {
    let mut store = DurableFleet::create(Box::new(SimDir::new()), &base()).expect("create");
    store.append(&write(1)).expect("append");
    let mut dir = store.into_dir();
    let sim = dir
        .as_any_mut()
        .downcast_mut::<SimDir>()
        .expect("SimDir")
        .clone();
    let img_len = sim.len_of(CHECKPOINT_FILE).expect("checkpoint exists");
    for offset in (0..img_len).step_by(7) {
        let mut dirty = sim.clone();
        dirty.flip_bit(CHECKPOINT_FILE, offset, (offset % 8) as u32);
        assert!(
            matches!(
                DurableFleet::recover(Box::new(dirty)),
                Err(StoreError::CorruptCheckpoint(_))
            ),
            "flip at checkpoint byte {offset} must be a detected corruption"
        );
    }
}
