//! Group commit against the per-record store. A store that batches
//! records into commit groups of `k ∈ 2..=6` records, driven through
//! seeded interleavings of writes, forced flushes (the reactor's
//! deadline) and crashes, must:
//!
//! * at every group sync, hold exactly the WAL bytes the per-record
//!   store holds for the same records, at the same durable epoch;
//! * between syncs, touch no disk at all: its I/O journal does not grow;
//! * after a crash, recover exactly the prefix it acknowledged, checked
//!   against a replay of that prefix onto the base image — without
//!   checkpoints, and under full-image and delta checkpoint policies.
//!
//! So group commit changes only when syncs are paid, never what a sync
//! makes durable. The store's unit tests pin the per-record op stream
//! (one append and one sync per record).

use std::borrow::Cow;

use proptest::prelude::*;
use qram_core::store::{CheckpointPolicy, DurableFleet, GroupCommitPolicy, SimDir, WAL_FILE};
use qram_core::ReplicatedWrite;
use qsim::branch::ClassicalMemory;

const CELLS: u64 = 16;
const BUS: u32 = 16;

fn base() -> ClassicalMemory {
    ClassicalMemory::from_words(BUS, &(0..CELLS).collect::<Vec<u64>>()).expect("valid base")
}

/// Decodes one workload step. The vendored proptest has no tuple
/// strategies, so each u64 packs the step kind and its payload:
/// `0 mod 8` is a crash-and-reopen, `1 mod 8` a forced flush, anything
/// else a write whose address and value derive from the higher bits.
enum Step {
    Write { address: u64, value: u64 },
    Flush,
    Crash,
}

fn decode(op: u64) -> Step {
    match op % 8 {
        0 => Step::Crash,
        1 => Step::Flush,
        _ => Step::Write {
            address: (op >> 3) % CELLS,
            value: (op >> 7) % (1 << BUS),
        },
    }
}

fn sim(store: &mut DurableFleet) -> &mut SimDir {
    store
        .dir_mut()
        .as_any_mut()
        .downcast_mut::<SimDir>()
        .expect("equivalence stores run on SimDir")
}

fn wal_bytes(store: &mut DurableFleet) -> Vec<u8> {
    (store.dir_mut().read(WAL_FILE).map(Cow::into_owned)).unwrap_or_default()
}

/// A fresh per-record store holding exactly `log`.
fn per_record_store(log: &[ReplicatedWrite], policy: CheckpointPolicy) -> DurableFleet {
    let mut store =
        DurableFleet::create_with(Box::new(SimDir::new()), &base(), policy).expect("create plain");
    for w in log {
        store.append(w).expect("plain append");
    }
    store
}

/// Kills `store`, dropping its open group; checks that a copy of its
/// platter recovers exactly the acknowledged prefix `log[..acked]`; and
/// reopens the store under `policy` and `group`.
fn crash_and_check(
    store: DurableFleet,
    log: &[ReplicatedWrite],
    acked: usize,
    policy: CheckpointPolicy,
    group: GroupCommitPolicy,
) -> Result<DurableFleet, TestCaseError> {
    let mut dir = store.into_dir();
    let platter = dir
        .as_any_mut()
        .downcast_mut::<SimDir>()
        .expect("SimDir")
        .clone();
    let recovered = DurableFleet::recover(Box::new(platter)).expect("recover");
    let mut expected = base();
    for w in &log[..acked] {
        expected.write(w.address, w.value);
    }
    prop_assert_eq!(recovered.epoch, acked as u64);
    prop_assert_eq!(recovered.memory, expected);
    Ok(DurableFleet::open(dir, policy)
        .expect("reopen")
        .with_group_commit(group))
}

proptest! {
    #[test]
    fn group_commit_lands_the_per_record_bytes_at_every_sync(
        ops in prop::collection::vec(0u64..1 << 24, 1..64),
        k in 2usize..=6,
    ) {
        let policy = CheckpointPolicy::never();
        let group = GroupCommitPolicy::group(k, 0.0);
        let mut plain = per_record_store(&[], policy);
        let mut grouped = DurableFleet::create_with(Box::new(SimDir::new()), &base(), policy)
            .expect("create grouped")
            .with_group_commit(group);
        // Every write the grouped store accepted; the first `acked` of
        // them are acknowledged.
        let mut log: Vec<ReplicatedWrite> = Vec::new();
        let mut acked = 0usize;
        for &op in &ops {
            let ops_before = sim(&mut grouped).journal().len();
            let synced = match decode(op) {
                Step::Write { address, value } => {
                    let w = ReplicatedWrite { epoch: log.len() as u64 + 1, origin: 0, address, value };
                    log.push(w);
                    prop_assert_eq!(plain.append(&w).expect("plain append").synced_records, 1);
                    grouped.append(&w).expect("grouped append").synced_records
                }
                Step::Flush => grouped.flush().expect("flush").synced_records,
                Step::Crash => {
                    grouped = crash_and_check(grouped, &log, acked, policy, group)?;
                    // The open group died unacknowledged: the stream goes
                    // on from the acknowledged prefix, and the reference
                    // is rebuilt on it.
                    log.truncate(acked);
                    plain = per_record_store(&log, policy);
                    prop_assert_eq!(wal_bytes(&mut grouped), wal_bytes(&mut plain));
                    continue;
                }
            };
            if synced == 0 {
                prop_assert!(
                    sim(&mut grouped).journal().len() == ops_before,
                    "a step that synced nothing touched the disk"
                );
            } else {
                // A sync lands the whole open group: byte for byte what
                // the per-record store wrote for the same records.
                acked += synced;
                prop_assert_eq!(acked, log.len());
                prop_assert_eq!(grouped.durable_epoch(), plain.durable_epoch());
                prop_assert_eq!(wal_bytes(&mut grouped), wal_bytes(&mut plain));
            }
            prop_assert_eq!(grouped.durable_epoch(), acked as u64);
            prop_assert!(synced == 0 || synced <= k, "a group of {} records", synced);
        }
        // A last kill loses exactly the open group.
        crash_and_check(grouped, &log, acked, policy, group)?;
    }

    #[test]
    fn a_grouped_store_recovers_its_acknowledged_prefix_under_checkpoints(
        ops in prop::collection::vec(0u64..1 << 24, 1..64),
        k in 2usize..=6,
        every in 1u64..=8,
        max_chain in 0usize..=3,
    ) {
        // `max_chain = 0` installs full images only.
        let policy = CheckpointPolicy::deltas(every, max_chain);
        let group = GroupCommitPolicy::group(k, 0.0);
        let mut grouped = DurableFleet::create_with(Box::new(SimDir::new()), &base(), policy)
            .expect("create grouped")
            .with_group_commit(group);
        let mut log: Vec<ReplicatedWrite> = Vec::new();
        let mut acked = 0usize;
        for &op in &ops {
            match decode(op) {
                Step::Write { address, value } => {
                    let w = ReplicatedWrite { epoch: log.len() as u64 + 1, origin: 0, address, value };
                    log.push(w);
                    acked += grouped.append(&w).expect("grouped append").synced_records;
                }
                Step::Flush => acked += grouped.flush().expect("flush").synced_records,
                Step::Crash => {
                    grouped = crash_and_check(grouped, &log, acked, policy, group)?;
                    log.truncate(acked);
                }
            }
            prop_assert_eq!(grouped.durable_epoch(), acked as u64);
        }
        crash_and_check(grouped, &log, acked, policy, group)?;
    }
}
