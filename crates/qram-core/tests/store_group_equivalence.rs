//! Bit-compatibility anchor for group commit: a store whose commit
//! groups hold exactly one record must be indistinguishable — ack by
//! ack, journal op by journal op, WAL byte by WAL byte — from the
//! default per-record store, across seeded workloads that interleave
//! writes with crash-and-reopen cycles.
//!
//! This pins the contract that group commit is *purely* a batching
//! knob: at `max_records = 1` the buffering path degenerates to one
//! append and one sync per record (the store's unit tests pin that op
//! stream), so turning the knob can never change what is on disk, only
//! when syncs are paid.

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
/// `0 mod 8` is a crash-and-reopen, anything else a write whose
/// address and value derive from the higher bits.
enum Step {
    Write { address: u64, value: u64 },
    Crash,
}

fn decode(op: u64) -> Step {
    if op.is_multiple_of(8) {
        Step::Crash
    } else {
        Step::Write {
            address: (op >> 3) % CELLS,
            value: (op >> 7) % (1 << BUS),
        }
    }
}

fn journal_of(store: &mut DurableFleet) -> Vec<qram_core::store::DirOp> {
    store
        .dir_mut()
        .as_any_mut()
        .downcast_mut::<SimDir>()
        .expect("equivalence stores run on SimDir")
        .journal()
        .to_vec()
}

fn wal_bytes(store: &mut DurableFleet) -> Vec<u8> {
    store.dir_mut().read(WAL_FILE).unwrap_or_default()
}

proptest! {
    #[test]
    fn a_one_record_group_is_bit_identical_to_the_per_record_path(
        ops in prop::collection::vec(0u64..1 << 24, 1..40),
        every in 2u64..6,
    ) {
        let policy = CheckpointPolicy::every(every);
        // Reference: the default per-record store, untouched knob.
        let mut plain = DurableFleet::create_with(Box::new(SimDir::new()), &base(), policy)
            .expect("create plain");
        // Candidate: group commit explicitly dialed to one record.
        let mut grouped = DurableFleet::create_with(Box::new(SimDir::new()), &base(), policy)
            .expect("create grouped")
            .with_group_commit(GroupCommitPolicy::group(1, 0.0));
        let mut epoch = 0u64;
        for &op in &ops {
            match decode(op) {
                Step::Write { address, value } => {
                    epoch += 1;
                    let w = ReplicatedWrite { epoch, origin: 0, address, value };
                    let a = plain.append(&w).expect("plain append");
                    let b = grouped.append(&w).expect("grouped append");
                    // Ack for ack: both sync this record immediately,
                    // and checkpoint work fires at the same epochs.
                    prop_assert_eq!(a.synced_records, b.synced_records);
                    prop_assert_eq!(a.synced_records, 1);
                    prop_assert_eq!(a.checkpointed, b.checkpointed);
                    prop_assert_eq!(plain.durable_epoch(), grouped.durable_epoch());
                }
                Step::Crash => {
                    // Kill both stores (dropping any buffered state —
                    // there is none at group size one), recover a clone
                    // of each platter, compare, then reopen and go on.
                    let mut plain_dir = plain.into_dir();
                    let mut grouped_dir = grouped.into_dir();
                    let plain_sim = plain_dir
                        .as_any_mut()
                        .downcast_mut::<SimDir>()
                        .expect("SimDir")
                        .clone();
                    let grouped_sim = grouped_dir
                        .as_any_mut()
                        .downcast_mut::<SimDir>()
                        .expect("SimDir")
                        .clone();
                    let ra = DurableFleet::recover(Box::new(plain_sim)).expect("recover plain");
                    let rb = DurableFleet::recover(Box::new(grouped_sim)).expect("recover grouped");
                    prop_assert_eq!(ra.epoch, rb.epoch);
                    prop_assert_eq!(ra.epoch, epoch);
                    prop_assert_eq!(ra.memory.cells(), rb.memory.cells());
                    prop_assert_eq!(ra.delta_chain, rb.delta_chain);
                    plain = DurableFleet::open(plain_dir, policy).expect("reopen plain");
                    grouped = DurableFleet::open(grouped_dir, policy)
                        .expect("reopen grouped")
                        .with_group_commit(GroupCommitPolicy::group(1, 0.0));
                }
            }
            // Byte for byte: identical WAL images and identical I/O
            // histories after every step.
            prop_assert_eq!(wal_bytes(&mut plain), wal_bytes(&mut grouped));
            prop_assert_eq!(journal_of(&mut plain), journal_of(&mut grouped));
        }
        // Final recovery agrees with the in-memory shadow on both.
        prop_assert_eq!(plain.shadow().cells(), grouped.shadow().cells());
        let ra = DurableFleet::recover(plain.into_dir()).expect("final plain");
        let rb = DurableFleet::recover(grouped.into_dir()).expect("final grouped");
        prop_assert_eq!(ra.epoch, rb.epoch);
        prop_assert_eq!(ra.memory.cells(), rb.memory.cells());
    }
}
