//! End-to-end durability on a *real* filesystem: the same
//! create → serve → kill → recover cycle the SimDir suites prove, run
//! against [`OsDir`] in a scratch directory, so the `std::fs` plumbing
//! (append, atomic rename, read-at-offset streaming recovery) is
//! exercised at least once per CI run.
//!
//! Gated behind the `tempdir-tests` feature because it writes to disk:
//!
//! ```text
//! cargo test --features tempdir-tests --test os_dir_durability
//! ```

#![cfg(feature = "tempdir-tests")]

use std::fs;
use std::path::PathBuf;

use fat_tree_qram::core::store::{
    CheckpointPolicy, DurableFleet, GroupCommitPolicy, OsDir, WAL_FILE,
};
use fat_tree_qram::core::{FatTreeQram, ReplicatedWrite, ShardedQram};
use fat_tree_qram::metrics::{Capacity, Layers, TimingModel};
use fat_tree_qram::qsim::branch::{AddressState, ClassicalMemory};
use fat_tree_qram::sched::{FifoAdmission, TenantId};
use fat_tree_qram::serve::{
    ConsistentHashPlacement, FaultConfig, FaultPlan, FleetConfig, FleetRequest, FleetWrite,
    QramFleet,
};

/// A scratch directory under the cargo-managed tmp dir, unique per
/// test so parallel test threads never collide.
fn scratch(test: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("os_dir_{test}"));
    if dir.exists() {
        fs::remove_dir_all(&dir).expect("clear stale scratch dir");
    }
    dir
}

fn checkerboard(n: u64) -> ClassicalMemory {
    let cells: Vec<u64> = (0..n).map(|i| (i * 5 + 1) % 2).collect();
    ClassicalMemory::from_words(1, &cells).unwrap()
}

fn request(id: usize, arrival: f64, address: u64) -> FleetRequest {
    FleetRequest {
        id,
        tenant: TenantId::DEFAULT,
        arrival: Layers::new(arrival),
        address: AddressState::classical(6, address % 64).unwrap(),
    }
}

fn fifo_fleet(replicas: usize) -> QramFleet<FatTreeQram> {
    QramFleet::new(
        ShardedQram::fat_tree(Capacity::new(64).unwrap(), 2),
        replicas,
        TimingModel::paper_default(),
        FifoAdmission,
        ConsistentHashPlacement,
        FleetConfig {
            queue_capacity: None,
            replication_lag: Layers::new(30.0),
        },
    )
}

#[test]
fn a_served_write_stream_survives_a_kill_on_the_real_filesystem() {
    let root = scratch("serve_kill_recover");
    let memory = checkerboard(64);
    let mut store = DurableFleet::create_with(
        Box::new(OsDir::open(&root).expect("open scratch dir")),
        &memory,
        CheckpointPolicy::deltas(3, 2),
    )
    .expect("create store on disk");

    let writes = vec![
        FleetWrite {
            at: Layers::new(10.0),
            origin: 0,
            address: 3,
            value: 1,
        },
        FleetWrite {
            at: Layers::new(30.0),
            origin: 1,
            address: 9,
            value: 0,
        },
        FleetWrite {
            at: Layers::new(50.0),
            origin: 0,
            address: 12,
            value: 1,
        },
    ];
    let config = FaultConfig {
        group_commit: GroupCommitPolicy::group(2, 40.0),
        ..FaultConfig::default()
    };
    let fleet = fifo_fleet(2);
    let report = fleet
        .serve_durable(
            &memory,
            vec![request(0, 5.0, 1), request(1, 70.0, 3)],
            writes,
            &FaultPlan::none(),
            &config,
            &mut store,
        )
        .expect("durable run");
    assert_eq!(report.fleet_epoch(), 3);
    let integrity = report.integrity();
    assert_eq!(integrity.wal_appends, 3);
    assert!(
        integrity.wal_syncs < integrity.wal_appends,
        "group commit paid fewer fsyncs than appends: {integrity}"
    );
    assert_eq!(store.durable_epoch(), 3, "the end-of-run drain synced all");

    // Kill: drop the store without any shutdown courtesy. The files on
    // the platter are all that survives.
    drop(store);

    let recovered =
        DurableFleet::recover(Box::new(OsDir::open(&root).expect("reopen scratch dir")))
            .expect("recover from the real directory");
    assert_eq!(recovered.epoch, 3);
    assert_eq!(recovered.delta_chain, 1, "epoch 3 installed one delta");
    let mut expect = checkerboard(64);
    expect.write(3, 1);
    expect.write(9, 0);
    expect.write(12, 1);
    assert_eq!(recovered.memory, expect);

    fs::remove_dir_all(&root).expect("clean scratch dir");
}

#[test]
fn an_unsynced_group_tail_is_lost_but_never_resurrected_on_disk() {
    let root = scratch("unsynced_tail");
    let memory = checkerboard(64);
    let mut store = DurableFleet::create_with(
        Box::new(OsDir::open(&root).expect("open scratch dir")),
        &memory,
        CheckpointPolicy::never(),
    )
    .expect("create store on disk")
    .with_group_commit(GroupCommitPolicy::group(4, 0.0));

    // One full group syncs; two more records buffer and never flush.
    for epoch in 1..=6u64 {
        let summary = store
            .append(&ReplicatedWrite {
                epoch,
                origin: 0,
                address: epoch % 64,
                value: epoch % 2,
            })
            .expect("append");
        assert_eq!(summary.synced_records > 0, epoch == 4);
    }
    assert_eq!(store.durable_epoch(), 4);
    assert_eq!(store.pending_records(), 2);
    drop(store); // kill mid-group: the buffered tail dies with the process

    let recovered =
        DurableFleet::recover(Box::new(OsDir::open(&root).expect("reopen scratch dir")))
            .expect("recover");
    assert_eq!(
        recovered.epoch, 4,
        "the synced group survives; the buffered tail is gone"
    );
    assert_eq!(recovered.truncated_bytes, 0, "no torn bytes, just absence");
    let mut expect = checkerboard(64);
    for epoch in 1..=4u64 {
        expect.write(epoch % 64, epoch % 2);
    }
    assert_eq!(recovered.memory, expect);

    // The reopened store keeps appending where the synced prefix ends.
    let mut reopened = DurableFleet::open(
        Box::new(OsDir::open(&root).expect("reopen")),
        CheckpointPolicy::never(),
    )
    .expect("open");
    assert_eq!(reopened.durable_epoch(), 4);
    reopened
        .append(&ReplicatedWrite {
            epoch: 5,
            origin: 0,
            address: 20,
            value: 1,
        })
        .expect("append after recovery");
    assert!(reopened.dir_mut().exists(WAL_FILE));

    fs::remove_dir_all(&root).expect("clean scratch dir");
}
