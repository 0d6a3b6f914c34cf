//! Durability suite for the fleet: the crash-consistent WAL + checkpoint
//! store behind `serve_durable`, rejoin-from-disk, and the anti-entropy
//! scrubber. The headline properties:
//!
//! * A replica whose memory silently diverges ([`Fault::DiskCorrupt`])
//!   is found by a chunk-by-chunk comparison with the durable chain and
//!   reset to it, and the repair shows up in the report's
//!   [`IntegrityCounters`]. Without a scrubber the corruption is
//!   *served*.
//! * A lying disk ([`Fault::TornWrite`]) is caught by the scrub's WAL
//!   audit: the torn tail is truncated and the acknowledged epochs are
//!   re-appended from the fleet's in-memory log.
//! * An external [`DurableFleet`] store accumulates the write stream
//!   across serving runs, and recovery from its directory rebuilds
//!   exactly the final memory image.

use fat_tree_qram::core::store::{CheckpointPolicy, DurableFleet, GroupCommitPolicy, SimDir};
use fat_tree_qram::core::{FatTreeQram, ShardedQram};
use fat_tree_qram::metrics::{Capacity, Layers, TimingModel};
use fat_tree_qram::qsim::branch::{AddressState, ClassicalMemory};
use fat_tree_qram::sched::{FifoAdmission, TenantId};
use fat_tree_qram::serve::{
    AdaptiveGroupCommit, ConsistentHashPlacement, Fault, FaultConfig, FaultPlan, FleetConfig,
    FleetRequest, FleetWrite, QramFleet, ServeError,
};
use proptest::prelude::*;

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

fn fifo_fleet(replicas: usize, shards: u32) -> QramFleet<FatTreeQram> {
    QramFleet::new(
        ShardedQram::fat_tree(Capacity::new(64).unwrap(), shards),
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

fn scrub_config(interval: f64) -> FaultConfig {
    FaultConfig {
        scrub_interval: Some(Layers::new(interval)),
        scrub_chunk_cells: 16,
        ..FaultConfig::default()
    }
}

/// checkerboard(64)[5] = (5·5 + 1) % 2 = 0; the corruption flips it.
const PROBE_CELL: u64 = 5;

/// Flips each of `cells` on replica 0 (of one) between layers 50 and 60,
/// then reads every flipped cell back at layer 100, one request per
/// cell (request `i` reads `cells[i]`).
fn corruption_run(config: &FaultConfig, cells: &[u64]) -> fat_tree_qram::serve::FleetReport {
    let fleet = fifo_fleet(1, 2);
    let plan = cells
        .iter()
        .zip(0u32..)
        .fold(FaultPlan::none(), |plan, (&cell, i)| {
            plan.with(Fault::DiskCorrupt {
                replica: 0,
                at: Layers::new(50.0 + f64::from(i)),
                cell,
            })
        });
    let requests = cells
        .iter()
        .enumerate()
        .map(|(i, &cell)| request(i, 100.0, cell))
        .collect::<Vec<_>>();
    fleet
        .serve_with_faults(&checkerboard(64), requests, Vec::new(), &plan, config)
        .unwrap()
}

#[test]
fn without_a_scrubber_silent_corruption_is_served() {
    // The control arm: the disk fault activates the durability tier, but
    // no scrub ever compares memories, so the flipped bit reaches the
    // query and the ledger shows no repair.
    let report = corruption_run(&FaultConfig::default(), &[PROBE_CELL]);
    assert_eq!(report.completed().len(), 1);
    assert_eq!(
        report.outcomes()[0].data_for(PROBE_CELL),
        Some(1),
        "the flipped cell is served verbatim"
    );
    let integrity = report.integrity();
    assert!(integrity.clean(), "nothing audited, nothing repaired");
    assert_eq!(integrity.scrub_cycles, 0);
}

#[test]
fn the_scrubber_repairs_divergence_back_to_chunk_equality() {
    // The treatment arm: the same kind of fault, scrubbing on. The
    // first scrub compares each chunk with the durable chain's image,
    // counts one mismatch per distinct dirty chunk, resets the replica
    // once, and every read after it is clean again. Cells 5 and 6 share
    // every chunk wider than one cell; cell 60 lies in the short last
    // chunk of a 48-cell split (48 + 16).
    let flips = [PROBE_CELL, 6, 60];
    // (chunk cells, chunks per 64-cell image, mismatches for the first
    // 1, 2 and 3 flips)
    let table: [(usize, u64, [u64; 3]); 4] = [
        (1, 64, [1, 2, 3]),
        (16, 4, [1, 1, 2]),
        (48, 2, [1, 1, 2]),
        (64, 1, [1, 1, 1]),
    ];
    for (chunk_cells, chunks, mismatches) in table {
        for (n, &want) in (1..=3).zip(&mismatches) {
            let cells = &flips[..n];
            let config = FaultConfig {
                scrub_chunk_cells: chunk_cells,
                ..scrub_config(75.0)
            };
            let report = corruption_run(&config, cells);
            let case = format!("{chunk_cells}-cell chunks, flips {cells:?}");
            assert_eq!(report.completed().len(), n, "{case}");
            for (query, outcome) in report.completed().iter().zip(report.outcomes()) {
                let cell = cells[query.id];
                assert_eq!(
                    outcome.data_for(cell),
                    Some(checkerboard(64).read(cell)),
                    "{case}: the repaired replica serves the durable chain's value"
                );
            }
            let integrity = report.integrity();
            assert!(integrity.scrub_cycles >= 1, "{case}: {integrity}");
            assert_eq!(
                integrity.chunks_verified,
                integrity.scrub_cycles * chunks,
                "{case}: every cycle compares every chunk: {integrity}"
            );
            assert_eq!(integrity.mismatches, want, "{case}: {integrity}");
            assert_eq!(integrity.repairs, 1, "{case}: {integrity}");
            assert!(!integrity.clean(), "{case}");
        }
    }
}

#[test]
fn a_zero_cell_scrub_chunk_is_rejected_before_the_run() {
    let config = FaultConfig {
        scrub_chunk_cells: 0,
        ..scrub_config(75.0)
    };
    let mut store = DurableFleet::create(Box::new(SimDir::new()), &checkerboard(64)).unwrap();
    let writes = [FleetWrite {
        at: Layers::new(10.0),
        origin: 0,
        address: 3,
        value: 1,
    }];
    let result = fifo_fleet(1, 2).serve_durable(
        &checkerboard(64),
        [request(0, 100.0, PROBE_CELL)],
        writes,
        &FaultPlan::none(),
        &config,
        &mut store,
    );
    assert!(
        matches!(
            result,
            Err(ServeError::FaultConfig {
                field: "scrub_chunk_cells"
            })
        ),
        "got {result:?}"
    );
    assert_eq!(store.durable_epoch(), 0, "a refused run logs nothing");
}

#[test]
fn a_clean_run_gets_a_clean_bill_of_health() {
    // Scrubbing an undamaged fleet verifies chunks and repairs nothing —
    // and the writes it audits are all in the WAL ledger.
    let fleet = fifo_fleet(2, 2);
    let requests: Vec<FleetRequest> = (0..8)
        .map(|i| request(i, 40.0 * i as f64, i as u64))
        .collect();
    let writes = vec![
        FleetWrite {
            at: Layers::new(35.0),
            origin: 0,
            address: 3,
            value: 1,
        },
        FleetWrite {
            at: Layers::new(95.0),
            origin: 1,
            address: 9,
            value: 0,
        },
    ];
    let report = fleet
        .serve_with_faults(
            &checkerboard(64),
            requests,
            writes,
            &FaultPlan::none(),
            &scrub_config(60.0),
        )
        .unwrap();
    assert_eq!(report.completed().len(), 8);
    assert_eq!(report.fleet_epoch(), 2);
    let integrity = report.integrity();
    assert!(integrity.clean(), "{integrity}");
    assert!(integrity.scrub_cycles >= 2, "{integrity}");
    assert!(integrity.chunks_verified > 0);
    assert_eq!(integrity.wal_appends, 2, "one WAL record per fleet epoch");
}

#[test]
fn replicas_behind_the_checkpoint_are_skipped_not_repaired() {
    // Replica 0 takes both writes; replication lags far past the run, so
    // replicas 1 and 2 stay at epoch 0, which the checkpoint at epoch 2
    // compacted away. Each scrub rebuilds epoch 2's image for replica 0,
    // then cannot rebuild epoch 0 for either laggard: both are skipped,
    // and neither is compared with epoch 2's image.
    let fleet = QramFleet::new(
        ShardedQram::fat_tree(Capacity::new(64).unwrap(), 2),
        3,
        TimingModel::paper_default(),
        FifoAdmission,
        ConsistentHashPlacement,
        FleetConfig {
            queue_capacity: None,
            replication_lag: Layers::new(10_000.0),
        },
    );
    let memory = checkerboard(64);
    let mut store =
        DurableFleet::create_with(Box::new(SimDir::new()), &memory, CheckpointPolicy::every(2))
            .unwrap();
    let requests: Vec<FleetRequest> = (0..8)
        .map(|i| request(i, 30.0 * i as f64, i as u64))
        .collect();
    let writes = [(10.0, 5), (20.0, 6)].map(|(at, address)| FleetWrite {
        at: Layers::new(at),
        origin: 0,
        address,
        value: 1 - memory.read(address),
    });
    let report = fleet
        .serve_durable(
            &memory,
            requests,
            writes,
            &FaultPlan::none(),
            &scrub_config(50.0),
            &mut store,
        )
        .unwrap();
    assert_eq!(store.checkpoint_epoch(), 2);
    let integrity = report.integrity();
    assert!(integrity.scrub_cycles >= 3, "{integrity}");
    assert!(integrity.clean(), "{integrity}");
}

#[test]
fn a_torn_write_is_truncated_and_reappended_by_the_scrub_audit() {
    // Epoch 1's durable append tears on the platter while reporting
    // success. The scrub's rescan finds the damage, truncates the torn
    // tail (which also costs the fully-written epoch 2 behind it — a
    // frame scan never resynchronizes past damage), and re-appends both
    // acknowledged epochs from the fleet's in-memory log.
    let fleet = fifo_fleet(1, 2);
    let plan = FaultPlan::none().with(Fault::TornWrite { epoch: 1 });
    let requests: Vec<FleetRequest> = (0..4)
        .map(|i| request(i, 60.0 * i as f64, i as u64))
        .collect();
    let writes = vec![
        FleetWrite {
            at: Layers::new(20.0),
            origin: 0,
            address: 3,
            value: 1,
        },
        FleetWrite {
            at: Layers::new(40.0),
            origin: 0,
            address: 7,
            value: 0,
        },
    ];
    let report = fleet
        .serve_with_faults(
            &checkerboard(64),
            requests,
            writes,
            &plan,
            &scrub_config(50.0),
        )
        .unwrap();
    assert_eq!(report.completed().len(), 4);
    let integrity = report.integrity();
    assert_eq!(integrity.torn_tails_truncated, 1, "{integrity}");
    assert_eq!(integrity.repairs, 2, "epochs 1 and 2 re-appended");
    assert_eq!(
        integrity.wal_appends, 4,
        "2 original appends + 2 re-appends"
    );
    assert_eq!(integrity.mismatches, 0, "replica memories never diverged");
}

#[test]
fn a_restarted_replica_rejoins_from_the_durable_chain() {
    // Replica 1 crashes before either write lands, and its rejoin
    // replays from disk: the durability tier is active (the plan has a
    // disk fault), so recovery resets the replica to the durable chain's
    // image — including the epoch whose append tore and was re-appended
    // by the rejoin's WAL audit.
    let fleet = fifo_fleet(2, 2);
    let plan = FaultPlan::none()
        .with(Fault::Crash {
            replica: 1,
            at: Layers::new(10.0),
        })
        .with(Fault::TornWrite { epoch: 1 })
        .with(Fault::Recover {
            replica: 1,
            at: Layers::new(400.0),
        });
    let requests: Vec<FleetRequest> = (0..12)
        .map(|i| request(i, 70.0 * i as f64, i as u64))
        .collect();
    let total = requests.len();
    let writes = vec![
        FleetWrite {
            at: Layers::new(50.0),
            origin: 0,
            address: 3,
            value: 1,
        },
        FleetWrite {
            at: Layers::new(120.0),
            origin: 0,
            address: 9,
            value: 0,
        },
    ];
    let report = fleet
        .serve_with_faults(
            &checkerboard(64),
            requests,
            writes,
            &plan,
            &FaultConfig::default(),
        )
        .unwrap();
    assert_eq!(report.completed().len(), total);
    assert_eq!(report.availability().crashes, 1);
    assert_eq!(report.availability().recoveries, 1);
    assert_eq!(report.fleet_epoch(), 2);
    let integrity = report.integrity();
    assert_eq!(
        integrity.torn_tails_truncated, 1,
        "the rejoin audit caught the lying disk: {integrity}"
    );
    assert!(integrity.repairs >= 1, "{integrity}");
}

/// A write stream of `n` writes spaced `gap` layers apart, each
/// touching a distinct cell.
fn write_stream(n: u64, gap: f64) -> Vec<FleetWrite> {
    (0..n)
        .map(|i| FleetWrite {
            at: Layers::new(10.0 + gap * i as f64),
            origin: 0,
            address: (i * 7) % 64,
            value: i % 2,
        })
        .collect()
}

#[test]
fn group_commit_batches_acknowledgments_into_fewer_syncs() {
    // Eight writes under a four-record group: two syncs, not eight —
    // the ledger shows exactly the fsyncs the batching saved, and the
    // store's durable watermark still covers every write by run end.
    let memory = checkerboard(64);
    let mut store =
        DurableFleet::create_with(Box::new(SimDir::new()), &memory, CheckpointPolicy::never())
            .unwrap();
    let config = FaultConfig {
        group_commit: GroupCommitPolicy::group(4, 0.0),
        ..FaultConfig::default()
    };
    let fleet = fifo_fleet(1, 2);
    let report = fleet
        .serve_durable(
            &memory,
            vec![request(0, 300.0, 1)],
            write_stream(8, 20.0),
            &FaultPlan::none(),
            &config,
            &mut store,
        )
        .unwrap();
    assert_eq!(report.fleet_epoch(), 8);
    let integrity = report.integrity();
    assert_eq!(integrity.wal_appends, 8, "{integrity}");
    assert_eq!(
        integrity.wal_syncs, 2,
        "two full groups of four: {integrity}"
    );
    assert_eq!(integrity.max_group_records, 4, "{integrity}");
    assert_eq!(store.durable_epoch(), 8, "nothing left buffered");
    assert_eq!(store.pending_records(), 0);
}

#[test]
fn a_flush_deadline_lands_a_lonely_write() {
    // One write opens a group that will never fill; the armed deadline
    // flushes it mid-run rather than holding the acknowledgment until
    // the end-of-run drain.
    let memory = checkerboard(64);
    let mut store =
        DurableFleet::create_with(Box::new(SimDir::new()), &memory, CheckpointPolicy::never())
            .unwrap();
    let config = FaultConfig {
        group_commit: GroupCommitPolicy::group(8, 25.0),
        ..FaultConfig::default()
    };
    let fleet = fifo_fleet(1, 2);
    let report = fleet
        .serve_durable(
            &memory,
            vec![request(0, 5.0, 1)],
            write_stream(1, 20.0),
            &FaultPlan::none(),
            &config,
            &mut store,
        )
        .unwrap();
    let integrity = report.integrity();
    assert_eq!(integrity.wal_appends, 1, "{integrity}");
    assert_eq!(integrity.wal_syncs, 1, "the deadline flushed: {integrity}");
    assert_eq!(integrity.max_group_records, 1, "{integrity}");
    assert_eq!(store.durable_epoch(), 1);
}

#[test]
fn delta_checkpoints_chain_then_fold_in_the_ledger() {
    // Policy: checkpoint every 2 epochs, fold past a chain of 2. Six
    // writes → deltas at epochs 2 and 4, a full fold at 6 — and the
    // report distinguishes all three from each other and from "never
    // checkpointed".
    let memory = checkerboard(64);
    let mut store = DurableFleet::create_with(
        Box::new(SimDir::new()),
        &memory,
        CheckpointPolicy::deltas(2, 2),
    )
    .unwrap();
    let fleet = fifo_fleet(1, 2);
    let report = fleet
        .serve_durable(
            &memory,
            vec![request(0, 200.0, 1)],
            write_stream(6, 25.0),
            &FaultPlan::none(),
            &FaultConfig::default(),
            &mut store,
        )
        .unwrap();
    let integrity = report.integrity();
    assert_eq!(integrity.delta_checkpoints, 2, "{integrity}");
    assert_eq!(
        integrity.checkpoints, 1,
        "the fold is a full image: {integrity}"
    );
    assert_eq!(
        integrity.delta_chain_len,
        Some(0),
        "the fold left a bare base image: {integrity}"
    );
    assert_eq!(store.delta_chain_len(), 0);
    assert_eq!(store.checkpoint_epoch(), 6);
}

#[test]
fn a_checkpoint_free_run_reports_no_chain_at_all() {
    // The zero-state fix: no checkpoint work ran, so the chain gauge is
    // absent — not a `0` that would read as "full image, current".
    let memory = checkerboard(64);
    let mut store =
        DurableFleet::create_with(Box::new(SimDir::new()), &memory, CheckpointPolicy::never())
            .unwrap();
    let fleet = fifo_fleet(1, 2);
    let report = fleet
        .serve_durable(
            &memory,
            vec![request(0, 60.0, 1)],
            write_stream(2, 20.0),
            &FaultPlan::none(),
            &FaultConfig::default(),
            &mut store,
        )
        .unwrap();
    let integrity = report.integrity();
    assert_eq!(integrity.delta_chain_len, None, "{integrity}");
    assert!(integrity.to_string().ends_with("chain=-"), "{integrity}");
}

#[test]
fn the_adaptive_controller_widens_groups_under_a_write_burst() {
    // Dense writes with a fast monitor: each tick sees more appends
    // than the current group holds and doubles the knob, clamped to the
    // configured ceiling. The run ends with wider groups than it began
    // and fewer syncs than appends.
    let memory = checkerboard(64);
    let mut store =
        DurableFleet::create_with(Box::new(SimDir::new()), &memory, CheckpointPolicy::never())
            .unwrap();
    let config = FaultConfig {
        monitor_interval: Layers::new(20.0),
        adaptive_group_commit: Some(AdaptiveGroupCommit {
            min_records: 1,
            max_records: 8,
        }),
        ..FaultConfig::default()
    };
    let requests: Vec<FleetRequest> = (0..6)
        .map(|i| request(i, 40.0 * i as f64, i as u64))
        .collect();
    let fleet = fifo_fleet(1, 2);
    let report = fleet
        .serve_durable(
            &memory,
            requests,
            write_stream(48, 4.0),
            &FaultPlan::none(),
            &config,
            &mut store,
        )
        .unwrap();
    assert_eq!(report.fleet_epoch(), 48);
    let integrity = report.integrity();
    assert_eq!(integrity.wal_appends, 48, "{integrity}");
    assert!(
        integrity.wal_syncs < integrity.wal_appends,
        "widened groups paid fewer syncs: {integrity}"
    );
    assert!(
        integrity.max_group_records > 1,
        "at least one multi-record group landed: {integrity}"
    );
    // Both directions: the burst widened the knob (multi-record groups
    // landed above), and the idle ticks after the burst halved it back
    // down below the ceiling before the run closed.
    assert!(
        store.group_commit().max_records < 8,
        "idle ticks narrow the knob back: {:?}",
        store.group_commit()
    );
    assert!(store.group_commit().max_records >= 1);
    assert_eq!(store.durable_epoch(), 48, "the end-of-run drain synced all");
}

#[test]
fn serve_durable_persists_the_write_stream_across_runs() {
    // An external store accumulates the WAL across two serving runs. The
    // second run starts where the first left off (its fleet epochs are
    // offset by the store's durable watermark), and recovery from the
    // directory alone rebuilds the final image.
    let memory = checkerboard(64);
    let mut store =
        DurableFleet::create_with(Box::new(SimDir::new()), &memory, CheckpointPolicy::every(3))
            .unwrap();

    let writes_a = vec![
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
    ];
    let fleet = fifo_fleet(2, 2);
    let report_a = fleet
        .serve_durable(
            &memory,
            vec![request(0, 5.0, 1)],
            writes_a,
            &FaultPlan::none(),
            &FaultConfig::default(),
            &mut store,
        )
        .unwrap();
    assert_eq!(report_a.fleet_epoch(), 2);
    assert_eq!(report_a.integrity().wal_appends, 2);
    assert_eq!(store.durable_epoch(), 2);

    // Run two starts from the durable chain's image, as a restarted
    // fleet would.
    let resumed = store.shadow().clone();
    let writes_b = vec![FleetWrite {
        at: Layers::new(10.0),
        origin: 0,
        address: 12,
        value: 1,
    }];
    let fleet_b = fifo_fleet(2, 2);
    let report_b = fleet_b
        .serve_durable(
            &resumed,
            vec![request(0, 5.0, 2)],
            writes_b,
            &FaultPlan::none(),
            &FaultConfig::default(),
            &mut store,
        )
        .unwrap();
    assert_eq!(report_b.fleet_epoch(), 1, "run-local epochs restart at 1");
    assert_eq!(store.durable_epoch(), 3, "the store's chain keeps growing");
    assert_eq!(
        report_b.integrity().checkpoints,
        1,
        "the policy checkpointed at store epoch 3"
    );

    // Crash the whole fleet: the directory alone rebuilds the image.
    let recovered = DurableFleet::recover(store.into_dir()).unwrap();
    assert_eq!(recovered.epoch, 3);
    let mut expect = checkerboard(64);
    expect.write(3, 1);
    expect.write(9, 0);
    expect.write(12, 1);
    assert_eq!(recovered.memory, expect);
}

#[test]
fn serve_durable_rejects_a_store_that_does_not_end_at_the_memory() {
    // The first store's chain ends at the checkerboard, but the run
    // starts from all zeros: its scrubs and rejoins would reset replicas
    // toward the wrong image. The second holds the run's zeros at bus
    // width 2, so a repair would hand a replica an image of another
    // width. Each call fails before it serves or logs anything.
    for image in [
        checkerboard(64),
        ClassicalMemory::from_words(2, &[0; 64]).unwrap(),
    ] {
        let mut store =
            DurableFleet::create_with(Box::new(SimDir::new()), &image, CheckpointPolicy::never())
                .unwrap();
        let write = FleetWrite {
            at: Layers::new(10.0),
            origin: 0,
            address: 3,
            value: 1,
        };
        let result = fifo_fleet(2, 2).serve_durable(
            &ClassicalMemory::zeros(64),
            vec![request(0, 5.0, 1)],
            vec![write],
            &FaultPlan::none(),
            &FaultConfig::default(),
            &mut store,
        );
        assert!(matches!(result, Err(ServeError::StoreMismatch)));
        assert_eq!(store.durable_epoch(), 0, "nothing reached the log");
        assert_eq!(store.pending_records(), 0);
    }
}

/// Bus widths of the scrub-count property: 1-bit cells (64 per packed
/// word), a width that rounds up to a 4-bit lane, a whole byte, and one
/// cell per word.
const SCRUB_BUS_WIDTHS: [u32; 4] = [1, 3, 8, 63];

proptest! {
    /// The scrub compares packed words, but counts what a per-cell
    /// comparison counts: random cells of random replicas are flipped,
    /// some before the one scrub tick (layer 50) and some after it, where
    /// only the end-of-run scrub finds them. Every cycle verifies
    /// ⌈N / chunk⌉ chunks per replica, and a cycle's mismatches are the
    /// chunks, cut from the cells in address order, in which a replica's
    /// cells differ from the base; a replica with any is reset. Chunks of
    /// 1 to 300 cells straddle packed words at every lane width and span
    /// several words at the narrow ones.
    #[test]
    fn scrub_counts_equal_a_per_cell_reference(
        width_pick in 0usize..4,
        n in 1u32..=10,
        replicas in 1usize..=4,
        chunk in 1usize..=300,
        raw_cells in prop::collection::vec(0u64..=u64::MAX, 1..64),
        // Each u64 encodes a flip: replica, instant and cell.
        flips in prop::collection::vec(0u64..=u64::MAX, 0..24),
    ) {
        let bus_width = SCRUB_BUS_WIDTHS[width_pick];
        let capacity = 1usize << n;
        let cells: Vec<u64> = (0..capacity)
            .map(|i| raw_cells[i % raw_cells.len()].rotate_left(i as u32) & ((1 << bus_width) - 1))
            .collect();
        let memory = ClassicalMemory::from_words(bus_width, &cells).unwrap();
        let flips: Vec<(usize, f64, u64)> = flips
            .iter()
            .map(|&f| {
                let replica = (f % replicas as u64) as usize;
                // Quarter-layer instants never tie with the tick at 50.
                let at = ((f >> 8) % 200) as f64 / 2.0 + 0.25;
                (replica, at, (f >> 16) % capacity as u64)
            })
            .collect();
        let plan = flips.iter().fold(FaultPlan::none(), |plan, &(replica, at, cell)| {
            plan.with(Fault::DiskCorrupt {
                replica,
                at: Layers::new(at),
                cell,
            })
        });
        let config = FaultConfig {
            scrub_interval: Some(Layers::new(50.0)),
            scrub_chunk_cells: chunk,
            ..FaultConfig::default()
        };
        let fleet = QramFleet::fifo(
            ShardedQram::fat_tree(Capacity::new(capacity as u64).unwrap(), 1),
            replicas,
            TimingModel::paper_default(),
        );
        let report = fleet
            .serve_with_faults(&memory, Vec::new(), Vec::new(), &plan, &config)
            .unwrap();
        let integrity = report.integrity();
        prop_assert_eq!(integrity.scrub_cycles, 2);

        // The reference: one plain cell vector per replica, flipped in
        // instant order, compared chunk by chunk at each cycle.
        let mut images = vec![cells.clone(); replicas];
        let mut order: Vec<usize> = (0..flips.len()).collect();
        order.sort_by(|&a, &b| flips[a].1.total_cmp(&flips[b].1));
        let (mut mismatches, mut repairs) = (0, 0);
        let mut cycle = |images: &mut Vec<Vec<u64>>| {
            for image in images.iter_mut() {
                let dirty = image
                    .chunks(chunk)
                    .zip(cells.chunks(chunk))
                    .filter(|(have, want)| have != want)
                    .count() as u64;
                if dirty > 0 {
                    mismatches += dirty;
                    repairs += 1;
                    image.clone_from(&cells);
                }
            }
        };
        let mut ticked = false;
        for &i in &order {
            let (replica, at, cell) = flips[i];
            if at > 50.0 && !ticked {
                cycle(&mut images);
                ticked = true;
            }
            images[replica][cell as usize] ^= 1;
        }
        if !ticked {
            cycle(&mut images);
        }
        cycle(&mut images);
        let per_cycle = (replicas * capacity.div_ceil(chunk)) as u64;
        prop_assert_eq!(integrity.chunks_verified, 2 * per_cycle);
        prop_assert_eq!(integrity.mismatches, mismatches);
        prop_assert_eq!(integrity.repairs, repairs);
    }
}
