//! No caller input makes a serving entry point panic. Arbitrary fault
//! plans and fault configs — replica and shard indices up to twice the
//! fleet's, slowdown factors that are NaN, infinite, below 1 or overflow
//! the latency, zero monitor and scrub intervals, zero-cell scrub
//! chunks, brownout thresholds in either order and infinite commit-group
//! deadlines — drive `serve_with_faults` and `serve_durable` on a small
//! fleet under `catch_unwind`. Every call returns `Ok` or `Err`, and a
//! refused `serve_durable` leaves its store's durable epoch where it
//! was.

use std::panic::{catch_unwind, AssertUnwindSafe};

use fat_tree_qram::core::store::{DurableFleet, GroupCommitPolicy, SimDir};
use fat_tree_qram::core::{FatTreeQram, ShardedQram};
use fat_tree_qram::metrics::{Capacity, Layers, TimingModel};
use fat_tree_qram::qsim::branch::{AddressState, ClassicalMemory};
use fat_tree_qram::sched::{FifoAdmission, QuotaAdmission, SloClass, TenantId};
use fat_tree_qram::serve::{
    AdaptiveGroupCommit, BrownoutConfig, ConsistentHashPlacement, Fault, FaultConfig, FaultPlan,
    FleetConfig, FleetRequest, FleetWrite, QramFleet,
};
use proptest::prelude::*;

const REPLICAS: usize = 2;
const SHARDS: u32 = 2;
const CELLS: u64 = 16;

type Fleet = QramFleet<FatTreeQram, QuotaAdmission<FifoAdmission>, ConsistentHashPlacement>;

/// Two replicas of a two-shard, 16-cell Fat-Tree; tenant 1 is
/// Interactive, so a hedge delay has queries to hedge.
fn fleet() -> Fleet {
    QramFleet::new(
        ShardedQram::fat_tree(Capacity::new(CELLS).unwrap(), SHARDS),
        REPLICAS,
        TimingModel::paper_default(),
        QuotaAdmission::new(FifoAdmission).with_slo(TenantId(1), SloClass::Interactive),
        ConsistentHashPlacement,
        FleetConfig {
            queue_capacity: Some(8),
            replication_lag: Layers::new(20.0),
        },
    )
}

fn memory() -> ClassicalMemory {
    let cells: Vec<u64> = (0..CELLS).map(|i| i % 2).collect();
    ClassicalMemory::from_words(1, &cells).unwrap()
}

fn requests() -> Vec<FleetRequest> {
    (0..12)
        .map(|i| FleetRequest {
            id: i,
            tenant: TenantId((i % 2) as u32),
            arrival: Layers::new(15.0 * i as f64),
            address: AddressState::classical(4, (i as u64 * 5) % CELLS).unwrap(),
        })
        .collect()
}

fn writes() -> Vec<FleetWrite> {
    (0..3)
        .map(|i| FleetWrite {
            at: Layers::new(40.0 + 50.0 * i as f64),
            origin: i % REPLICAS,
            address: 3 + i as u64,
            value: 1,
        })
        .collect()
}

/// One of `options`, chosen by `bits`: any of them in a wild case,
/// otherwise one of the first `servable`, which every run must serve.
fn pick<T: Copy>(bits: u64, options: &[T], servable: usize, wild: bool) -> T {
    let n = if wild { options.len() } else { servable };
    options[(bits % n as u64) as usize]
}

/// Decodes one plan entry. The vendored proptest has no tuple
/// strategies, so each u64 packs the fault kind (low four bits), a
/// replica and a shard up to twice their range, two instants (in either
/// order when wild), a slowdown factor, an epoch and a cell.
fn fault(f: u64, wild: bool) -> Fault {
    let replica = pick(f >> 4, &[0, 1, 2, 3], REPLICAS, wild);
    let shard = pick(f >> 6, &[0, 1, 2, 3], SHARDS as usize, wild);
    let (t1, t2) = (
        ((f >> 8) % 64) as f64 * 10.0,
        ((f >> 14) % 64) as f64 * 10.0,
    );
    let (from, until) = if wild {
        (t1, t2)
    } else {
        (t1.min(t2), t1.max(t2))
    };
    let (from, until) = (Layers::new(from), Layers::new(until));
    let factors = [
        1.0,
        3.0,
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        0.5,
        1e308,
    ];
    let factor = pick(f >> 20, &factors, 2, wild);
    let epoch = (f >> 23) % 5;
    let cell = f >> 26;
    match f % 10 {
        0 => Fault::Crash { replica, at: from },
        1 => Fault::Recover { replica, at: from },
        2 => Fault::SlowReplica {
            replica,
            from,
            until,
            factor,
        },
        3 => Fault::StallShard {
            replica,
            shard,
            from,
            until,
        },
        4 => Fault::DropReplication { epoch },
        5 => Fault::DelayReplication { epoch, by: until },
        6 => Fault::CorruptOutcome {
            replica,
            dispatch: (cell % 16) as usize,
        },
        7 => Fault::TornWrite { epoch },
        _ => Fault::DiskCorrupt {
            replica,
            at: from,
            cell,
        },
    }
}

/// Decodes one fault config from the bits of `k`.
fn config(k: u64, wild: bool) -> FaultConfig {
    let zero = Layers::ZERO;
    let brownouts = [
        None,
        Some(BrownoutConfig::default()),
        Some(BrownoutConfig {
            high: 0.3,
            low: 0.5,
        }),
        Some(BrownoutConfig {
            high: 0.5,
            low: f64::NAN,
        }),
    ];
    let groups = [
        GroupCommitPolicy::per_record(),
        GroupCommitPolicy::group(4, 25.0),
        GroupCommitPolicy::group(4, f64::INFINITY),
        GroupCommitPolicy {
            max_records: 4,
            max_delay: f64::NAN,
        },
    ];
    FaultConfig {
        hedge_delay: pick(k, &[None, Some(zero), Some(Layers::new(20.0))], 3, wild),
        monitor_interval: pick(
            k >> 2,
            &[Layers::new(16.0), Layers::new(64.0), zero],
            2,
            wild,
        ),
        brownout: pick(k >> 4, &brownouts, 2, wild),
        scrub_interval: pick(
            k >> 6,
            &[None, Some(Layers::new(50.0)), Some(zero)],
            2,
            wild,
        ),
        scrub_chunk_cells: pick(k >> 8, &[4, 64, 0], 2, wild),
        group_commit: pick(k >> 10, &groups, 2, wild),
        adaptive_group_commit: pick(
            k >> 12,
            &[None, Some(AdaptiveGroupCommit::default())],
            2,
            wild,
        ),
    }
}

proptest! {
    #[test]
    fn no_plan_or_config_makes_serve_panic(
        faults in prop::collection::vec(0u64..u64::MAX, 0..6),
        knobs in 0u64..u64::MAX,
    ) {
        // Half the cases draw any value; the rest only servable ones,
        // which must serve.
        let wild = knobs >> 63 == 1;
        let plan = faults.iter().fold(FaultPlan::none(), |plan, &f| plan.with(fault(f, wild)));
        let config = config(knobs, wild);
        let memory = memory();
        let faulty = catch_unwind(AssertUnwindSafe(|| {
            fleet()
                .serve_with_faults(&memory, requests(), writes(), &plan, &config)
                .is_ok()
        }));
        prop_assert!(faulty.is_ok(), "serve_with_faults panicked: {:?} {:?}", plan, config);
        prop_assert!(wild || matches!(faulty, Ok(true)), "refused: {:?} {:?}", plan, config);
        let mut store = DurableFleet::create(Box::new(SimDir::new()), &memory).unwrap();
        let durable = catch_unwind(AssertUnwindSafe(|| {
            fleet()
                .serve_durable(&memory, requests(), writes(), &plan, &config, &mut store)
                .is_ok()
        }));
        prop_assert!(durable.is_ok(), "serve_durable panicked: {:?} {:?}", plan, config);
        match durable {
            Ok(true) => prop_assert_eq!(store.durable_epoch(), writes().len() as u64),
            _ => {
                prop_assert!(wild, "refused: {:?} {:?}", plan, config);
                prop_assert_eq!(store.durable_epoch(), 0);
            }
        }
    }
}
