//! The traced run: serving calls, each followed by replays of the same
//! run's work through each layer's public functions, every call
//! bracketed by a span.
//!
//! A replay times what the fleet did inside `serve*` from the outside:
//! the kernel calls it made per (replica, epoch) group, the clones
//! replication made, the store's appends and flushes, the histogram
//! fold. `fleet.self_ms` is what remains of the serving call once those
//! are subtracted: router, admission, placement, reactor and retries.
//! The layers outside the serving call (trace generation, the FIFO
//! recurrence, the event queue, cold recovery) are timed in a second
//! phase, so their caches do not leak into the serving calls.

use std::collections::BTreeMap;
use std::hint::black_box;

use qram_core::store::{Dir, DurableFleet, SimDir};
use qram_core::{
    execute_batch_traced, BatchCacheStats, QramModel, ReplicatedMemory, ReplicatedWrite,
};
use qram_metrics::{HistogramFamily, Layers};
use qram_sched::{OnlineFifoScheduler, QueryRequest, TenantId};
use qram_serve::{EventQueue, FleetReport, ShedReason};
use qsim::branch::{AddressState, ClassicalMemory};

use crate::gate::{image_at, Verdict};
use crate::span::Tracer;
use crate::workload::{journal_bytes, sim_dir, Setup};

/// Bytes of user data per write: an 8-byte address and an 8-byte value.
const USER_BYTES_PER_WRITE: u64 = 16;

/// Highest replica index with its own dispatch counter.
const MAX_REPLICAS: usize = 4;

/// Every shed reason, with its metric suffix.
const SHED_REASONS: [(ShedReason, &str); 7] = [
    (ShedReason::QueueFull, "queue_full"),
    (ShedReason::QuotaExceeded, "quota_exceeded"),
    (ShedReason::SloShed, "slo_shed"),
    (ShedReason::DeadlineExceeded, "deadline_exceeded"),
    (ShedReason::RetriesExhausted, "retries_exhausted"),
    (ShedReason::Brownout, "brownout"),
    (ShedReason::NoHealthyReplica, "no_healthy_replica"),
];

/// One kernel call the fleet made: a replica's consecutive dispatches
/// against one memory epoch.
struct Group {
    replica: usize,
    image: usize,
    addresses: Vec<AddressState>,
}

/// The run's work, extracted once from its (deterministic) report.
pub struct Replays {
    groups: Vec<Group>,
    /// One image per distinct epoch the groups observed.
    images: Vec<ClassicalMemory>,
    arrivals: Vec<QueryRequest>,
    finishes: Vec<Layers>,
    branches: u64,
    memo: BatchCacheStats,
}

impl Replays {
    /// Rebuilds the fleet's kernel groups from `report`: completed
    /// queries per replica in dispatch order, split where the epoch
    /// changes. Dispatches lost to a crash are not in the report and are
    /// not replayed.
    #[must_use]
    pub fn new(setup: &Setup, report: &FleetReport) -> Replays {
        let requests = &setup.trace.requests;
        let by_id: BTreeMap<usize, &AddressState> =
            requests.iter().map(|r| (r.id, &r.address)).collect();
        let mut order: Vec<usize> = (0..report.completed().len()).collect();
        order.sort_by(|&a, &b| {
            let (qa, qb) = (&report.completed()[a], &report.completed()[b]);
            (qa.replica, qa.start.get(), qa.shard)
                .partial_cmp(&(qb.replica, qb.start.get(), qb.shard))
                .expect("instants are finite")
        });
        let mut epochs: BTreeMap<u64, usize> = BTreeMap::new();
        let mut images = Vec::new();
        let mut groups: Vec<Group> = Vec::new();
        let mut last: Option<(usize, u64)> = None;
        for i in order {
            let q = &report.completed()[i];
            let image = *epochs.entry(q.epoch).or_insert_with(|| {
                images.push(image_at(&setup.memory, &setup.trace.writes, q.epoch));
                images.len() - 1
            });
            if last != Some((q.replica, q.epoch)) {
                groups.push(Group {
                    replica: q.replica,
                    image,
                    addresses: Vec::new(),
                });
                last = Some((q.replica, q.epoch));
            }
            let group = groups.last_mut().expect("a group was just opened");
            group.addresses.push(by_id[&q.id].clone());
        }
        let mut memo = BatchCacheStats::default();
        let mut branches = 0u64;
        for g in &groups {
            let backend = setup.fleet.backend(g.replica);
            let (_, stats) = execute_batch_traced(backend, &images[g.image], &g.addresses, &[])
                .expect("replayed groups execute");
            memo.hits += stats.hits;
            memo.misses += stats.misses;
            branches += g
                .addresses
                .iter()
                .map(|a| a.num_branches() as u64)
                .sum::<u64>();
        }
        Replays {
            groups,
            images,
            arrivals: requests
                .iter()
                .map(|r| QueryRequest {
                    id: r.id,
                    arrival: r.arrival,
                })
                .collect(),
            finishes: report.completed().iter().map(|q| q.finish).collect(),
            branches,
            memo,
        }
    }
}

/// Per-layer values that repeat exactly across runs of one seed: counts
/// read off the report, the store and the replays.
#[must_use]
pub fn counts(
    setup: &Setup,
    report: &FleetReport,
    verdict: &Verdict,
    replays: &Replays,
    store_bytes: u64,
) -> BTreeMap<String, f64> {
    let mut m = BTreeMap::new();
    let mut put = |k: &str, v: f64| {
        m.insert(k.to_string(), v);
    };
    let shed = report.shed_by_reason();
    for (reason, suffix) in SHED_REASONS {
        put(
            &format!("fleet.shed.{suffix}"),
            shed.get(&reason).copied().unwrap_or(0) as f64,
        );
    }
    let avail = report.availability();
    put("fleet.retries", avail.retries as f64);
    put("fleet.failovers", avail.failovers as f64);
    let attempts: u64 = report
        .completed()
        .iter()
        .map(|q| u64::from(q.attempts))
        .sum();
    put(
        "fleet.attempts_per_query",
        attempts as f64 / report.completed().len().max(1) as f64,
    );
    for r in 0..MAX_REPLICAS {
        let n = report.per_replica_dispatches().get(r).copied().unwrap_or(0);
        put(&format!("fleet.dispatches.r{r}"), n as f64);
    }

    put("kernel.calls", replays.groups.len() as f64);
    put(
        "kernel.queries_per_call",
        report.completed().len() as f64 / replays.groups.len().max(1) as f64,
    );
    put("kernel.branches", replays.branches as f64);
    put("kernel.memo_hit_rate", replays.memo.hit_rate());

    let shape = setup.workload.shape();
    let writes = setup.trace.writes.len();
    // The fleet's clones: one base image per replica, then one per
    // (replica, epoch) as each write commits and replicates.
    let snapshots = shape.replicas * (1 + writes);
    put("replication.snapshots", snapshots as f64);
    put(
        "replication.snapshot_mb",
        (snapshots as u64 * shape.cells * 8) as f64 / 1e6,
    );

    let integrity = report.integrity();
    put("store.syncs", integrity.wal_syncs as f64);
    put(
        "store.records_per_sync",
        integrity.wal_appends as f64 / integrity.wal_syncs.max(1) as f64,
    );
    put(
        "store.checkpoints",
        (integrity.checkpoints + integrity.delta_checkpoints) as f64,
    );
    put("store.bytes_written", store_bytes as f64);
    let user_bytes = writes as u64 * USER_BYTES_PER_WRITE;
    put(
        "store.write_amp",
        if user_bytes == 0 {
            0.0
        } else {
            store_bytes as f64 / user_bytes as f64
        },
    );
    put("integrity.scrub_cycles", integrity.scrub_cycles as f64);
    put(
        "integrity.chunks_verified",
        integrity.chunks_verified as f64,
    );
    put("integrity.repairs", integrity.repairs as f64);

    put("failed_fraction", verdict.failed_fraction());
    put("stale_fraction", verdict.stale_fraction());
    m
}

/// The first phase of a traced iteration: the serving call, then
/// replays of the layers inside it, back to back so that each replay
/// starts from the caches the serving call left. Returns the phase's
/// timings (ms or µs as named) and the bytes the timed call's store
/// wrote.
///
/// # Panics
///
/// Panics if serving or a replay fails.
pub fn serving_phase(setup: &mut Setup, replays: &Replays) -> (BTreeMap<String, f64>, u64) {
    // An untimed call first, so the timed one follows a serving call as
    // it does in the end-to-end run, not the previous iteration's
    // replays (which leave it ~60% slower on flash_readonly).
    let (requests, writes, mut store) = setup.inputs();
    black_box(setup.serve(requests, writes, store.as_mut()));
    let (requests, writes, mut store) = setup.inputs();
    let bytes_before = store.as_mut().map_or(0, |s| journal_bytes(sim_dir(s)));
    let mut t = Tracer::new();

    let report = t.span("serve", |_| setup.serve(requests, writes, store.as_mut()));
    let store_bytes = store
        .as_mut()
        .map_or(0, |s| journal_bytes(sim_dir(s)) - bytes_before);

    t.span("kernel", |t| {
        for g in &replays.groups {
            let backend = setup.fleet.backend(g.replica);
            let image = &replays.images[g.image];
            t.span("kernel.call", |_| {
                black_box(
                    backend
                        .execute_queries(image, &g.addresses, &[])
                        .expect("replayed groups execute"),
                )
            });
        }
    });

    let replicas = setup.workload.shape().replicas;
    t.span("replication", |t| {
        let mut memory = t.span("replication.write", |_| {
            let memory = ReplicatedMemory::new(setup.memory.clone(), replicas);
            let snapshots: Vec<ClassicalMemory> =
                (0..replicas).map(|r| memory.memory(r).clone()).collect();
            black_box(snapshots);
            memory
        });
        for w in &setup.trace.writes {
            t.span("replication.write", |_| {
                let epoch = memory.write_at(w.origin, w.address, w.value);
                black_box(memory.memory(w.origin).clone());
                for r in (0..replicas).filter(|&r| r != w.origin) {
                    memory.catch_up_to(r, epoch);
                    black_box(memory.memory(r).clone());
                }
            });
        }
    });

    if setup.workload.durable() {
        t.span("store", |t| {
            let mut store = DurableFleet::create_with(
                Box::new(SimDir::new()),
                &setup.memory,
                setup.workload.checkpoint_policy(),
            )
            .expect("a simulated directory cannot fail")
            .with_group_commit(setup.config.group_commit);
            for (i, w) in setup.trace.writes.iter().enumerate() {
                let record = ReplicatedWrite {
                    epoch: i as u64 + 1,
                    origin: w.origin,
                    address: w.address,
                    value: w.value,
                };
                let summary = t.span("store.append", |_| {
                    store.append(&record).expect("contiguous appends")
                });
                if summary.synced_records > 0 {
                    t.relabel_last("store.flush");
                }
            }
            t.span("store.flush", |_| store.flush().expect("the flush lands"));
        });
    }

    t.span("metrics.fold", |_| {
        let mut per_tenant: HistogramFamily<TenantId> = HistogramFamily::new();
        let mut per_replica: HistogramFamily<usize> = HistogramFamily::new();
        for q in report.completed() {
            per_tenant.record(q.tenant, q.response_latency());
            per_replica.record(q.replica, q.response_latency());
        }
        black_box((per_tenant.merged(), per_replica.merged()))
    });

    let us = |ns: u64| ns as f64 / 1e3;
    let serve = us(t.total("serve"));
    let kernel = us(t.total("kernel.call"));
    let replication = us(t.total("replication.write"));
    let append = us(t.total("store.append"));
    let flush = us(t.total("store.flush"));
    let fold = us(t.total("metrics.fold"));
    let mut m = BTreeMap::new();
    let mut put = |k: &str, v: f64| {
        m.insert(k.to_string(), v);
    };
    put(
        "fleet.self_ms",
        (serve - kernel - replication - append - flush - fold) / 1e3,
    );
    put("kernel.us", kernel);
    put(
        "kernel.ns_per_branch",
        kernel * 1e3 / replays.branches.max(1) as f64,
    );
    put("kernel.share", kernel / serve);
    put("replication.us", replication);
    put("store.append_us", append);
    put("store.flush_us", flush);
    put("metrics.fold_us", fold);
    // The replay harness's own cost (walking groups, creating the
    // store) is the self time of the layer spans: no layer is charged
    // for it.
    put(
        "trace.harness_us",
        us(t.total_self("kernel") + t.total_self("replication") + t.total_self("store")),
    );
    (m, store_bytes)
}

/// The second phase of a traced iteration: the layers outside the
/// serving call — trace generation, the FIFO admission recurrence, the
/// event queue, and cold recovery of `store_dir`.
///
/// # Panics
///
/// Panics if recovery fails.
pub fn side_phase(setup: &Setup, replays: &Replays, store_dir: &SimDir) -> BTreeMap<String, f64> {
    let mut t = Tracer::new();
    t.span("sched.gen", |_| black_box(setup.workload.trace(setup.seed)));
    t.span("sched.fifo", |_| {
        let mut fifo = OnlineFifoScheduler::new(setup.fleet.equivalent_server());
        for &r in &replays.arrivals {
            black_box(fifo.submit(r).expect("arrivals are in order"));
        }
        black_box(fifo.finish())
    });
    t.span("reactor.queue", |_| {
        let mut queue: EventQueue<usize> = EventQueue::new();
        for (i, r) in replays.arrivals.iter().enumerate() {
            queue.push(r.arrival, i);
        }
        for (i, &finish) in replays.finishes.iter().enumerate() {
            queue.push(finish, i);
        }
        while let Some(event) = queue.pop() {
            black_box(event);
        }
    });
    let dir: Box<dyn Dir> = Box::new(store_dir.clone());
    t.span("store.recover", |_| {
        black_box(DurableFleet::recover(dir).expect("the store recovers"))
    });

    let us = |name: &str| t.total(name) as f64 / 1e3;
    BTreeMap::from([
        ("sched.gen_ms".to_string(), us("sched.gen") / 1e3),
        ("sched.fifo_schedule_us".to_string(), us("sched.fifo")),
        ("reactor.queue_us".to_string(), us("reactor.queue")),
        ("store.recover_us".to_string(), us("store.recover")),
    ])
}
