//! The three fixed workloads: their fleet shapes, request traces
//! generated from a seed, and the set-up that turns both into a fleet
//! ready to serve.

use std::hint::black_box;
use std::time::Instant;

use qram_core::store::{CheckpointPolicy, DirOp, DurableFleet, GroupCommitPolicy, SimDir};
use qram_core::{FatTreeQram, QramModel, ShardedQram};
use qram_metrics::{Capacity, Layers, TimingModel};
use qram_sched::{
    flash_crowd_arrivals, poisson_arrivals, FifoAdmission, QuotaAdmission, SloClass, TenantId,
    ZipfAddresses,
};
use qram_serve::{
    ConsistentHashPlacement, Fault, FaultConfig, FaultPlan, FleetConfig, FleetReport, FleetRequest,
    FleetWrite, QramFleet,
};
use qsim::branch::{AddressState, ClassicalMemory};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The fleet type every workload serves through.
pub type Fleet = QramFleet<FatTreeQram, QuotaAdmission<FifoAdmission>, ConsistentHashPlacement>;

/// Zipf exponent of every address stream (the YCSB operating point).
const ZIPF_THETA: f64 = 0.99;

const HOT: TenantId = TenantId(0);
const BACKGROUND: TenantId = TenantId(1);

/// `flash_readonly`: hot-tenant flash-crowd requests and background
/// requests.
const FLASH_HOT: usize = 1024;
const FLASH_BACKGROUND: usize = 384;
/// Outstanding-query quota of the hot tenant.
const FLASH_HOT_QUOTA: u32 = 128;
/// Per-replica dispatch-queue bound.
const FLASH_QUEUE: usize = 32;

/// `superposition_kernel`: queries, and distinct addresses per query.
const SUPER_QUERIES: usize = 1024;
const SUPER_BRANCHES: usize = 64;
/// Offered load as a share of the single replica's capacity.
const SUPER_LOAD: f64 = 0.85;

/// `durable_writes_crash`: reads, and one write per this many reads.
const DURABLE_READS: usize = 4096;
const READS_PER_WRITE: usize = 8;
/// Offered read load as a share of the fleet's capacity.
const DURABLE_LOAD: f64 = 0.5;
const DURABLE_QUEUE: usize = 64;
/// The replica that crashes, and when it crashes and restarts, as
/// shares of the read stream's expected span.
const VICTIM: usize = 1;
const CRASH_AT: f64 = 0.35;
const RECOVER_AT: f64 = 0.55;
/// Commit-group size and flush deadline (in admission intervals).
const GROUP_RECORDS: usize = 32;
const GROUP_DEADLINE_INTERVALS: f64 = 96.0;
/// Delta checkpoint every this many synced records; fold after this
/// many deltas.
const CHECKPOINT_EVERY: u64 = 128;
const CHECKPOINT_CHAIN: usize = 3;
/// Scrub cadence (in admission intervals) and digest chunk size.
const SCRUB_INTERVALS: f64 = 256.0;
const SCRUB_CHUNK_CELLS: usize = 256;

/// Replication lag of the multi-replica workloads, in layers.
const REPLICATION_LAG: f64 = 50.0;

/// A named benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Router, admission and shedding dominate; the kernel is cheap.
    FlashReadonly,
    /// Wide superpositions over a large memory; the kernel dominates.
    SuperpositionKernel,
    /// Writes, a durable store, a crash and a cold recovery.
    DurableWritesCrash,
}

/// Replicas `R`, shards per replica `K`, and memory cells `N`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shape {
    /// Fleet size `R`.
    pub replicas: usize,
    /// Shards per replica `K`.
    pub shards: u32,
    /// Memory cells `N`.
    pub cells: u64,
}

/// One workload's generated inputs: the requests and writes of one run.
#[derive(Debug, Clone)]
pub struct Trace {
    /// Queries, ids `0..len` in arrival order.
    pub requests: Vec<FleetRequest>,
    /// Writes in commit order (ascending instant).
    pub writes: Vec<FleetWrite>,
}

impl Workload {
    /// Every workload, in the order the benchmark documents them.
    pub const ALL: [Workload; 3] = [
        Workload::FlashReadonly,
        Workload::SuperpositionKernel,
        Workload::DurableWritesCrash,
    ];

    /// The workload's command-line name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::FlashReadonly => "flash_readonly",
            Workload::SuperpositionKernel => "superposition_kernel",
            Workload::DurableWritesCrash => "durable_writes_crash",
        }
    }

    /// The workload named `name`, if any.
    #[must_use]
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The fleet shape.
    #[must_use]
    pub fn shape(self) -> Shape {
        match self {
            Workload::FlashReadonly => Shape {
                replicas: 4,
                shards: 4,
                cells: 4096,
            },
            Workload::SuperpositionKernel => Shape {
                replicas: 1,
                shards: 8,
                cells: 65536,
            },
            Workload::DurableWritesCrash => Shape {
                replicas: 4,
                shards: 4,
                cells: 4096,
            },
        }
    }

    /// True when the workload serves through `serve_durable`.
    #[must_use]
    pub fn durable(self) -> bool {
        self == Workload::DurableWritesCrash
    }

    fn capacity(self) -> Capacity {
        Capacity::new(self.shape().cells).expect("workload sizes are powers of two")
    }

    fn address_width(self) -> u32 {
        self.capacity().address_width()
    }

    /// One replica's backend.
    #[must_use]
    pub fn qram(self) -> ShardedQram<FatTreeQram> {
        ShardedQram::fat_tree(self.capacity(), self.shape().shards)
    }

    /// One replica's admission interval under the paper timing model,
    /// in layers.
    #[must_use]
    pub fn interval(self) -> f64 {
        self.qram()
            .admission_interval(&TimingModel::paper_default())
            .get()
    }

    /// The base memory image: one random bit per cell.
    #[must_use]
    pub fn memory(self, seed: u64) -> ClassicalMemory {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x6d65_6d6f_7279);
        let cells: Vec<u64> = (0..self.shape().cells)
            .map(|_| rng.random_range(0..2u64))
            .collect();
        ClassicalMemory::from_words(1, &cells).expect("one-bit cells fit the bus")
    }

    /// The request trace of one run, generated from `seed` alone.
    #[must_use]
    pub fn trace(self, seed: u64) -> Trace {
        let mut rng = StdRng::seed_from_u64(seed);
        let zipf = ZipfAddresses::new(self.capacity(), ZIPF_THETA);
        let width = self.address_width();
        let interval = self.interval();
        let fleet_rate = self.shape().replicas as f64 / interval;
        match self {
            Workload::FlashReadonly => {
                // The crowd peaks at 1.5x the fleet's capacity for 60
                // intervals; the background tenant trickles throughout.
                let hot = flash_crowd_arrivals(
                    0.25 * fleet_rate,
                    1.5 * fleet_rate,
                    100.0 * interval,
                    60.0 * interval,
                    FLASH_HOT,
                    &mut rng,
                );
                let background = poisson_arrivals(0.15 * fleet_rate, FLASH_BACKGROUND, &mut rng);
                let mut tagged: Vec<(TenantId, Layers)> = hot
                    .iter()
                    .map(|r| (HOT, r.arrival))
                    .chain(background.iter().map(|r| (BACKGROUND, r.arrival)))
                    .collect();
                tagged.sort_by(|a, b| a.1.get().total_cmp(&b.1.get()));
                let requests = tagged
                    .into_iter()
                    .enumerate()
                    .map(|(id, (tenant, arrival))| FleetRequest {
                        id,
                        tenant,
                        arrival,
                        address: classical(width, zipf.sample(&mut rng)),
                    })
                    .collect();
                Trace {
                    requests,
                    writes: Vec::new(),
                }
            }
            Workload::SuperpositionKernel => {
                let arrivals = poisson_arrivals(SUPER_LOAD * fleet_rate, SUPER_QUERIES, &mut rng);
                let requests = arrivals
                    .into_iter()
                    .enumerate()
                    .map(|(id, r)| {
                        let mut addresses = std::collections::BTreeSet::new();
                        while addresses.len() < SUPER_BRANCHES {
                            addresses.insert(zipf.sample(&mut rng));
                        }
                        let addresses: Vec<u64> = addresses.into_iter().collect();
                        FleetRequest {
                            id,
                            tenant: TenantId::DEFAULT,
                            arrival: r.arrival,
                            address: AddressState::uniform(width, &addresses)
                                .expect("distinct in-range addresses"),
                        }
                    })
                    .collect();
                Trace {
                    requests,
                    writes: Vec::new(),
                }
            }
            Workload::DurableWritesCrash => {
                let read_rate = DURABLE_LOAD * fleet_rate;
                let reads = poisson_arrivals(read_rate, DURABLE_READS, &mut rng);
                let write_times = poisson_arrivals(
                    read_rate / READS_PER_WRITE as f64,
                    DURABLE_READS / READS_PER_WRITE,
                    &mut rng,
                );
                let requests = reads
                    .into_iter()
                    .enumerate()
                    .map(|(id, r)| FleetRequest {
                        id,
                        tenant: TenantId::DEFAULT,
                        arrival: r.arrival,
                        address: classical(width, zipf.sample(&mut rng)),
                    })
                    .collect();
                let writes = write_times
                    .into_iter()
                    .map(|w| FleetWrite {
                        at: w.arrival,
                        origin: rng.random_range(0..self.shape().replicas),
                        address: rng.random_range(0..self.shape().cells),
                        value: rng.random_range(0..2u64),
                    })
                    .collect();
                Trace { requests, writes }
            }
        }
    }

    /// A fresh fleet with the workload's admission policy and router
    /// configuration.
    #[must_use]
    pub fn fleet(self, qram: ShardedQram<FatTreeQram>) -> Fleet {
        let (policy, config) = match self {
            Workload::FlashReadonly => (
                QuotaAdmission::new(FifoAdmission)
                    .with_quota(HOT, FLASH_HOT_QUOTA)
                    .with_slo(BACKGROUND, SloClass::Batch),
                FleetConfig {
                    queue_capacity: Some(FLASH_QUEUE),
                    replication_lag: Layers::new(REPLICATION_LAG),
                },
            ),
            Workload::SuperpositionKernel => {
                (QuotaAdmission::new(FifoAdmission), FleetConfig::default())
            }
            Workload::DurableWritesCrash => (
                QuotaAdmission::new(FifoAdmission),
                FleetConfig {
                    queue_capacity: Some(DURABLE_QUEUE),
                    replication_lag: Layers::new(REPLICATION_LAG),
                },
            ),
        };
        QramFleet::new(
            qram,
            self.shape().replicas,
            TimingModel::paper_default(),
            policy,
            ConsistentHashPlacement,
            config,
        )
    }

    /// The fault plan: one crash and restart on the durable workload,
    /// none elsewhere.
    #[must_use]
    pub fn plan(self) -> FaultPlan {
        if !self.durable() {
            return FaultPlan::none();
        }
        let span =
            DURABLE_READS as f64 / (DURABLE_LOAD * self.shape().replicas as f64) * self.interval();
        FaultPlan::none()
            .with(Fault::Crash {
                replica: VICTIM,
                at: Layers::new(CRASH_AT * span),
            })
            .with(Fault::Recover {
                replica: VICTIM,
                at: Layers::new(RECOVER_AT * span),
            })
    }

    /// The fault-tolerance and durability knobs of `serve_durable`.
    #[must_use]
    pub fn fault_config(self) -> FaultConfig {
        if !self.durable() {
            return FaultConfig::default();
        }
        let interval = self.interval();
        FaultConfig {
            scrub_interval: Some(Layers::new(SCRUB_INTERVALS * interval)),
            scrub_chunk_cells: SCRUB_CHUNK_CELLS,
            group_commit: GroupCommitPolicy::group(
                GROUP_RECORDS,
                GROUP_DEADLINE_INTERVALS * interval,
            ),
            ..FaultConfig::default()
        }
    }

    /// Timed serving calls per second of `--seconds`. A run takes a
    /// fixed number of samples, so its tail percentile never depends on
    /// how fast the code is. On a two-core x86-64 host the read-only
    /// workloads serve for about three quarters of `--seconds`; the
    /// durable one, whose calls take ~12 ms, for about twice `--seconds`,
    /// which it needs to see quiet stretches on a shared host.
    #[must_use]
    pub fn serve_samples_per_second(self) -> f64 {
        match self {
            Workload::FlashReadonly => 1100.0,
            Workload::SuperpositionKernel => 500.0,
            Workload::DurableWritesCrash => 160.0,
        }
    }

    /// The store's checkpoint policy.
    #[must_use]
    pub fn checkpoint_policy(self) -> CheckpointPolicy {
        CheckpointPolicy::deltas(CHECKPOINT_EVERY, CHECKPOINT_CHAIN)
    }
}

fn classical(width: u32, address: u64) -> AddressState {
    AddressState::classical(width, address).expect("sampled addresses are in range")
}

/// Bytes a simulated directory's journal has written (appends and
/// whole-file replaces).
#[must_use]
pub fn journal_bytes(dir: &SimDir) -> u64 {
    dir.journal()
        .iter()
        .map(|op| match op {
            DirOp::Append { bytes, .. } | DirOp::Replace { bytes, .. } => bytes.len() as u64,
            _ => 0,
        })
        .sum()
}

/// The simulated directory behind a store.
///
/// # Panics
///
/// Panics if the store is not backed by a [`SimDir`].
pub fn sim_dir(store: &mut DurableFleet) -> &mut SimDir {
    store
        .dir_mut()
        .as_any_mut()
        .downcast_mut::<SimDir>()
        .expect("benchmark stores live on a SimDir")
}

/// Everything a run needs before its first timed call.
#[derive(Debug)]
pub struct Setup {
    /// The workload.
    pub workload: Workload,
    /// The seed its inputs came from.
    pub seed: u64,
    /// The base memory image.
    pub memory: ClassicalMemory,
    /// The generated inputs.
    pub trace: Trace,
    /// The fleet.
    pub fleet: Fleet,
    /// The fault plan.
    pub plan: FaultPlan,
    /// The fault-tolerance and durability knobs.
    pub config: FaultConfig,
    /// The store directory as created from the base image: the durable
    /// workload's starting point, and what the read-only workloads
    /// cold-recover their image from.
    pub base_store: SimDir,
    /// Wall time the set-up took, in seconds.
    pub seconds: f64,
}

impl Setup {
    /// Builds the memory image and backend, interns the execution plan
    /// with a first call, generates the trace and creates the store.
    ///
    /// # Panics
    ///
    /// Panics if the first call or store creation fails.
    #[must_use]
    pub fn new(workload: Workload, seed: u64) -> Setup {
        let start = Instant::now();
        let memory = workload.memory(seed);
        let qram = workload.qram();
        let probe = classical(workload.address_width(), 0);
        black_box(
            qram.execute_queries(&memory, std::slice::from_ref(&probe), &[])
                .expect("the first call executes"),
        );
        let trace = workload.trace(seed);
        let mut store = DurableFleet::create_with(
            Box::new(SimDir::new()),
            &memory,
            workload.checkpoint_policy(),
        )
        .expect("a simulated directory cannot fail");
        let base_store = sim_dir(&mut store).clone();
        let fleet = workload.fleet(qram);
        let seconds = start.elapsed().as_secs_f64();
        Setup {
            workload,
            seed,
            memory,
            trace,
            fleet,
            plan: workload.plan(),
            config: workload.fault_config(),
            base_store,
            seconds,
        }
    }

    /// A fresh store at the base image, for one durable run.
    ///
    /// # Panics
    ///
    /// Panics if the base directory cannot be opened.
    #[must_use]
    pub fn fresh_store(&self) -> DurableFleet {
        DurableFleet::open(
            Box::new(self.base_store.clone()),
            self.workload.checkpoint_policy(),
        )
        .expect("the base store opens")
    }

    /// Fresh inputs for one serving call: clones of the trace's requests
    /// and writes, and a fresh store on the durable workload.
    #[must_use]
    pub fn inputs(&self) -> (Vec<FleetRequest>, Vec<FleetWrite>, Option<DurableFleet>) {
        (
            self.trace.requests.clone(),
            self.trace.writes.clone(),
            self.workload.durable().then(|| self.fresh_store()),
        )
    }

    /// One serving run over (clones of) the trace: `serve_durable` into
    /// `store` on the durable workload, `serve` elsewhere.
    ///
    /// # Panics
    ///
    /// Panics if serving fails, or if `store` is given exactly when the
    /// workload is not durable.
    pub fn serve(
        &mut self,
        requests: Vec<FleetRequest>,
        writes: Vec<FleetWrite>,
        store: Option<&mut DurableFleet>,
    ) -> FleetReport {
        assert_eq!(store.is_some(), self.workload.durable());
        match store {
            Some(store) => self
                .fleet
                .serve_durable(
                    &self.memory,
                    requests,
                    writes,
                    &self.plan,
                    &self.config,
                    store,
                )
                .expect("durable serving succeeds on a simulated directory"),
            None => self
                .fleet
                .serve(&self.memory, requests, writes)
                .expect("serving succeeds"),
        }
    }
}
