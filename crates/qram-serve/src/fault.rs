//! Deterministic fault injection and fault-tolerance knobs for the fleet.
//!
//! A fleet that claims availability has to earn it against failures, and
//! failures that cannot be replayed cannot be debugged. This module keeps
//! the whole fault story *inside* the discrete-event clock: a
//! [`FaultPlan`] is an explicit list of [`Fault`]s pinned to virtual
//! instants (or to dispatch indices / replication epochs), so the same
//! plan against the same workload produces the same crash, the same
//! failover, and the same report — seed-reproducible chaos, not
//! wall-clock chaos.
//!
//! The pieces:
//!
//! * [`Fault`] / [`FaultPlan`] — the injectable fault taxonomy (replica
//!   crash and rejoin, slowdown windows, per-shard stalls, dropped
//!   or delayed replication-log catch-up, corrupted dispatch outcomes)
//!   plus a seeded generator ([`FaultPlan::from_seed`]) for chaos suites.
//! * [`ReplicaHealth`] — the per-replica health state machine the fleet's
//!   monitor drives (`Healthy → Suspect → Down → Recovering → Healthy`).
//! * [`FaultConfig`] — the tolerance knobs: hedge delay, monitor
//!   cadence, the optional [`BrownoutConfig`] degradation thresholds, and
//!   the durability tier's scrub cadence and commit groups.
//! * [`BrownoutController`] — hysteresis over fleet occupancy that sheds
//!   whole SLO classes, cheapest first (`Batch`, then `Standard`, then
//!   `Interactive`), instead of failing everyone a little.
//! * [`parity_bit`] / [`corrupt_outcome`] — the detection side of outcome
//!   corruption: a flipped data bit always flips the outcome parity, so a
//!   corrupted read is *caught and re-served*, never silently returned.
//!
//! An empty plan plus the default config is guaranteed passive: the fleet
//! schedules no monitor events and its behavior is bit-identical to the
//! fault-free serving loop (property-tested in `tests/fleet_faults.rs`).

use qram_core::store::GroupCommitPolicy;
use qram_metrics::Layers;
use qram_sched::SloClass;
use qsim::branch::QueryOutcome;
use qsim::Complex;

/// Health of one replica as seen by the fleet's failure detector.
///
/// Transitions: a missed heartbeat (monitor tick while the replica is
/// dead) or a violated completion-latency assertion moves `Healthy` to
/// `Suspect`; a second consecutive miss moves `Suspect` to `Down` and
/// triggers failover of everything the replica held. A `Recover` fault
/// brings the replica back as `Recovering` while it replays the
/// replication log; only after replay does it rejoin as `Healthy`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplicaHealth {
    /// Heartbeats current, latency within bounds: fully in rotation.
    Healthy,
    /// One missed heartbeat or a latency violation: still routable, but
    /// deprioritized by load-aware placement.
    Suspect,
    /// Declared failed: not routable; its in-flight and queued queries
    /// have been failed over.
    Down,
    /// Back up but replaying the replication log: not yet routable.
    Recovering,
}

impl ReplicaHealth {
    /// True when the router may place new queries on the replica
    /// (`Healthy` or `Suspect` — a suspect still serves, a `Down` or
    /// `Recovering` replica does not).
    #[must_use]
    pub fn routable(self) -> bool {
        matches!(self, ReplicaHealth::Healthy | ReplicaHealth::Suspect)
    }
}

/// One injected fault, pinned to the virtual clock (or to a dispatch
/// index / replication epoch, which are themselves deterministic).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Fault {
    /// The replica dies at `at`: queued and in-flight queries are lost
    /// (and later failed over), offers keep landing until the detector
    /// declares it `Down`.
    Crash {
        /// The replica that crashes.
        replica: usize,
        /// Crash instant in virtual layer time.
        at: Layers,
    },
    /// The replica restarts at `at` and begins replaying the replication
    /// log; it rejoins rotation once replay completes.
    Recover {
        /// The replica that restarts.
        replica: usize,
        /// Restart instant in virtual layer time.
        at: Layers,
    },
    /// Every query the replica completes in `[from, until)` takes
    /// `factor ×` its nominal latency — a degraded-but-alive replica the
    /// latency assertion should flag.
    SlowReplica {
        /// The replica that slows down.
        replica: usize,
        /// Start of the slow window.
        from: Layers,
        /// End of the slow window (exclusive).
        until: Layers,
        /// Service-time multiplier, `≥ 1`.
        factor: f64,
    },
    /// One shard freezes in `[from, until)`: strict FIFO means the whole
    /// replica stops dispatching while the next query in its queue runs
    /// on the stalled shard.
    StallShard {
        /// The replica whose shard stalls.
        replica: usize,
        /// The stalled shard index.
        shard: usize,
        /// Start of the stall.
        from: Layers,
        /// End of the stall (the dispatcher is re-pumped here).
        until: Layers,
    },
    /// The replication-log catch-up for `epoch` never fires: replicas
    /// stay stale until a later epoch's catch-up (or recovery replay)
    /// carries the prefix past it.
    DropReplication {
        /// The fleet epoch whose catch-up is dropped.
        epoch: u64,
    },
    /// The replication-log catch-up for `epoch` lands `by` layers later
    /// than the configured replication lag.
    DelayReplication {
        /// The fleet epoch whose catch-up is delayed.
        epoch: u64,
        /// Extra delay beyond the configured replication lag.
        by: Layers,
    },
    /// The `dispatch`-th query dispatched at `replica` completes with a
    /// flipped data bit. The parity check catches it and the query is
    /// re-served under the retry budget.
    CorruptOutcome {
        /// The replica whose dispatch is corrupted.
        replica: usize,
        /// Dispatch-order index of the corrupted query.
        dispatch: usize,
    },
    /// The durable write-ahead-log append for `epoch` tears on the
    /// platter while reporting success — a lying disk. The anti-entropy
    /// scrubber's disk audit finds the torn tail, truncates it, and
    /// re-appends the lost acknowledged epochs from the fleet's
    /// in-memory log. Activates the durability tier even without an
    /// external store (an ephemeral in-memory store is used).
    TornWrite {
        /// The fleet epoch whose durable append tears.
        epoch: u64,
    },
    /// A bit silently flips in one memory cell of `replica` at `at` —
    /// media corruption invisible to staleness tracking, caught only by
    /// the scrubber's chunk-by-chunk comparison with the durable chain
    /// (which then repairs the replica from checkpoint + WAL state).
    DiskCorrupt {
        /// The replica whose memory corrupts.
        replica: usize,
        /// Corruption instant in virtual layer time.
        at: Layers,
        /// The corrupted cell (reduced modulo the memory capacity).
        cell: u64,
    },
}

/// What happens to the replication catch-up of one epoch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ReplicationFate {
    /// Catch-up fires after the configured replication lag.
    Deliver,
    /// Catch-up never fires for this epoch.
    Drop,
    /// Catch-up fires the given extra delay after the configured lag.
    Delay(Layers),
}

/// A deterministic, replayable set of faults to inject into one serving
/// run. The empty plan is guaranteed passive.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    faults: Vec<Fault>,
}

impl FaultPlan {
    /// The empty plan: no faults, bit-identical serving.
    #[must_use]
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// True when the plan injects nothing.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// Adds one fault (builder style).
    #[must_use]
    pub fn with(mut self, fault: Fault) -> Self {
        self.faults.push(fault);
        self
    }

    /// The faults, in insertion order.
    #[must_use]
    pub fn faults(&self) -> &[Fault] {
        &self.faults
    }

    /// A seeded pseudo-random plan over `replicas` replicas of `shards`
    /// shards within the virtual horizon — the chaos-suite generator.
    /// The same seed always yields the same plan (splitmix64, no global
    /// RNG state), so a failing chaos case replays from its seed alone.
    ///
    /// Roughly: each replica has a 40 % chance of one crash (75 % of
    /// crashes recover within the horizon), plus up to one slowdown
    /// window, one shard stall, a few dropped or delayed replication
    /// epochs, and a few corrupted dispatches.
    ///
    /// # Panics
    ///
    /// Panics if `replicas` or `shards` is zero or the horizon is not
    /// positive.
    #[must_use]
    pub fn from_seed(seed: u64, replicas: usize, shards: usize, horizon: Layers) -> Self {
        assert!(replicas >= 1, "a fleet has at least one replica");
        assert!(shards >= 1, "a replica has at least one shard");
        assert!(horizon > Layers::ZERO, "the fault horizon must be positive");
        let mut state = seed ^ 0x6A09_E667_F3BC_C908;
        let span = horizon.get();
        let mut plan = FaultPlan::none();
        for replica in 0..replicas {
            if uniform(&mut state) < 0.4 {
                let at = Layers::new(span * (0.2 + 0.4 * uniform(&mut state)));
                plan.faults.push(Fault::Crash { replica, at });
                if uniform(&mut state) < 0.75 {
                    let back = at + Layers::new(span * (0.1 + 0.3 * uniform(&mut state)));
                    plan.faults.push(Fault::Recover { replica, at: back });
                }
            }
            if uniform(&mut state) < 0.3 {
                let from = Layers::new(span * 0.5 * uniform(&mut state));
                let until = from + Layers::new(span * (0.1 + 0.3 * uniform(&mut state)));
                let factor = 2.0 + 6.0 * uniform(&mut state);
                plan.faults.push(Fault::SlowReplica {
                    replica,
                    from,
                    until,
                    factor,
                });
            }
            if uniform(&mut state) < 0.25 {
                let shard = (splitmix64(&mut state) % shards as u64) as usize;
                let from = Layers::new(span * 0.6 * uniform(&mut state));
                let until = from + Layers::new(span * (0.05 + 0.2 * uniform(&mut state)));
                plan.faults.push(Fault::StallShard {
                    replica,
                    shard,
                    from,
                    until,
                });
            }
        }
        for epoch in 1..=4u64 {
            if uniform(&mut state) < 0.1 {
                plan.faults.push(Fault::DropReplication { epoch });
            } else if uniform(&mut state) < 0.15 {
                let by = Layers::new(span * 0.2 * uniform(&mut state));
                plan.faults.push(Fault::DelayReplication { epoch, by });
            }
        }
        for _ in 0..3 {
            if uniform(&mut state) < 0.3 {
                let replica = (splitmix64(&mut state) % replicas as u64) as usize;
                let dispatch = (splitmix64(&mut state) % 64) as usize;
                plan.faults
                    .push(Fault::CorruptOutcome { replica, dispatch });
            }
        }
        // Disk faults: a torn durable append on an early epoch, and up to
        // two silent bit flips for the scrubber to find and repair.
        for epoch in 1..=4u64 {
            if uniform(&mut state) < 0.15 {
                plan.faults.push(Fault::TornWrite { epoch });
            }
        }
        for _ in 0..2 {
            if uniform(&mut state) < 0.3 {
                let replica = (splitmix64(&mut state) % replicas as u64) as usize;
                let at = Layers::new(span * (0.1 + 0.7 * uniform(&mut state)));
                let cell = splitmix64(&mut state);
                plan.faults.push(Fault::DiskCorrupt { replica, at, cell });
            }
        }
        plan
    }

    /// True when the plan contains any [`Fault::SlowReplica`] — lets the
    /// serving loop skip the slow-factor adjustment (and its float
    /// round-trip) entirely on plans without slowdowns.
    #[must_use]
    pub fn has_slow_faults(&self) -> bool {
        self.faults
            .iter()
            .any(|f| matches!(f, Fault::SlowReplica { .. }))
    }

    /// The service-time multiplier for a query dispatched at `replica`
    /// at instant `at`: the largest active slowdown factor, or `1.0`.
    #[must_use]
    pub fn slow_factor(&self, replica: usize, at: Layers) -> f64 {
        self.faults.iter().fold(1.0, |acc: f64, fault| match fault {
            Fault::SlowReplica {
                replica: r,
                from,
                until,
                factor,
            } if *r == replica && at >= *from && at < *until => acc.max(*factor),
            _ => acc,
        })
    }

    /// True when the `dispatch`-th dispatch at `replica` is corrupted.
    #[must_use]
    pub fn corrupts(&self, replica: usize, dispatch: usize) -> bool {
        self.faults.iter().any(|fault| {
            matches!(
                fault,
                Fault::CorruptOutcome {
                    replica: r,
                    dispatch: d,
                } if *r == replica && *d == dispatch
            )
        })
    }

    /// True when the plan contains any disk fault ([`Fault::TornWrite`]
    /// or [`Fault::DiskCorrupt`]) — such plans activate the durability
    /// tier (with an ephemeral store if none was supplied) so the faults
    /// have a durable chain to lie against and be audited by.
    #[must_use]
    pub fn has_disk_faults(&self) -> bool {
        self.faults
            .iter()
            .any(|f| matches!(f, Fault::TornWrite { .. } | Fault::DiskCorrupt { .. }))
    }

    /// True when the durable append for `epoch` tears on the platter.
    #[must_use]
    pub fn tears(&self, epoch: u64) -> bool {
        self.faults
            .iter()
            .any(|f| matches!(f, Fault::TornWrite { epoch: e } if *e == epoch))
    }

    /// The fate of the replication catch-up for `epoch` (first matching
    /// drop or delay wins; the default is delivery).
    #[must_use]
    pub fn replication_fate(&self, epoch: u64) -> ReplicationFate {
        for fault in &self.faults {
            match fault {
                Fault::DropReplication { epoch: e } if *e == epoch => {
                    return ReplicationFate::Drop;
                }
                Fault::DelayReplication { epoch: e, by } if *e == epoch => {
                    return ReplicationFate::Delay(*by);
                }
                _ => {}
            }
        }
        ReplicationFate::Deliver
    }
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn uniform(state: &mut u64) -> f64 {
    (splitmix64(state) >> 11) as f64 / (1u64 << 53) as f64
}

/// Occupancy thresholds of the brownout controller, as fractions of the
/// fleet's routable serving slots.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BrownoutConfig {
    /// Occupancy at or above which the controller escalates one level.
    pub high: f64,
    /// Occupancy at or below which it de-escalates one level
    /// (hysteresis: must be below `high`).
    pub low: f64,
}

impl BrownoutConfig {
    /// True when the thresholds are `0 ≤ low < high`.
    pub(crate) fn is_valid(self) -> bool {
        self.low >= 0.0 && self.low < self.high
    }
}

impl Default for BrownoutConfig {
    fn default() -> Self {
        BrownoutConfig {
            high: 0.75,
            low: 0.40,
        }
    }
}

/// Graceful-degradation state: sheds whole SLO classes, cheapest first,
/// when the routable fleet runs hot.
///
/// The controller holds a level in `0..=3`, moved one step per monitor
/// tick by occupancy hysteresis: level 1 sheds `Batch`, level 2 also
/// sheds `Standard`, level 3 sheds everything. Shedding a class outright
/// keeps the survivors' latency intact instead of failing every tenant a
/// little — the brownout trade.
///
/// # Examples
///
/// ```
/// use qram_serve::{BrownoutConfig, BrownoutController};
/// use qram_sched::SloClass;
///
/// let mut ctrl = BrownoutController::new(BrownoutConfig::default());
/// assert!(!ctrl.sheds(SloClass::Batch));
/// ctrl.observe(0.9); // hot: escalate to level 1
/// assert!(ctrl.sheds(SloClass::Batch));
/// assert!(!ctrl.sheds(SloClass::Standard));
/// ctrl.observe(0.2); // cool: back to level 0
/// assert!(!ctrl.sheds(SloClass::Batch));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BrownoutController {
    config: BrownoutConfig,
    level: u8,
}

impl BrownoutController {
    /// A controller at level 0 (shedding nothing).
    ///
    /// # Panics
    ///
    /// Panics unless `0 ≤ low < high`.
    #[must_use]
    pub fn new(config: BrownoutConfig) -> Self {
        assert!(
            config.is_valid(),
            "brownout hysteresis needs 0 ≤ low < high, got low={} high={}",
            config.low,
            config.high
        );
        BrownoutController { config, level: 0 }
    }

    /// The current degradation level in `0..=3`.
    #[must_use]
    pub fn level(&self) -> u8 {
        self.level
    }

    /// Feeds one occupancy observation (fraction of routable serving
    /// slots in use), moving the level at most one step.
    pub fn observe(&mut self, occupancy: f64) {
        if occupancy >= self.config.high && self.level < 3 {
            self.level += 1;
        } else if occupancy <= self.config.low && self.level > 0 {
            self.level -= 1;
        }
    }

    /// True when arrivals of the given SLO class are shed at the current
    /// level (`Batch` first, then `Standard`, then `Interactive`).
    #[must_use]
    pub fn sheds(&self, class: SloClass) -> bool {
        let threshold = match class {
            SloClass::Batch => 1,
            SloClass::Standard => 2,
            SloClass::Interactive => 3,
        };
        self.level >= threshold
    }
}

/// Fault-tolerance configuration of the serving loop: how often to
/// monitor, whether to hedge and degrade, and how the durability tier
/// scrubs and groups its commits. The default is fully passive (no
/// hedging, no brownout) and, combined with an empty [`FaultPlan`],
/// schedules no monitor events at all.
///
/// The rest of the fault story is fixed: lost attempts retry under the
/// default [`RetryPolicy`](qram_sched::RetryPolicy), a completion slower
/// than four nominal latencies marks its replica
/// [`ReplicaHealth::Suspect`], and a recovering replica replays one
/// layer per lagged log entry before it rejoins.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultConfig {
    /// When set, an [`SloClass::Interactive`] tenant's query still
    /// outstanding this long after arrival gets a duplicate dispatch on
    /// a second replica; the first completion wins.
    pub hedge_delay: Option<Layers>,
    /// Cadence of the health monitor: heartbeat misses are counted and
    /// brownout occupancy sampled once per tick. Must be positive while
    /// the monitor runs.
    pub monitor_interval: Layers,
    /// Enables the brownout controller with the given thresholds.
    pub brownout: Option<BrownoutConfig>,
    /// Cadence of the anti-entropy scrubber: each tick audits the
    /// durable WAL against the disk (truncating torn tails and
    /// re-appending lost epochs from the in-memory log) and compares
    /// every live replica's memory, chunk by chunk, with the durable
    /// chain's expected image, repairing divergence. `None` (the
    /// default) disables scrubbing and keeps the loop passive.
    pub scrub_interval: Option<Layers>,
    /// Memory cells per chunk in scrub comparisons (granularity of
    /// divergence localization: each differing chunk counts as one
    /// mismatch). Must be positive when scrubbing is on.
    pub scrub_chunk_cells: usize,
    /// Commit-group policy for the durable store: how many WAL records
    /// may share one sync, and the virtual-time flush deadline the
    /// reactor arms when a group opens; the deadline must be finite
    /// while the run logs writes. The default per-record policy syncs
    /// every record on its own.
    pub group_commit: GroupCommitPolicy,
    /// When set, the health monitor retunes `group_commit.max_records`
    /// each tick from the observed append rate (double under load,
    /// halve when idle, clamped to the given bounds) — observe, adapt,
    /// assert: the durability contract is unchanged because only the
    /// batching knob moves, never the ack-at-sync point.
    pub adaptive_group_commit: Option<AdaptiveGroupCommit>,
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig {
            hedge_delay: None,
            monitor_interval: Layers::new(64.0),
            brownout: None,
            scrub_interval: None,
            scrub_chunk_cells: 64,
            group_commit: GroupCommitPolicy::per_record(),
            adaptive_group_commit: None,
        }
    }
}

/// Bounds for the monitor-driven commit-group controller: the group
/// size doubles while a monitor interval lands more appends than the
/// current group holds, and halves when the interval ran dry, clamped
/// to `[min_records, max_records]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdaptiveGroupCommit {
    /// Smallest group size the controller may fall back to.
    pub min_records: usize,
    /// Largest group size the controller may grow to.
    pub max_records: usize,
}

impl Default for AdaptiveGroupCommit {
    fn default() -> Self {
        AdaptiveGroupCommit {
            min_records: 1,
            max_records: 128,
        }
    }
}

/// The parity bit of a query outcome: XOR of the data-bit parities over
/// all superposition terms. Any single flipped data bit flips it — the
/// detection invariant behind [`Fault::CorruptOutcome`].
#[must_use]
pub fn parity_bit(outcome: &QueryOutcome) -> u64 {
    outcome.iter().fold(0, |acc, &(_, _, data)| {
        acc ^ (u64::from(data.count_ones()) & 1)
    })
}

/// The corrupted twin of an outcome: the first term's lowest data bit is
/// flipped (outcomes with a zero-width bus are returned unchanged —
/// there is no data bit to corrupt).
#[must_use]
pub fn corrupt_outcome(outcome: &QueryOutcome) -> QueryOutcome {
    let mut terms: Vec<(Complex, u64, u64)> = outcome.iter().copied().collect();
    if outcome.bus_width() >= 1 {
        if let Some(first) = terms.first_mut() {
            first.2 ^= 1;
        }
    }
    QueryOutcome::from_terms(outcome.address_width(), outcome.bus_width(), terms)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_plans_are_reproducible_and_in_bounds() {
        let horizon = Layers::new(10_000.0);
        let a = FaultPlan::from_seed(42, 4, 2, horizon);
        let b = FaultPlan::from_seed(42, 4, 2, horizon);
        assert_eq!(a, b, "same seed, same plan");
        let c = FaultPlan::from_seed(43, 4, 2, horizon);
        assert_ne!(a, c, "different seed, different plan");
        for fault in a.faults() {
            match *fault {
                Fault::Crash { replica, at } | Fault::Recover { replica, at } => {
                    assert!(replica < 4);
                    assert!(at > Layers::ZERO);
                }
                Fault::SlowReplica {
                    replica, factor, ..
                } => {
                    assert!(replica < 4);
                    assert!(factor >= 1.0);
                }
                Fault::StallShard { replica, shard, .. } => {
                    assert!(replica < 4);
                    assert!(shard < 2);
                }
                Fault::CorruptOutcome { replica, .. } => assert!(replica < 4),
                Fault::DiskCorrupt { replica, at, .. } => {
                    assert!(replica < 4);
                    assert!(at > Layers::ZERO);
                }
                Fault::DropReplication { .. }
                | Fault::DelayReplication { .. }
                | Fault::TornWrite { .. } => {}
            }
        }
    }

    #[test]
    fn seeded_disk_faults_appear_across_seeds() {
        // The chaos generator must actually exercise the durability
        // tier: across a modest seed range both disk fault kinds occur.
        let horizon = Layers::new(5_000.0);
        let mut torn = 0;
        let mut corrupt = 0;
        for seed in 0..64 {
            let plan = FaultPlan::from_seed(seed, 4, 2, horizon);
            if plan
                .faults()
                .iter()
                .any(|f| matches!(f, Fault::TornWrite { .. }))
            {
                torn += 1;
                assert!(plan.has_disk_faults());
            }
            if plan
                .faults()
                .iter()
                .any(|f| matches!(f, Fault::DiskCorrupt { .. }))
            {
                corrupt += 1;
                assert!(plan.has_disk_faults());
            }
        }
        assert!(torn > 5, "torn writes too rare: {torn}/64");
        assert!(corrupt > 5, "disk corruption too rare: {corrupt}/64");
        assert!(!FaultPlan::none().has_disk_faults());
    }

    #[test]
    fn tears_matches_only_the_planned_epoch() {
        let plan = FaultPlan::none().with(Fault::TornWrite { epoch: 3 });
        assert!(plan.tears(3));
        assert!(!plan.tears(2));
        assert!(plan.has_disk_faults());
    }

    #[test]
    fn recover_faults_follow_their_crash() {
        for seed in 0..64 {
            let plan = FaultPlan::from_seed(seed, 4, 2, Layers::new(5_000.0));
            for fault in plan.faults() {
                if let Fault::Recover { replica, at } = *fault {
                    let crash = plan.faults().iter().find_map(|f| match *f {
                        Fault::Crash { replica: r, at } if r == replica => Some(at),
                        _ => None,
                    });
                    let crash = crash.expect("a recover implies a crash");
                    assert!(crash < at, "recovery strictly after the crash");
                }
            }
        }
    }

    #[test]
    fn slow_factor_is_windowed_and_defaults_to_unity() {
        let plan = FaultPlan::none().with(Fault::SlowReplica {
            replica: 1,
            from: Layers::new(100.0),
            until: Layers::new(200.0),
            factor: 3.0,
        });
        assert_eq!(plan.slow_factor(1, Layers::new(150.0)), 3.0);
        assert_eq!(plan.slow_factor(1, Layers::new(99.0)), 1.0);
        assert_eq!(
            plan.slow_factor(1, Layers::new(200.0)),
            1.0,
            "until is exclusive"
        );
        assert_eq!(
            plan.slow_factor(0, Layers::new(150.0)),
            1.0,
            "other replica"
        );
        assert!(plan.has_slow_faults());
        assert!(!FaultPlan::none().has_slow_faults());
    }

    #[test]
    fn replication_fate_matches_the_first_drop_or_delay() {
        let plan = FaultPlan::none()
            .with(Fault::DropReplication { epoch: 2 })
            .with(Fault::DelayReplication {
                epoch: 3,
                by: Layers::new(500.0),
            });
        assert_eq!(plan.replication_fate(1), ReplicationFate::Deliver);
        assert_eq!(plan.replication_fate(2), ReplicationFate::Drop);
        assert_eq!(
            plan.replication_fate(3),
            ReplicationFate::Delay(Layers::new(500.0))
        );
    }

    #[test]
    fn brownout_escalates_and_decays_with_hysteresis() {
        let mut ctrl = BrownoutController::new(BrownoutConfig::default());
        ctrl.observe(0.9);
        ctrl.observe(0.9);
        ctrl.observe(0.9);
        ctrl.observe(0.9);
        assert_eq!(ctrl.level(), 3, "level saturates at 3");
        assert!(ctrl.sheds(SloClass::Interactive));
        // Mid-band occupancy holds the level (hysteresis).
        ctrl.observe(0.6);
        assert_eq!(ctrl.level(), 3);
        ctrl.observe(0.2);
        ctrl.observe(0.2);
        assert_eq!(ctrl.level(), 1);
        assert!(
            ctrl.sheds(SloClass::Batch),
            "batch shed first, restored last"
        );
        assert!(!ctrl.sheds(SloClass::Standard));
    }

    #[test]
    fn brownout_boundary_occupancy_exactly_at_thresholds() {
        // The shed threshold is inclusive: occupancy exactly at `high`
        // escalates. The restore threshold is inclusive too: occupancy
        // exactly at `low` de-escalates. One epsilon inside the band
        // holds the level in both directions.
        let config = BrownoutConfig::default();
        let mut ctrl = BrownoutController::new(config);
        ctrl.observe(config.high);
        assert_eq!(ctrl.level(), 1, "occupancy == high must escalate");
        ctrl.observe(config.high - 1e-9);
        assert_eq!(ctrl.level(), 1, "just under high holds the level");
        ctrl.observe(config.low + 1e-9);
        assert_eq!(ctrl.level(), 1, "just above low holds the level");
        ctrl.observe(config.low);
        assert_eq!(ctrl.level(), 0, "occupancy == low must restore");
        ctrl.observe(config.low);
        assert_eq!(ctrl.level(), 0, "restore saturates at level 0");
    }

    #[test]
    fn brownout_single_tick_spike_does_not_flap_classes() {
        // A one-tick occupancy spike escalates at most one level (Batch
        // only); Standard and Interactive never flap, and the level
        // holds — rather than oscillating — until occupancy actually
        // drains to the restore threshold.
        let mut ctrl = BrownoutController::new(BrownoutConfig::default());
        ctrl.observe(1.0); // the spike
        assert_eq!(ctrl.level(), 1, "one tick moves at most one level");
        assert!(ctrl.sheds(SloClass::Batch));
        assert!(
            !ctrl.sheds(SloClass::Standard),
            "spike must not reach Standard"
        );
        assert!(!ctrl.sheds(SloClass::Interactive));
        // The spike passes; mid-band occupancy must hold, not flap back.
        for _ in 0..5 {
            ctrl.observe(0.6);
            assert_eq!(ctrl.level(), 1, "mid-band holds: no flapping");
            assert!(ctrl.sheds(SloClass::Batch));
        }
        // Only a real drain restores, and only one level per tick.
        ctrl.observe(0.1);
        assert_eq!(ctrl.level(), 0);
        assert!(!ctrl.sheds(SloClass::Batch));
    }

    #[test]
    fn corruption_always_flips_the_parity_bit() {
        let outcome = QueryOutcome::from_terms(
            3,
            2,
            vec![
                (Complex::new(0.6, 0.0), 1, 0b10),
                (Complex::new(0.8, 0.0), 5, 0b11),
            ],
        );
        let twisted = corrupt_outcome(&outcome);
        assert_ne!(parity_bit(&outcome), parity_bit(&twisted));
        assert_eq!(twisted.data_for(1), Some(0b11), "lowest data bit flipped");
        assert_eq!(twisted.data_for(5), Some(0b11), "other terms untouched");
    }

    #[test]
    fn zero_width_bus_has_nothing_to_corrupt() {
        let outcome = QueryOutcome::from_terms(2, 0, vec![(Complex::new(1.0, 0.0), 3, 0)]);
        let twisted = corrupt_outcome(&outcome);
        let terms = |o: &QueryOutcome| o.iter().copied().collect::<Vec<_>>();
        assert_eq!(terms(&twisted), terms(&outcome));
    }

    #[test]
    fn health_routability_partition() {
        assert!(ReplicaHealth::Healthy.routable());
        assert!(ReplicaHealth::Suspect.routable());
        assert!(!ReplicaHealth::Down.routable());
        assert!(!ReplicaHealth::Recovering.routable());
    }
}
