//! Event-driven online QRAM serving — the §5 quantum-data-center scenario
//! as a long-running service.
//!
//! The paper's §5 imagines a shared QRAM as a data-center appliance:
//! user queries arrive continuously and the machine admits them under its
//! architecture's interval and parallelism constraints. This crate is that
//! serving layer, built on the pluggable scheduling stack of `qram-sched`
//! and the sharded execution backend of `qram-core`:
//!
//! ```text
//!               requests (open loop: Poisson / bursty, Zipf addresses)
//!                  │
//!                  ▼
//!   ┌──────────────────────────────┐   policy layer (qram-sched)
//!   │  AdmissionPolicy             │   FifoAdmission / NoiseAwareAdmission,
//!   └──────────────┬───────────────┘   tenant quotas and SLO classes
//!                  ▼
//!   ┌──────────────────────────────┐   routing tier (QramFleet)
//!   │  shedding  →  placement      │   PlacementPolicy over R replicas
//!   └──────────────┬───────────────┘
//!                  ▼
//!   ┌──────────────────────────────┐   event core, one per replica
//!   │  EventQueue  +  dispatcher   │   one FIFO queue, j-th request on
//!   │  shard 0 │ shard 1 │ … │ K−1 │   shard j mod K, I_shard/K spacing,
//!   └──────────────┬───────────────┘   K·P_shard in-flight backpressure
//!                  ▼
//!   ┌──────────────────────────────┐   execution (qram-core)
//!   │  ShardedQram::execute_queries│   one columnar sweep per replica
//!   └──────────────┬───────────────┘
//!                  ▼
//!   ┌──────────────────────────────┐   measurement (qram-metrics)
//!   │  LatencyHistogram, QueryRate │   p50/p95/p99, throughput
//!   └──────────────────────────────┘
//! ```
//!
//! * [`EventQueue`] — the hand-rolled discrete-event reactor core: a
//!   queue over virtual circuit-layer time, ordered by one integer key,
//!   with FIFO lanes beside its heap for events that arrive in order.
//! * [`QramFleet`] — the serving loop: `R` replicas (one is the §5
//!   single machine) over one `ShardedQram` backend, each with one FIFO
//!   queue whose `j`-th request runs on shard `j mod K`, admission at the
//!   divided `I_shard / K`
//!   interval, backpressure at the aggregate `K · P_shard` in-flight
//!   bound and an optional bounded arrival queue that sheds load; behind
//!   a pluggable [`PlacementPolicy`], per-tenant quotas and SLO classes at
//!   admission, and epoch-replicated memory writes with flagged stale
//!   reads. A [`FleetReport`] folds its latency rollups from the
//!   completions on read.
//! * [`FaultPlan`] — deterministic fault injection for the fleet: crashes
//!   and recoveries, slow replicas, stalled shards, dropped or
//!   delayed replication catch-ups, and corrupted outcomes, driven
//!   through the same event reactor for replayable chaos runs. The
//!   serving loop answers with health-driven failover, backoff retries,
//!   hedged dispatch, deadlines, and [`BrownoutController`] degradation
//!   (see [`QramFleet::serve_with_faults`]).
//! * **Durability** — [`QramFleet::serve_durable`] backs the fleet's
//!   write stream with a crash-consistent `qram-core` store (CRC-framed
//!   write-ahead log + atomic checkpoints): writes are logged before
//!   replication fans out, restarted replicas replay from disk instead
//!   of the in-memory log, and an anti-entropy scrubber compares
//!   replica memories chunk by chunk with the durable chain, repairing
//!   silent divergence ([`Fault::TornWrite`], [`Fault::DiskCorrupt`])
//!   and reporting it in the report's
//!   [`IntegrityCounters`](qram_metrics::IntegrityCounters).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod durability;
pub mod fault;
pub mod fleet;
pub mod reactor;
mod replica;
mod report;
mod run;

pub use fault::{
    corrupt_outcome, parity_bit, AdaptiveGroupCommit, BrownoutConfig, BrownoutController, Fault,
    FaultConfig, FaultPlan, ReplicaHealth, ReplicationFate,
};
pub use fleet::{
    ConsistentHashPlacement, FleetConfig, FleetQuery, FleetReport, FleetRequest, FleetWrite,
    LeastLoadedPlacement, PlacementPolicy, QramFleet, ReplicaLoad, ServeError, ShedReason,
    ShedRequest,
};
pub use reactor::EventQueue;
