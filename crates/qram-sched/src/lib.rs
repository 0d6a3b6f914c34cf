//! Query scheduling for shared QRAM (§5 of the Fat-Tree QRAM paper).
//!
//! * [`server`] — the pipelined-server abstraction of a shared QRAM
//!   (admission interval, parallelism, per-query latency) for all five
//!   architectures of §6.1.
//! * [`policy`] — the pluggable scheduling stack: the shared
//!   [`PipelineCore`] admission recurrence, the [`PolicyScheduler`] that
//!   admits arrivals through it, the [`AdmissionPolicy`] trait, and the
//!   [`FifoAdmission`] / [`NoiseAwareAdmission`] policies (every other
//!   scheduling entry point is an adapter over this core).
//! * [`tenant`] — multi-tenant admission on top of the stack: per-tenant
//!   outstanding-request quotas and SLO shedding classes via the
//!   [`QuotaAdmission`] combinator, threaded through the fleet router in
//!   `qram-serve`.
//! * [`fifo`] — FIFO scheduling of static request batches, with the
//!   latency-optimality theorem of Appendix A.2 checked exhaustively and
//!   property-tested.
//! * [`workload`] — closed-loop simulation of algorithm streams that
//!   alternate querying and processing (Fig. 7, Fig. 10), including the
//!   utilization staircase, plus the Zipf and bursty open-loop workload
//!   generators.
//!
//! # Examples
//!
//! ```
//! use qram_sched::{simulate_streams, QramServer, StreamWorkload};
//! use qram_metrics::{Capacity, Layers};
//!
//! // Fig. 7: three algorithms, each issuing three queries separated by
//! // d = 20 layers of processing, on a capacity-8 Fat-Tree QRAM.
//! let server = QramServer::fat_tree_integer_layers(Capacity::new(8)?);
//! let streams = vec![StreamWorkload::alternating(3, Layers::new(20.0)); 3];
//! let report = simulate_streams(&streams, &server);
//! assert_eq!(report.makespan().get(), 30.0 * 3.0 + 2.0 * 20.0 + 17.0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fifo;
pub mod online;
pub mod policy;
pub mod server;
pub mod tenant;
pub mod workload;

pub use fifo::{schedule_fifo, schedule_in_order, QueryRequest, Schedule, ScheduledQuery};
pub use online::{poisson_arrivals, OnlineFifoScheduler, OutOfOrderArrival};
pub use policy::{
    AdmissionPolicy, FifoAdmission, NoiseAwareAdmission, PipelineCore, PolicyScheduler,
};
pub use server::QramServer;
pub use tenant::{QuotaAdmission, RetryPolicy, SloClass, TenantId, TenantSpec};
pub use workload::{
    bursty_arrivals, flash_crowd_arrivals, process_depth_from_ratio, simulate_streams,
    synthetic_algorithm_depth, Phase, QueryRecord, StreamReport, StreamWorkload, ZipfAddresses,
};
