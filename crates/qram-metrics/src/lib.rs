//! Units and performance metrics for shared-QRAM architectures.
//!
//! The Fat-Tree QRAM paper (ASPLOS '25) measures architectures in
//! *circuit layers* — logical time steps in which all gates execute in
//! parallel — and converts them to wall-clock time through a hardware
//! timing model (CSWAP gate time τ = 1 µs, intra-node SWAP and classically
//! controlled gates at τ/8). This crate provides the strongly-typed units
//! used by every other crate in the workspace:
//!
//! * [`Capacity`] — a power-of-two memory size `N` with address width
//!   `n = log₂(N)`.
//! * [`Layers`] — a (possibly fractional) number of circuit layers.
//! * [`TimingModel`] — gate times and the conversion from layers to seconds
//!   (and to CLOPS, Circuit Layer Operations Per Second).
//! * [`Bandwidth`], [`QueryRate`], [`SpaceTimeVolume`], [`MemoryAccessRate`],
//!   [`Utilization`] — the shared-QRAM metrics defined in §6.2 of the paper.
//! * [`LatencyHistogram`] — a log-bucketed response-latency histogram for
//!   the online serving layer (§5), and [`HistogramFamily`] — per-tenant /
//!   per-replica keyed aggregation of such histograms for fleet reports.
//! * [`AvailabilityCounters`] — the fault-tolerance ledger of a serving
//!   run: retries, hedges, failovers, detected corruptions, and MTTR.
//! * [`IntegrityCounters`] — the durability/anti-entropy ledger: scrub
//!   cycles, compared chunks, divergence, repairs, WAL appends, and
//!   checkpoints.
//!
//! # Examples
//!
//! ```
//! use qram_metrics::{Capacity, TimingModel, Layers};
//!
//! let n = Capacity::new(1024)?;
//! assert_eq!(n.address_width(), 10);
//!
//! let timing = TimingModel::paper_default();
//! // One standard circuit layer takes 1 µs at 10⁶ CLOPS.
//! assert_eq!(timing.layers_to_seconds(Layers::new(1.0)), 1e-6);
//! # Ok::<(), qram_metrics::CapacityError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod availability;
mod bandwidth;
mod capacity;
mod family;
mod histogram;
mod integrity;
mod layers;
mod timing;
mod utilization;

pub use availability::AvailabilityCounters;
pub use bandwidth::{Bandwidth, MemoryAccessRate, QueryRate, SpaceTimeVolume};
pub use capacity::{Capacity, CapacityError};
pub use family::HistogramFamily;
pub use histogram::LatencyHistogram;
pub use integrity::IntegrityCounters;
pub use layers::{LayerKind, Layers};
pub use timing::{Clops, TimingModel};
pub use utilization::{Utilization, UtilizationTrace};
