//! Parallel quantum algorithm workloads and per-architecture executors
//! (§6.3, §7.3–7.4 of the Fat-Tree QRAM paper).
//!
//! # Examples
//!
//! ```
//! use qram_algos::{algorithm_depth, ParallelAlgorithm};
//! use qram_arch::Architecture;
//! use qram_metrics::{Capacity, TimingModel};
//!
//! // Parallel Grover on a shared Fat-Tree vs a shared BB QRAM (Fig. 9).
//! let capacity = Capacity::new(1024)?;
//! let timing = TimingModel::paper_default();
//! let ft = algorithm_depth(ParallelAlgorithm::Grover, Architecture::FatTree,
//!                          capacity, timing);
//! let bb = algorithm_depth(ParallelAlgorithm::Grover, Architecture::BucketBrigade,
//!                          capacity, timing);
//! assert!(bb.get() > 4.0 * ft.get());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fig10;
pub mod fig9;
pub mod parallel;
pub mod scaling;

pub use fig10::{
    paper_axes, sweep_cell, sweep_cell_on, sweep_grid, SweepCell, SYNTHETIC_ITERATIONS,
};
pub use fig9::{algorithm_depth, figure9, Figure9Bar};
pub use parallel::ParallelAlgorithm;
pub use scaling::{depth_reduction_factor, fat_tree_depth_scaling, sequential_depth_scaling};
