//! Error robustness of Fat-Tree QRAM (§8): analytic fidelity bounds,
//! quantum error correction cost models, virtual distillation, and
//! Monte-Carlo validation along the backends' compiled query plans.
//!
//! # Examples
//!
//! ```
//! use qram_noise::{bounds, GateErrorRates};
//! use qram_metrics::Capacity;
//!
//! // Table 3: a capacity-32 QRAM at CSWAP error 1e-3 has query
//! // infidelity 0.125.
//! let eps = bounds::table3_infidelity(Capacity::new(32)?, 1e-3);
//! assert!((eps - 0.125).abs() < 1e-12);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bounds;
pub mod distillation;
pub mod extended;
pub mod monte_carlo;
pub mod qec;
mod rates;

pub use bounds::query_infidelity_bound;
pub use distillation::{distilled_infidelity, table4, DistillationPlan, Table4Row};
pub use extended::{estimate_extended_fidelity, extended_infidelity_bound, ExtendedNoise};
pub use monte_carlo::estimate_query_fidelity;
pub use qec::{
    bb_encoded_query_cost, code_switching_ancillas, fat_tree_encoded_query_cost, figure11_curve,
    EncodedQueryCost, InfidelityPoint, QecCode,
};
pub use rates::GateErrorRates;
