//! Quantum simulation substrate for the Fat-Tree QRAM reproduction.
//!
//! QRAM circuits are awkward for general-purpose simulators: a capacity-`N`
//! bucket-brigade tree contains `O(N)` router qubits, far beyond state-vector
//! reach, yet its entanglement structure is deliberately restricted — for a
//! *fixed* address, every router is in a definite classical state. This crate
//! therefore provides four complementary simulators:
//!
//! * [`state::StateVector`] — a dense qubit state-vector simulator with the
//!   gate set QRAM needs (X/H/…, CNOT, SWAP, CSWAP/Fredkin), used to verify
//!   gate semantics and run small end-to-end circuits.
//! * [`qudit::QuditState`] — a mixed-radix simulator where quantum routers
//!   are genuine qutrits (`|W⟩`, `|0⟩`, `|1⟩`), used to validate router
//!   semantics exactly as in the paper's Fig. 2(b).
//! * [`branch::AddressState`] / [`branch::QueryOutcome`] — a branch-based
//!   simulator exploiting the bucket-brigade structure: a query over a
//!   superposition of `B` addresses is simulated in `O(B · log N)` by
//!   tracking each address branch classically (the standard technique for
//!   QRAM analysis, cf. Hann et al. 2021).
//! * [`density::DensityMatrix`] — a small dense density-matrix simulator for
//!   the virtual-distillation experiments (Table 4).
//!
//! Noise enters through [`noise::ErrorChannel`] (per-gate stochastic Pauli
//! errors) and Monte-Carlo trajectory sampling.
//!
//! # Examples
//!
//! Verifying the CSWAP (Fredkin) gate — the native operation of a quantum
//! router:
//!
//! ```
//! use qsim::state::StateVector;
//!
//! // |c a b⟩ = control set, a=1, b=0: a and b swap.
//! let mut psi = StateVector::from_basis(3, 0b011); // qubit0=c, qubit1=a, qubit2=b
//! psi.apply_cswap(0, 1, 2);
//! assert_eq!(psi.dominant_basis_state(), 0b101);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod branch;
pub mod complex;
pub mod density;
pub mod gates;
pub mod noise;
pub mod qudit;
pub mod state;

pub use complex::Complex;
