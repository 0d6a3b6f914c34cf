//! The elementary QRAM instruction set (Appendix A.1 of the paper).

use std::fmt;

/// A qubit flowing through the QRAM tree during a query.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QubitTag {
    /// The `i`-th address qubit (0-based; address qubit `i` is stored at
    /// tree level `i`).
    Address(u32),
    /// The bus qubit carrying the retrieved data.
    Bus,
}

impl fmt::Display for QubitTag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QubitTag::Address(i) => write!(f, "a{}", i + 1),
            QubitTag::Bus => write!(f, "B"),
        }
    }
}

/// The elementary operations of Appendix A.1 plus the Fat-Tree local swap
/// steps of §4.3.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Op {
    /// `LOAD`: inject a qubit through the escape into the root input.
    Load(QubitTag),
    /// `TRANSPORT`: SWAP a qubit from a level-`i−1` output to a level-`i`
    /// input. The field is the destination level `i ≥ 1`.
    Transport(u32),
    /// `ROUTE`: CSWAP a qubit from a level-`i` input to its outputs,
    /// directed by the router qubit.
    Route(u32),
    /// `STORE`: swap the qubit at the level-`i` input into the router
    /// qubit, activating it.
    Store(u32),
    /// `CLASSICAL-GATES`: classically controlled writes of the memory onto
    /// the delocalized bus at the leaves.
    ClassicalGates,
    /// `UNLOAD`: inverse of `LOAD` — the qubit at the root input exits.
    Unload(QubitTag),
    /// `UNTRANSPORT`: inverse of `TRANSPORT` (field = level the qubit
    /// leaves, moving to level `i−1`'s output).
    Untransport(u32),
    /// `UNROUTE`: inverse of `ROUTE` at the given level.
    Unroute(u32),
    /// `UNSTORE`: inverse of `STORE` — the router qubit at level `i`
    /// becomes an in-flight qubit again.
    Unstore(u32),
    /// Fat-Tree `SWAP-I`: local swap of sub-QRAMs `k ↔ k+1` for even `k`.
    SwapStepI,
    /// Fat-Tree `SWAP-II`: local swap of sub-QRAMs `k ↔ k+1` for odd `k`.
    SwapStepII,
}

/// Hardware gate classes with distinct speeds and error rates (§8.1):
/// `ε₀` for CSWAPs, `ε₁` for inter-node SWAPs, `ε₂` for intra-node local
/// SWAPs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GateClass {
    /// Routing CSWAP (error rate ε₀).
    Cswap,
    /// Inter-node SWAP: LOAD / TRANSPORT / STORE and inverses (ε₁).
    InterNodeSwap,
    /// Intra-node local SWAP: Fat-Tree swap steps (ε₂).
    LocalSwap,
    /// Classically controlled gates (data retrieval); treated as
    /// effectively error-free quantum-side in the paper's fidelity model.
    Classical,
}

impl Op {
    /// The mnemonic used in the paper's Fig. 12 pipeline diagrams
    /// (`L1`, `T2`, `R3`, `S1`, `CG`, `S-I`, primes for inverses).
    #[must_use]
    pub fn mnemonic(self) -> String {
        match self {
            Op::Load(q) => format!("L{}", suffix(q)),
            Op::Unload(q) => format!("L'{}", suffix(q)),
            Op::Transport(l) => format!("T{}", l + 1),
            Op::Untransport(l) => format!("T'{}", l + 1),
            Op::Route(l) => format!("R{}", l + 1),
            Op::Unroute(l) => format!("R'{}", l + 1),
            Op::Store(l) => format!("S{}", l + 1),
            Op::Unstore(l) => format!("S'{}", l + 1),
            Op::ClassicalGates => "CG".to_owned(),
            Op::SwapStepI => "S-I".to_owned(),
            Op::SwapStepII => "S-II".to_owned(),
        }
    }
}

fn suffix(q: QubitTag) -> String {
    match q {
        QubitTag::Address(i) => format!("{}", i + 1),
        QubitTag::Bus => "B".to_owned(),
    }
}

impl fmt::Display for Op {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.mnemonic())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mnemonics_match_figure_12() {
        assert_eq!(Op::Load(QubitTag::Address(0)).mnemonic(), "L1");
        assert_eq!(Op::Load(QubitTag::Bus).mnemonic(), "LB");
        assert_eq!(Op::Store(0).mnemonic(), "S1");
        assert_eq!(Op::Route(1).mnemonic(), "R2");
        assert_eq!(Op::Unroute(2).mnemonic(), "R'3");
        assert_eq!(Op::Unload(QubitTag::Bus).mnemonic(), "L'B");
        assert_eq!(Op::SwapStepI.mnemonic(), "S-I");
        assert_eq!(Op::SwapStepII.mnemonic(), "S-II");
        assert_eq!(Op::ClassicalGates.mnemonic(), "CG");
    }

    #[test]
    fn qubit_tag_display() {
        assert_eq!(QubitTag::Address(2).to_string(), "a3");
        assert_eq!(QubitTag::Bus.to_string(), "B");
    }
}
