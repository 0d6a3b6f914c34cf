//! Functional execution of query instruction streams.
//!
//! For a fixed address, every router in a bucket-brigade tree is in a
//! definite classical state, so a query over a superposition of addresses
//! decomposes into independent *branches* (see `qsim::branch`). This module
//! walks the layered instruction stream of `query_ops` for each branch,
//! validating every precondition (a `STORE` must find its address qubit at
//! the right input, routers must be waiting, the bus must reach the leaves
//! before retrieval, and the tree must be returned to the all-`|W⟩` state),
//! and produces the resulting [`QueryOutcome`] together with per-class gate
//! counts used by the fidelity analysis (§8.1).
//!
//! # The interpret → intern → compile → columnar pipeline
//!
//! Query execution goes through four stages, each feeding the next:
//!
//! 1. **Interpret** — [`execute_layers`] walks every op of every layer per
//!    branch through the `BranchMachine` validator. This is the
//!    reference semantics: it runs for explicitly supplied (possibly
//!    mutated) streams, inside the batch oracle
//!    [`reference::execute_batch`](crate::reference::execute_batch) that
//!    the columnar kernel is property-tested against, and for any
//!    [`QramModel`](crate::QramModel) backend that does not opt into
//!    compilation.
//! 2. **Intern** — [`interned_layers`] caches the per-capacity stream of
//!    each built-in architecture in a process-wide table of
//!    `Arc<[QueryLayer]>`, so batch execution and the fidelity estimators
//!    stop re-generating (and re-allocating) the same layered stream on
//!    every call.
//! 3. **Compile** — [`compiled_query`] partially evaluates an interned
//!    stream exactly once per `(arch, n)`: a symbolic `BranchMachine` run
//!    proves every precondition (including the address-dependent
//!    `STORE`/`UNSTORE` bit round-trips) holds for *every* address, and
//!    extracts the address-independent [`GateCounts`] and per-layer gate
//!    trajectory. The resulting [`CompiledQuery`] answers a branch with
//!    one `memory.read(address)` — O(1) residual work instead of the
//!    interpreter's O(log² N) op walk — and is what
//!    `QramModel::compiled_query` routes the hot paths
//!    (`execute_query_traced`, every batch, and the Monte-Carlo /
//!    extended / analytic fidelity estimators) through.
//! 4. **Columnar** — one SoA batch kernel (`soa` module, reached through
//!    [`execute_batch`](crate::execute_batch) and
//!    [`execute_batch_traced`](crate::execute_batch_traced) — and so
//!    every provided `QramModel::execute_queries` — whenever a compiled
//!    plan exists) restructures a whole *batch* around the plan's O(1) residual:
//!    every term's data is one direct load from the caller's unsplit
//!    memory image (a sharded term's global address already indexes it),
//!    all terms land in one shared column collected in a single
//!    allocation, and per-query outcomes are constant-size views into it
//!    (`QueryOutcome::from_shared_column`) — one allocation per batch
//!    instead of one `Vec` per query. Memo statistics are counted per
//!    memory epoch (a bitmap for single-branch sets, one sort for
//!    multi-branch sets — no per-query hashing), on the traced entry
//!    point only.
//!
//! A corrupted stream is rejected at *compile* time with the same
//! [`ExecError`] (layer index and message) the interpreter reports, by
//! construction: both run the one shared validator (`MachineCore`),
//! differing only in whether a router bit is a concrete address bit or
//! its level symbol.

use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, Mutex, OnceLock};

use qsim::branch::{AddressState, ClassicalMemory, QueryOutcome};

use crate::ops::{GateClass, Op, QubitTag};
use crate::query_ops::{bb_query_layers, fat_tree_query_layers, QueryLayer};

/// Gate counts per hardware class accumulated along one query branch.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GateCounts {
    /// Routing CSWAPs (error rate ε₀).
    pub cswap: u64,
    /// Inter-node SWAPs: LOAD/TRANSPORT/STORE and inverses (ε₁).
    pub inter_node_swap: u64,
    /// Intra-node local SWAPs: Fat-Tree swap steps (ε₂).
    pub local_swap: u64,
    /// Classically controlled data-retrieval gates.
    pub classical: u64,
}

impl GateCounts {
    /// Total quantum gates (excluding classical retrieval gates).
    #[must_use]
    pub fn total_quantum(&self) -> u64 {
        self.cswap + self.inter_node_swap + self.local_swap
    }

    fn record(&mut self, class: GateClass, count: u64) {
        match class {
            GateClass::Cswap => self.cswap += count,
            GateClass::InterNodeSwap => self.inter_node_swap += count,
            GateClass::LocalSwap => self.local_swap += count,
            GateClass::Classical => self.classical += count,
        }
    }
}

/// An execution error: the instruction stream violated a precondition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExecError {
    /// 1-based circuit layer at which the violation occurred (0 = final
    /// validation).
    pub layer: usize,
    /// The violated condition.
    pub message: String,
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "layer {}: {}", self.layer, self.message)
    }
}

impl std::error::Error for ExecError {}

/// Flyer slot index of a `(level, input/output)` tree position: each level
/// holds at most one in-flight qubit per side, so occupancy is a flat
/// table indexed by `2·level + at_output` instead of a scanned list.
#[inline]
fn slot_index(level: u32, at_output: bool) -> usize {
    level as usize * 2 + usize::from(at_output)
}

/// The shared per-branch validator behind both the interpreter and the
/// compiler: walks ops over a generic router-bit type `B`, tracking flyer
/// slots, router occupancy, gate counts, and the classical-read parity.
///
/// The two instantiations differ only in what `bit(i)` — the value a
/// router stores at `STORE i` and must still hold at `UNSTORE i` —
/// evaluates to:
///
/// * interpreter ([`BranchMachine`], `B = bool`): the concrete address
///   bit at level `i` of one branch;
/// * compiler ([`CompiledQuery::compile`], `B = u32`): the *level* `i`
///   itself, so one symbolic run proves the `STORE`/`UNSTORE` round-trip
///   self-consistent for every address at once.
///
/// Data retrieval counts XOR parity (`reads`) instead of touching
/// memory: the classical memory is immutable within a branch run, so the
/// exiting bus carries `memory.read(address)` iff the read count at bus
/// exit is odd — the interpreter applies that read in
/// [`BranchMachine::finish`], the compiler keeps the parity itself. One
/// machine, two bit semantics: the compiler rejects a corrupted stream
/// with the exact [`ExecError`] the interpreter reports *by
/// construction*, not by keeping two checkers synchronized.
struct MachineCore<B> {
    n: u32,
    /// Per-level router state along the active path: `None` = `|W⟩`.
    routers: Vec<Option<B>>,
    /// In-flight qubit per `(level, side)` slot (see [`slot_index`]); the
    /// executor validates collisions as stream errors, so one slot never
    /// holds two qubits.
    slots: Vec<Option<QubitTag>>,
    /// Number of occupied slots (qubits in flight).
    in_flight: usize,
    /// Number of active (non-`|W⟩`) routers.
    active_routers: usize,
    /// Number of classical data reads XOR-ed into the bus so far.
    reads: u32,
    /// Read count captured when the bus unloaded from the tree.
    exited_reads: Option<u32>,
    counts: GateCounts,
}

impl<B: Copy + Eq> MachineCore<B> {
    fn new(n: u32) -> Self {
        MachineCore {
            n,
            routers: vec![None; n as usize],
            slots: vec![None; slot_index(n, true) + 1],
            in_flight: 0,
            active_routers: 0,
            reads: 0,
            exited_reads: None,
            counts: GateCounts::default(),
        }
    }

    /// Rewinds the machine to the all-`|W⟩` start state for a new branch,
    /// keeping the router and slot allocations.
    fn reset(&mut self) {
        self.routers.iter_mut().for_each(|r| *r = None);
        self.slots.iter_mut().for_each(|s| *s = None);
        self.in_flight = 0;
        self.active_routers = 0;
        self.reads = 0;
        self.exited_reads = None;
        self.counts = GateCounts::default();
    }

    fn err(layer: usize, message: impl Into<String>) -> ExecError {
        ExecError {
            layer,
            message: message.into(),
        }
    }

    /// The qubit occupying `(level, side)`, if any. Levels beyond the tree
    /// are simply vacant (mirroring the old scan over a flyer list).
    fn occupant(&self, level: u32, at_output: bool) -> Option<QubitTag> {
        self.slots.get(slot_index(level, at_output)).copied()?
    }

    /// Places a qubit into a (vacant) slot, growing the table if a
    /// corrupted stream transports past the leaves.
    fn place(&mut self, level: u32, at_output: bool, tag: QubitTag) {
        let idx = slot_index(level, at_output);
        if idx >= self.slots.len() {
            self.slots.resize(idx + 1, None);
        }
        debug_assert!(self.slots[idx].is_none(), "slot collision must be rejected");
        self.slots[idx] = Some(tag);
        self.in_flight += 1;
    }

    /// Vacates a slot, returning its occupant.
    fn remove(&mut self, level: u32, at_output: bool) -> Option<QubitTag> {
        let tag = self.slots.get_mut(slot_index(level, at_output))?.take()?;
        self.in_flight -= 1;
        Some(tag)
    }

    fn apply(&mut self, layer: usize, op: Op, bit: impl Fn(u32) -> B) -> Result<(), ExecError> {
        match op {
            Op::Load(tag) => {
                if self.occupant(0, false).is_some() {
                    return Err(Self::err(layer, format!("LOAD {tag}: root input occupied")));
                }
                self.place(0, false, tag);
                self.counts.record(GateClass::InterNodeSwap, 1);
            }
            Op::Transport(i) => {
                let Some(tag) = self.occupant(i - 1, true) else {
                    return Err(Self::err(
                        layer,
                        format!("TRANSPORT to level {i}: no qubit at level {} output", i - 1),
                    ));
                };
                if self.occupant(i, false).is_some() {
                    return Err(Self::err(
                        layer,
                        format!("TRANSPORT to level {i}: input occupied"),
                    ));
                }
                self.remove(i - 1, true);
                self.place(i, false, tag);
                self.counts.record(GateClass::InterNodeSwap, 1);
            }
            Op::Route(i) => {
                let Some(tag) = self.occupant(i, false) else {
                    return Err(Self::err(
                        layer,
                        format!("ROUTE level {i}: no qubit at input"),
                    ));
                };
                if self.routers[i as usize].is_none() {
                    return Err(Self::err(
                        layer,
                        format!("ROUTE level {i}: router still |W>"),
                    ));
                }
                if self.occupant(i, true).is_some() {
                    return Err(Self::err(
                        layer,
                        format!("ROUTE level {i}: output occupied"),
                    ));
                }
                self.remove(i, false);
                self.place(i, true, tag);
                self.counts.record(GateClass::Cswap, 1);
            }
            Op::Store(i) => {
                let Some(tag) = self.occupant(i, false) else {
                    return Err(Self::err(
                        layer,
                        format!("STORE level {i}: no qubit at input"),
                    ));
                };
                if tag != QubitTag::Address(i) {
                    return Err(Self::err(
                        layer,
                        format!("STORE level {i}: qubit {tag} is not address {}", i + 1),
                    ));
                }
                if self.routers[i as usize].is_some() {
                    return Err(Self::err(
                        layer,
                        format!("STORE level {i}: router already active"),
                    ));
                }
                self.routers[i as usize] = Some(bit(i));
                self.active_routers += 1;
                self.remove(i, false);
                self.counts.record(GateClass::InterNodeSwap, 1);
            }
            Op::ClassicalGates => {
                let leaves = self.n - 1;
                if self.occupant(leaves, true) != Some(QubitTag::Bus) {
                    return Err(Self::err(
                        layer,
                        "CLASSICAL-GATES: bus has not reached the leaves",
                    ));
                }
                if self.active_routers < self.routers.len() {
                    return Err(Self::err(
                        layer,
                        "CLASSICAL-GATES: address not fully loaded",
                    ));
                }
                self.reads += 1;
                self.counts.record(GateClass::Classical, 1);
            }
            Op::Unroute(i) => {
                let Some(tag) = self.occupant(i, true) else {
                    return Err(Self::err(
                        layer,
                        format!("UNROUTE level {i}: no qubit at output"),
                    ));
                };
                if self.routers[i as usize].is_none() {
                    return Err(Self::err(
                        layer,
                        format!("UNROUTE level {i}: router still |W>"),
                    ));
                }
                if self.occupant(i, false).is_some() {
                    return Err(Self::err(
                        layer,
                        format!("UNROUTE level {i}: input occupied"),
                    ));
                }
                self.remove(i, true);
                self.place(i, false, tag);
                self.counts.record(GateClass::Cswap, 1);
            }
            Op::Untransport(i) => {
                let Some(tag) = self.occupant(i, false) else {
                    return Err(Self::err(
                        layer,
                        format!("UNTRANSPORT from level {i}: no qubit at input"),
                    ));
                };
                if self.occupant(i - 1, true).is_some() {
                    return Err(Self::err(
                        layer,
                        format!(
                            "UNTRANSPORT from level {i}: level {} output occupied",
                            i - 1
                        ),
                    ));
                }
                self.remove(i, false);
                self.place(i - 1, true, tag);
                self.counts.record(GateClass::InterNodeSwap, 1);
            }
            Op::Unstore(i) => {
                let stored = self.routers[i as usize]
                    .ok_or_else(|| Self::err(layer, format!("UNSTORE level {i}: router is |W>")))?;
                // The round-trip check: the router must still hold exactly
                // the bit `UNSTORE` reverts. Interpreted, this compares
                // concrete bits of one address; compiled, it compares
                // level symbols — a mismatch would corrupt the router for
                // every address whose bits at the two levels differ, so
                // it is rejected for all addresses at once.
                if stored != bit(i) {
                    return Err(Self::err(
                        layer,
                        format!("UNSTORE level {i}: router bit corrupted"),
                    ));
                }
                if self.occupant(i, false).is_some() {
                    return Err(Self::err(
                        layer,
                        format!("UNSTORE level {i}: input occupied"),
                    ));
                }
                self.routers[i as usize] = None;
                self.active_routers -= 1;
                self.place(i, false, QubitTag::Address(i));
                self.counts.record(GateClass::InterNodeSwap, 1);
            }
            Op::Unload(tag) => {
                let Some(found) = self.occupant(0, false) else {
                    return Err(Self::err(
                        layer,
                        format!("UNLOAD {tag}: no qubit at root input"),
                    ));
                };
                if found != tag {
                    return Err(Self::err(
                        layer,
                        format!("UNLOAD {tag}: found {found} instead"),
                    ));
                }
                self.remove(0, false);
                if tag == QubitTag::Bus {
                    self.exited_reads = Some(self.reads);
                }
                self.counts.record(GateClass::InterNodeSwap, 1);
            }
            Op::SwapStepI | Op::SwapStepII => {
                // A local swap moves the query's stored router qubits and
                // in-flight qubits between adjacent sub-QRAM copies: one
                // intra-node SWAP per qubit involved.
                let involved = self.active_routers + self.in_flight;
                self.counts.record(GateClass::LocalSwap, involved as u64);
            }
        }
        Ok(())
    }

    /// Final validation: every router reverted, no qubit in flight, and
    /// the bus exited. Returns the read count captured at bus exit.
    fn finish(&self, total_layers: usize) -> Result<u32, ExecError> {
        if let Some(router) = self.routers.iter().position(Option::is_some) {
            return Err(ExecError {
                layer: total_layers,
                message: format!("router at level {router} not reverted to |W>"),
            });
        }
        if self.in_flight > 0 {
            return Err(ExecError {
                layer: total_layers,
                message: format!("{} qubit(s) still in flight", self.in_flight),
            });
        }
        self.exited_reads.ok_or(ExecError {
            layer: total_layers,
            message: "bus never exited the tree".to_owned(),
        })
    }
}

/// Classical interpretation of one query branch: a [`MachineCore`] over
/// the concrete address bits of one branch, plus that branch's single
/// residual memory access.
///
/// One machine is reused across the branches of a superposition
/// ([`Self::reset`] clears state without reallocating), and flyer lookups
/// are O(1) slot-table reads rather than the linear scan of earlier
/// revisions.
struct BranchMachine<'m> {
    core: MachineCore<bool>,
    memory: &'m ClassicalMemory,
    address: u64,
}

impl<'m> BranchMachine<'m> {
    fn new(n: u32, memory: &'m ClassicalMemory) -> Self {
        BranchMachine {
            core: MachineCore::new(n),
            memory,
            address: 0,
        }
    }

    /// Rewinds the machine for a new branch.
    fn reset(&mut self, address: u64) {
        self.address = address;
        self.core.reset();
    }

    /// Gate counts accumulated so far on the current branch.
    fn counts(&self) -> GateCounts {
        self.core.counts
    }

    fn apply(&mut self, layer: usize, op: Op) -> Result<(), ExecError> {
        let (n, address) = (self.core.n, self.address);
        // Address bit consumed at tree level `i` (MSB first).
        self.core
            .apply(layer, op, |level| (address >> (n - 1 - level)) & 1 == 1)
    }

    /// Runs one branch (a fixed classical address) through the full stream.
    fn run(&mut self, address: u64, layers: &[QueryLayer]) -> BranchResult {
        self.reset(address);
        for (layer_idx, layer) in layers.iter().enumerate() {
            for &op in &layer.ops {
                self.apply(layer_idx + 1, op)?;
            }
        }
        self.finish(layers.len())
    }

    /// Final validation plus the branch's residual memory access: the
    /// exiting bus carries the addressed word iff the read parity at exit
    /// is odd (repeated reads XOR-cancel; memory is immutable within a
    /// branch run).
    fn finish(&self, total_layers: usize) -> BranchResult {
        let exited_reads = self.core.finish(total_layers)?;
        let data = if exited_reads % 2 == 1 {
            self.memory.read(self.address)
        } else {
            0
        };
        Ok((data, self.core.counts))
    }
}

/// The result of executing a query instruction stream.
#[derive(Debug, Clone, PartialEq)]
pub struct Execution {
    /// The entangled address–bus output state (Eq. 1).
    pub outcome: QueryOutcome,
    /// Gate counts along one branch (identical across branches).
    pub gate_counts: GateCounts,
}

/// The architectures whose instruction streams are globally interned —
/// the key space of [`interned_layers`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LayerArch {
    /// Bucket-brigade stream ([`bb_query_layers`]).
    BucketBrigade,
    /// Fat-Tree stream ([`fat_tree_query_layers`]).
    FatTree,
}

/// The per-capacity single-query instruction stream of `arch`, interned in
/// a process-wide table: the first call for an `(arch, n)` pair generates
/// the layered stream once, every later call returns a cheap [`Arc`]
/// clone. Batch execution and the fidelity estimators call this through
/// [`QramModel::interned_query_layers`], so the stream is no longer
/// re-allocated per query or per Monte-Carlo estimate.
///
/// Streams are immutable and small (`O(log² N)` ops), so the table is
/// never evicted; with capacities up to `2^20` it holds at most 40
/// entries per process.
///
/// [`QramModel::interned_query_layers`]: crate::QramModel::interned_query_layers
///
/// # Panics
///
/// Panics if `n == 0` (no zero-width address registers).
#[must_use]
pub fn interned_layers(arch: LayerArch, n: u32) -> Arc<[QueryLayer]> {
    type InternTable = Mutex<HashMap<(LayerArch, u32), Arc<[QueryLayer]>>>;
    static TABLE: OnceLock<InternTable> = OnceLock::new();
    let table = TABLE.get_or_init(|| Mutex::new(HashMap::new()));
    let mut map = table.lock().expect("layer intern table poisoned");
    Arc::clone(map.entry((arch, n)).or_insert_with(|| {
        match arch {
            LayerArch::BucketBrigade => bb_query_layers(n),
            LayerArch::FatTree => fat_tree_query_layers(n),
        }
        .into()
    }))
}

/// An instruction stream partially evaluated into an O(1)-per-branch query
/// plan.
///
/// [`CompiledQuery::compile`] runs the stream once through the shared
/// `MachineCore` validator with *symbolic* router bits (a router stores
/// the level of the address bit it holds): every precondition is proven
/// to hold for *every* address (not just a sampled one), and the
/// address-independent results —
/// total [`GateCounts`], the per-layer gate trajectory, the retrieval
/// layer, and the bus read parity — are extracted. [`Self::execute`] then
/// answers each branch of a superposition with a single
/// `memory.read(address)` (or a constant, when the stream's reads cancel),
/// with no per-branch validation, allocation, or op walk left.
///
/// Plans for the built-in architectures are interned process-wide by
/// [`compiled_query`] and reach the hot paths through
/// [`QramModel::compiled_query`]; the interpreter ([`execute_layers`])
/// remains the reference semantics for mutated or non-interned streams.
///
/// [`QramModel::compiled_query`]: crate::QramModel::compiled_query
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompiledQuery {
    n: u32,
    gate_counts: GateCounts,
    layer_counts: Vec<GateCounts>,
    reads_data: bool,
    retrieval_layer: Option<usize>,
}

impl CompiledQuery {
    /// Partially evaluates `layers` (a stream for address width `n`) into
    /// a plan, proving it valid for every address.
    ///
    /// # Errors
    ///
    /// Returns the same [`ExecError`] (layer index and message) the
    /// interpreter would report, if the stream violates any precondition
    /// for any address.
    pub fn compile(n: u32, layers: &[QueryLayer]) -> Result<Self, ExecError> {
        // The symbolic instantiation of the shared validator: `bit(i)` is
        // the level `i` itself, so a `STORE`/`UNSTORE` pair round-trips
        // exactly when the symbols match — for every address at once.
        let mut machine = MachineCore::<u32>::new(n);
        let mut layer_counts = Vec::with_capacity(layers.len());
        let mut before = GateCounts::default();
        let mut retrieval_layer = None;
        for (layer_idx, layer) in layers.iter().enumerate() {
            for &op in &layer.ops {
                machine.apply(layer_idx + 1, op, |level| level)?;
            }
            if retrieval_layer.is_none() && machine.reads > 0 {
                retrieval_layer = Some(layer_idx + 1);
            }
            let after = machine.counts;
            layer_counts.push(GateCounts {
                cswap: after.cswap - before.cswap,
                inter_node_swap: after.inter_node_swap - before.inter_node_swap,
                local_swap: after.local_swap - before.local_swap,
                classical: after.classical - before.classical,
            });
            before = after;
        }
        let exited_reads = machine.finish(layers.len())?;
        Ok(CompiledQuery {
            n,
            gate_counts: machine.counts,
            layer_counts,
            reads_data: exited_reads % 2 == 1,
            retrieval_layer,
        })
    }

    /// The address width `n` the plan was compiled for.
    #[must_use]
    pub fn address_width(&self) -> u32 {
        self.n
    }

    /// Gate counts along one branch (branch-independent by construction).
    #[must_use]
    pub fn gate_counts(&self) -> GateCounts {
        self.gate_counts
    }

    /// Per-layer gate counts — the address-independent gate trajectory of
    /// the stream (sums to [`Self::gate_counts`]). Extended noise models
    /// use it to attribute correlated per-layer bursts exactly.
    #[must_use]
    pub fn layer_gate_counts(&self) -> &[GateCounts] {
        &self.layer_counts
    }

    /// The 1-based circuit layer at which the stream first reads the
    /// classical memory, if it ever does.
    #[must_use]
    pub fn retrieval_layer(&self) -> Option<usize> {
        self.retrieval_layer
    }

    /// Whether the stream's retrieval parity is odd — i.e. whether
    /// [`Self::read_data`] performs a real memory read rather than
    /// returning the XOR-cancelled constant `0`. Batch kernels branch on
    /// this once per batch to pick a gather strategy.
    #[must_use]
    pub fn reads_data(&self) -> bool {
        self.reads_data
    }

    /// The residual per-branch work: the data word branch `address`
    /// carries out of the tree. One memory read when the stream's
    /// retrieval parity is odd; the XOR-cancelled constant `0` otherwise.
    #[must_use]
    pub fn read_data(&self, memory: &ClassicalMemory, address: u64) -> u64 {
        if self.reads_data {
            memory.read(address)
        } else {
            0
        }
    }

    /// Executes the compiled plan over an address superposition: O(1)
    /// residual work per branch, no validation (the stream was proven
    /// valid for every address at compile time), and gate counts straight
    /// from the plan. Equal to [`execute_layers`] on the source stream.
    ///
    /// # Panics
    ///
    /// Panics if the memory or address width does not match the plan.
    #[must_use]
    pub fn execute(&self, memory: &ClassicalMemory, address: &AddressState) -> Execution {
        assert_eq!(
            memory.address_width(),
            self.n,
            "memory capacity must match the compiled plan"
        );
        assert_eq!(
            address.address_width(),
            self.n,
            "address width must match memory capacity"
        );
        let terms = address
            .iter()
            .map(|&(amp, addr)| (amp, addr, self.read_data(memory, addr)))
            .collect();
        Execution {
            outcome: QueryOutcome::from_terms(self.n, memory.bus_width(), terms),
            gate_counts: self.gate_counts,
        }
    }

    /// Compiled counterpart of [`execute_layers_noisy`]: samples
    /// `fault(class)` once per quantum gate per branch (walking the
    /// per-layer gate counts instead of the ops) and returns the surviving
    /// amplitude weight `Σ |α|²` over uncorrupted branches. Same per-branch
    /// fault statistics as the interpreter — each branch draws exactly
    /// [`Self::gate_counts`] decisions per class.
    ///
    /// # Panics
    ///
    /// Panics if the address width does not match the plan (the same
    /// mismatch the interpreter rejects against its memory).
    pub fn noisy_survival(
        &self,
        address: &AddressState,
        mut fault: impl FnMut(GateClass) -> bool,
    ) -> f64 {
        assert_eq!(
            address.address_width(),
            self.n,
            "address width must match the compiled plan"
        );
        let mut survival = 0.0;
        for &(amp, _) in address.iter() {
            let mut corrupted = false;
            for counts in &self.layer_counts {
                for (class, count) in [
                    (GateClass::Cswap, counts.cswap),
                    (GateClass::InterNodeSwap, counts.inter_node_swap),
                    (GateClass::LocalSwap, counts.local_swap),
                ] {
                    for _ in 0..count {
                        if fault(class) {
                            corrupted = true;
                        }
                    }
                }
            }
            if !corrupted {
                survival += amp.norm_sqr();
            }
        }
        survival
    }
}

/// The compiled query plan of `arch` at capacity `2^n`, interned in a
/// process-wide table beside [`interned_layers`]: the first call for an
/// `(arch, n)` pair compiles the interned stream once
/// ([`CompiledQuery::compile`]), every later call returns a cheap [`Arc`]
/// clone. The built-in backends route the execution and fidelity hot
/// paths through this table via `QramModel::compiled_query`, which
/// fetches the plan *per query* — so the table is one `OnceLock` cell
/// per `(arch, n)` (a single atomic load once initialized), not a
/// lock-guarded map.
///
/// # Panics
///
/// Panics if `n` is zero or exceeds 64 (addresses are `u64`), or if the
/// generated stream fails compilation (a generator bug — generated
/// streams are valid by construction).
#[must_use]
pub fn compiled_query(arch: LayerArch, n: u32) -> Arc<CompiledQuery> {
    const MAX_WIDTH: usize = 64;
    type PlanCell = OnceLock<Arc<CompiledQuery>>;
    static PLANS: [[PlanCell; MAX_WIDTH + 1]; 2] =
        [const { [const { OnceLock::new() }; MAX_WIDTH + 1] }; 2];
    assert!(
        (1..=MAX_WIDTH as u32).contains(&n),
        "address width {n} outside 1..=64"
    );
    let row = match arch {
        LayerArch::BucketBrigade => 0,
        LayerArch::FatTree => 1,
    };
    Arc::clone(PLANS[row][n as usize].get_or_init(|| {
        let layers = interned_layers(arch, n);
        Arc::new(
            CompiledQuery::compile(n, &layers)
                .expect("generated instruction streams compile (generator bug otherwise)"),
        )
    }))
}

/// Data word and gate counts of one completed branch, or the violation
/// that aborted it.
type BranchResult = Result<(u64, GateCounts), ExecError>;

/// Executes a single-query instruction stream over an address superposition
/// against a classical memory, one branch at a time in address order.
///
/// # Errors
///
/// Returns an [`ExecError`] if the stream violates any router/qubit
/// precondition or fails to restore the tree to the all-`|W⟩` state.
///
/// # Panics
///
/// Panics if the address width of `address` does not match the memory.
pub fn execute_layers(
    layers: &[QueryLayer],
    memory: &ClassicalMemory,
    address: &AddressState,
) -> Result<Execution, ExecError> {
    let n = memory.address_width();
    assert_eq!(
        address.address_width(),
        n,
        "address width must match memory capacity"
    );
    let mut terms = Vec::with_capacity(address.num_branches());
    let mut counts: Option<GateCounts> = None;
    // One machine reused across branches: reset clears state in place, so
    // the per-branch cost carries no router/slot reallocation.
    let mut machine = BranchMachine::new(n, memory);
    for &(amp, addr) in address.iter() {
        let (data, branch_counts) = machine.run(addr, layers)?;
        debug_assert!(
            counts.is_none() || counts == Some(branch_counts),
            "gate counts must be branch-independent"
        );
        counts = Some(branch_counts);
        terms.push((amp, addr, data));
    }
    Ok(Execution {
        outcome: QueryOutcome::from_terms(n, memory.bus_width(), terms),
        gate_counts: counts.expect("at least one branch"),
    })
}

/// Executes a stream while injecting stochastic gate faults: for each gate
/// applied along a branch, `fault(class)` decides whether it fails. A branch
/// with any fault is marked *corrupted* (its state is assumed orthogonal to
/// the ideal output — the worst case). Returns the survival weight
/// `Σ |α|²` over uncorrupted branches; the trajectory fidelity is its
/// square.
///
/// # Errors
///
/// Returns an [`ExecError`] if the stream itself is malformed (faults do
/// not cause errors; they only corrupt branches).
pub fn execute_layers_noisy(
    layers: &[QueryLayer],
    memory: &ClassicalMemory,
    address: &AddressState,
    mut fault: impl FnMut(GateClass) -> bool,
) -> Result<f64, ExecError> {
    let n = memory.address_width();
    assert_eq!(address.address_width(), n);
    let mut survival = 0.0;
    let mut machine = BranchMachine::new(n, memory);
    for &(amp, addr) in address.iter() {
        machine.reset(addr);
        let mut before = GateCounts::default();
        let mut corrupted = false;
        for (layer_idx, layer) in layers.iter().enumerate() {
            for &op in &layer.ops {
                machine.apply(layer_idx + 1, op)?;
                let after = machine.counts();
                // Sample one fault decision per newly applied gate.
                for (class, delta) in [
                    (GateClass::Cswap, after.cswap - before.cswap),
                    (
                        GateClass::InterNodeSwap,
                        after.inter_node_swap - before.inter_node_swap,
                    ),
                    (GateClass::LocalSwap, after.local_swap - before.local_swap),
                ] {
                    for _ in 0..delta {
                        if fault(class) {
                            corrupted = true;
                        }
                    }
                }
                before = after;
            }
        }
        machine.finish(layers.len())?;
        if !corrupted {
            survival += amp.norm_sqr();
        }
    }
    Ok(survival)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query_ops::{bb_query_layers, fat_tree_query_layers};
    use qsim::branch::AddressState;

    fn memory8() -> ClassicalMemory {
        ClassicalMemory::from_words(1, &[1, 0, 0, 1, 1, 0, 1, 0]).unwrap()
    }

    #[test]
    fn bb_execution_matches_ideal_query() {
        let mem = memory8();
        let addr = AddressState::full_superposition(3);
        let layers = bb_query_layers(3);
        let exec = execute_layers(&layers, &mem, &addr).unwrap();
        let ideal = mem.ideal_query(&addr);
        assert!((exec.outcome.fidelity(&ideal) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn fat_tree_execution_matches_ideal_query() {
        let mem = memory8();
        let addr = AddressState::uniform(3, &[0, 2, 7]).unwrap();
        let layers = fat_tree_query_layers(3);
        let exec = execute_layers(&layers, &mem, &addr).unwrap();
        let ideal = mem.ideal_query(&addr);
        assert!((exec.outcome.fidelity(&ideal) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn execution_works_across_capacities() {
        for n in 1..=7u32 {
            let cells: Vec<u64> = (0..(1u64 << n)).map(|i| i % 2).collect();
            let mem = ClassicalMemory::from_words(1, &cells).unwrap();
            let addr = AddressState::uniform(n, &[0, (1 << n) - 1]).unwrap();
            for layers in [bb_query_layers(n), fat_tree_query_layers(n)] {
                let exec = execute_layers(&layers, &mem, &addr).unwrap();
                assert_eq!(exec.outcome.data_for(0), Some(0), "n={n}");
                assert_eq!(
                    exec.outcome.data_for((1 << n) - 1),
                    Some(((1u64 << n) - 1) % 2),
                    "n={n}"
                );
            }
        }
    }

    #[test]
    fn gate_counts_scale_quadratically_not_linearly_in_capacity() {
        // The error-resilience argument (§8.1): gates touched along a
        // branch grow as log²(N), not as the router count O(N).
        let mut prev = 0u64;
        for n in [2u32, 4, 8] {
            let cells: Vec<u64> = vec![0; 1 << n];
            let mem = ClassicalMemory::from_words(1, &cells).unwrap();
            let addr = AddressState::classical(n, 0).unwrap();
            let exec = execute_layers(&fat_tree_query_layers(n), &mem, &addr).unwrap();
            let total = exec.gate_counts.total_quantum();
            // Quadratic growth: doubling n should ~4x the count, far less
            // than the ~2^n growth of the router count.
            if prev > 0 {
                let ratio = total as f64 / prev as f64;
                assert!(
                    (3.0..6.0).contains(&ratio),
                    "n={n}: ratio {ratio} not quadratic-like"
                );
            }
            prev = total;
        }
    }

    #[test]
    fn bb_cswap_count_formula() {
        // Along a branch: address qubit i routes through i levels (twice,
        // load+unload) and the bus through n down + n up:
        // 2·(Σ_{i<n} i + n) = n² + n CSWAPs.
        for n in 1..=6u32 {
            let cells: Vec<u64> = vec![0; 1 << n];
            let mem = ClassicalMemory::from_words(1, &cells).unwrap();
            let addr = AddressState::classical(n, 0).unwrap();
            let exec = execute_layers(&bb_query_layers(n), &mem, &addr).unwrap();
            assert_eq!(exec.gate_counts.cswap, u64::from(n * n + n), "n={n}");
            assert_eq!(exec.gate_counts.classical, 1);
            assert_eq!(exec.gate_counts.local_swap, 0, "BB has no local swaps");
        }
    }

    #[test]
    fn fat_tree_local_swap_count_scales_quadratically() {
        // 2n−1 swap steps, each touching the (up to n+1) qubits of the
        // query: ~2n² local swaps.
        for n in 2..=6u32 {
            let cells: Vec<u64> = vec![0; 1 << n];
            let mem = ClassicalMemory::from_words(1, &cells).unwrap();
            let addr = AddressState::classical(n, 0).unwrap();
            let exec = execute_layers(&fat_tree_query_layers(n), &mem, &addr).unwrap();
            let ls = exec.gate_counts.local_swap;
            let n64 = u64::from(n);
            assert!(
                ls >= n64 * n64 && ls <= 3 * n64 * n64,
                "n={n}: local swaps {ls} outside [n², 3n²]"
            );
            // CSWAP count identical to BB (same gate steps).
            assert_eq!(exec.gate_counts.cswap, n64 * n64 + n64);
        }
    }

    #[test]
    fn interned_layers_match_generators_and_share_storage() {
        for n in 1..=8u32 {
            let bb = interned_layers(LayerArch::BucketBrigade, n);
            assert_eq!(bb.as_ref(), bb_query_layers(n).as_slice());
            let ft = interned_layers(LayerArch::FatTree, n);
            assert_eq!(ft.as_ref(), fat_tree_query_layers(n).as_slice());
            // Second lookup returns the same allocation, not a copy.
            let bb2 = interned_layers(LayerArch::BucketBrigade, n);
            assert!(Arc::ptr_eq(&bb, &bb2), "n={n}: intern table must share");
        }
    }

    #[test]
    fn interned_layers_execute_identically_to_generated() {
        let mem = memory8();
        let addr = AddressState::full_superposition(3);
        let generated = execute_layers(&fat_tree_query_layers(3), &mem, &addr).unwrap();
        let interned =
            execute_layers(&interned_layers(LayerArch::FatTree, 3), &mem, &addr).unwrap();
        assert_eq!(generated, interned);
    }

    #[test]
    fn compiled_plan_matches_interpreter_across_capacities() {
        for n in 1..=7u32 {
            let cells: Vec<u64> = (0..(1u64 << n)).map(|i| (i * 5 + 2) % 2).collect();
            let mem = ClassicalMemory::from_words(1, &cells).unwrap();
            let addr = AddressState::uniform(n, &[0, (1 << n) - 1]).unwrap();
            for arch in [LayerArch::BucketBrigade, LayerArch::FatTree] {
                let layers = interned_layers(arch, n);
                let plan = CompiledQuery::compile(n, &layers).unwrap();
                let interpreted = execute_layers(&layers, &mem, &addr).unwrap();
                let compiled = plan.execute(&mem, &addr);
                assert_eq!(compiled, interpreted, "{arch:?} n={n}");
                assert_eq!(plan.gate_counts(), interpreted.gate_counts);
            }
        }
    }

    #[test]
    fn compiled_plans_are_interned() {
        let a = compiled_query(LayerArch::FatTree, 5);
        let b = compiled_query(LayerArch::FatTree, 5);
        assert!(Arc::ptr_eq(&a, &b), "plan intern table must share");
        assert_eq!(
            a.as_ref(),
            &CompiledQuery::compile(5, &interned_layers(LayerArch::FatTree, 5)).unwrap()
        );
    }

    #[test]
    fn compile_rejects_corrupted_streams_with_interpreter_error() {
        let mem = memory8();
        let addr = AddressState::classical(3, 5).unwrap();
        // Three corruption shapes: double store, truncated final layer,
        // and a bus-less stream.
        let mut double_store = bb_query_layers(3);
        double_store[1].ops.push(Op::Store(0));
        let mut truncated = fat_tree_query_layers(3);
        truncated.last_mut().unwrap().ops.clear();
        let mut early_classical = bb_query_layers(3);
        early_classical[0].ops.insert(0, Op::ClassicalGates);
        for layers in [double_store, truncated, early_classical] {
            let interp = execute_layers(&layers, &mem, &addr).unwrap_err();
            let compiled = CompiledQuery::compile(3, &layers).unwrap_err();
            assert_eq!(
                compiled, interp,
                "compile must report the interpreter's layer and message"
            );
        }
    }

    #[test]
    fn repeated_reads_cancel_in_both_paths() {
        // Duplicating the CLASSICAL-GATES op makes the two reads XOR-
        // cancel: the interpreter carries 0 out of the tree, and the
        // compiled plan proves the even parity at compile time.
        let mem = memory8();
        let addr = AddressState::uniform(3, &[0, 3, 6]).unwrap();
        let mut layers = bb_query_layers(3);
        let cg_layer = layers
            .iter()
            .position(|l| l.ops.contains(&Op::ClassicalGates))
            .unwrap();
        layers[cg_layer].ops.push(Op::ClassicalGates);
        let interpreted = execute_layers(&layers, &mem, &addr).unwrap();
        let plan = CompiledQuery::compile(3, &layers).unwrap();
        assert_eq!(plan.execute(&mem, &addr), interpreted);
        assert_eq!(interpreted.outcome.data_for(0), Some(0));
    }

    #[test]
    fn compiled_layer_trajectory_sums_to_totals() {
        for arch in [LayerArch::BucketBrigade, LayerArch::FatTree] {
            let plan = compiled_query(arch, 4);
            let mut sum = GateCounts::default();
            for c in plan.layer_gate_counts() {
                sum.cswap += c.cswap;
                sum.inter_node_swap += c.inter_node_swap;
                sum.local_swap += c.local_swap;
                sum.classical += c.classical;
            }
            assert_eq!(sum, plan.gate_counts(), "{arch:?}");
        }
    }

    #[test]
    fn compiled_retrieval_layer_matches_closed_forms() {
        // BB retrieves at layer 4n + 1; Fat-Tree at layer 5n (Fig. 6).
        for n in 1..=6u32 {
            let bb = compiled_query(LayerArch::BucketBrigade, n);
            assert_eq!(bb.retrieval_layer(), Some(4 * n as usize + 1), "n={n}");
            let ft = compiled_query(LayerArch::FatTree, n);
            assert_eq!(ft.retrieval_layer(), Some(5 * n as usize), "n={n}");
        }
    }

    #[test]
    fn compiled_noisy_survival_matches_interpreter_statistics() {
        // Same fault-callback count per class per branch as the
        // interpreter, and the same all-or-nothing extremes.
        let mem = memory8();
        let addr = AddressState::uniform(3, &[1, 4, 6]).unwrap();
        let layers = fat_tree_query_layers(3);
        let plan = CompiledQuery::compile(3, &layers).unwrap();
        assert!((plan.noisy_survival(&addr, |_| false) - 1.0).abs() < 1e-12);
        assert_eq!(plan.noisy_survival(&addr, |_| true), 0.0);
        let mut interp_calls = GateCounts::default();
        execute_layers_noisy(&layers, &mem, &addr, |class| {
            interp_calls.record(class, 1);
            false
        })
        .unwrap();
        let mut plan_calls = GateCounts::default();
        plan.noisy_survival(&addr, |class| {
            plan_calls.record(class, 1);
            false
        });
        assert_eq!(plan_calls, interp_calls);
    }

    #[test]
    fn corrupt_stream_is_rejected() {
        // Dropping the final unload leaves a qubit in flight.
        let mem = memory8();
        let addr = AddressState::classical(3, 5).unwrap();
        let mut layers = bb_query_layers(3);
        let last = layers.last_mut().unwrap();
        last.ops.clear();
        let err = execute_layers(&layers, &mem, &addr).unwrap_err();
        assert!(err.message.contains("in flight") || err.message.contains("UNLOAD"));
    }

    #[test]
    fn double_store_is_rejected() {
        let mem = memory8();
        let addr = AddressState::classical(3, 0).unwrap();
        let mut layers = bb_query_layers(3);
        // Duplicate the first store.
        layers[1].ops.push(Op::Store(0));
        let err = execute_layers(&layers, &mem, &addr).unwrap_err();
        assert!(err.message.contains("STORE"), "{err}");
    }

    #[test]
    fn noiseless_noisy_execution_survives_fully() {
        let mem = memory8();
        let addr = AddressState::full_superposition(3);
        let layers = fat_tree_query_layers(3);
        let survival = execute_layers_noisy(&layers, &mem, &addr, |_| false).unwrap();
        assert!((survival - 1.0).abs() < 1e-12);
    }

    #[test]
    fn fully_faulty_execution_survives_nothing() {
        let mem = memory8();
        let addr = AddressState::full_superposition(3);
        let layers = bb_query_layers(3);
        let survival = execute_layers_noisy(&layers, &mem, &addr, |_| true).unwrap();
        assert_eq!(survival, 0.0);
    }

    #[test]
    fn selective_faults_corrupt_expected_fraction() {
        // Fault only CSWAPs deterministically every k-th call: survival
        // must be 0 (every branch routes through CSWAPs).
        let mem = memory8();
        let addr = AddressState::uniform(3, &[1, 6]).unwrap();
        let layers = bb_query_layers(3);
        let mut count = 0u64;
        let survival = execute_layers_noisy(&layers, &mem, &addr, |class| {
            if class == GateClass::Cswap {
                count += 1;
                count == 1 // fault exactly the first CSWAP per run
            } else {
                false
            }
        })
        .unwrap();
        // First branch corrupted, second survives with weight 1/2.
        assert!((survival - 0.5).abs() < 1e-12);
    }
}
