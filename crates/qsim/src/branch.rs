//! Branch-based QRAM query simulation.
//!
//! A bucket-brigade query over a superposition of `B` addresses entangles
//! only the routers along the `B` active root-to-leaf paths; for each fixed
//! address, every router is in a definite (classical) state. The joint state
//! during a query therefore decomposes into `B` *branches*, each evolving
//! classically under the routing instructions. This module represents
//! address superpositions and query outcomes in that branch decomposition,
//! which is exact and costs `O(B · log N)` instead of `O(2^N)`.
//!
//! The instruction-level executor that drives branches through a schedule
//! lives in `qram-core`; this module provides the state types and the
//! *reference semantics* ([`ClassicalMemory::ideal_query`], Eq. 1 of the
//! paper) that executions are checked against.

use std::collections::BTreeMap;
use std::sync::Arc;

use crate::Complex;

/// A superposition of memory addresses: the input register
/// `Σᵢ αᵢ |i⟩` of a quantum query.
///
/// # Examples
///
/// ```
/// use qsim::branch::AddressState;
///
/// let addr = AddressState::uniform(3, &[0, 5, 7])?;
/// assert_eq!(addr.num_branches(), 3);
/// assert!((addr.probability_of(5) - 1.0 / 3.0).abs() < 1e-12);
/// # Ok::<(), qsim::branch::BranchError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct AddressState {
    address_width: u32,
    terms: AddressTerms,
}

/// Backing storage of an [`AddressState`]'s `(amplitude, address)`
/// terms. A lone term is stored inline, so a classical address carries
/// no heap block. The form is canonical — `One` exactly when there is
/// one term — so the derived equality compares terms, not storage.
#[derive(Debug, Clone, PartialEq)]
enum AddressTerms {
    One((Complex, u64)),
    Many(Vec<(Complex, u64)>),
}

/// Errors constructing branch states.
#[derive(Debug, Clone, PartialEq)]
pub enum BranchError {
    /// An address does not fit in the address width.
    AddressOutOfRange {
        /// The offending address.
        address: u64,
        /// The register width in bits.
        address_width: u32,
    },
    /// The same address appeared twice.
    DuplicateAddress(u64),
    /// The superposition had zero norm (no terms, or all-zero amplitudes).
    ZeroNorm,
}

impl std::fmt::Display for BranchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BranchError::AddressOutOfRange {
                address,
                address_width,
            } => write!(f, "address {address} does not fit in {address_width} bits"),
            BranchError::DuplicateAddress(a) => write!(f, "duplicate address {a}"),
            BranchError::ZeroNorm => write!(f, "superposition has zero norm"),
        }
    }
}

impl std::error::Error for BranchError {}

impl AddressState {
    /// Builds a normalized superposition from `(amplitude, address)` terms.
    ///
    /// # Errors
    ///
    /// Returns an error if any address repeats or exceeds the width, or if
    /// the total norm is zero.
    pub fn new(
        address_width: u32,
        terms: impl IntoIterator<Item = (Complex, u64)>,
    ) -> Result<Self, BranchError> {
        let mut seen = BTreeMap::new();
        let mut collected = Vec::new();
        let limit = 1u64.checked_shl(address_width).unwrap_or(u64::MAX);
        for (amp, addr) in terms {
            if addr >= limit {
                return Err(BranchError::AddressOutOfRange {
                    address: addr,
                    address_width,
                });
            }
            if seen.insert(addr, ()).is_some() {
                return Err(BranchError::DuplicateAddress(addr));
            }
            if amp.norm_sqr() > 0.0 {
                collected.push((amp, addr));
            }
        }
        let norm: f64 = collected
            .iter()
            .map(|(a, _)| a.norm_sqr())
            .sum::<f64>()
            .sqrt();
        if norm <= 1e-300 {
            return Err(BranchError::ZeroNorm);
        }
        for (a, _) in &mut collected {
            *a = *a / norm;
        }
        collected.sort_by_key(|&(_, addr)| addr);
        let terms = if collected.len() == 1 {
            AddressTerms::One(collected[0])
        } else {
            AddressTerms::Many(collected)
        };
        Ok(AddressState {
            address_width,
            terms,
        })
    }

    /// A single classical address `|address⟩`, stored inline.
    ///
    /// # Errors
    ///
    /// Returns an error if the address exceeds the width.
    pub fn classical(address_width: u32, address: u64) -> Result<Self, BranchError> {
        if address >= 1u64.checked_shl(address_width).unwrap_or(u64::MAX) {
            return Err(BranchError::AddressOutOfRange {
                address,
                address_width,
            });
        }
        Ok(AddressState {
            address_width,
            terms: AddressTerms::One((Complex::ONE, address)),
        })
    }

    /// A uniform superposition over the given addresses.
    ///
    /// # Errors
    ///
    /// Returns an error on duplicates, out-of-range addresses, or an empty
    /// list.
    pub fn uniform(address_width: u32, addresses: &[u64]) -> Result<Self, BranchError> {
        AddressState::new(address_width, addresses.iter().map(|&a| (Complex::ONE, a)))
    }

    /// The uniform superposition over *all* `2ⁿ` addresses (the state
    /// produced by Hadamards on the address register).
    ///
    /// # Panics
    ///
    /// Panics if `address_width > 20` (to bound memory).
    #[must_use]
    pub fn full_superposition(address_width: u32) -> Self {
        assert!(
            address_width <= 20,
            "full superposition limited to 20 address bits"
        );
        let all: Vec<u64> = (0..(1u64 << address_width)).collect();
        AddressState::uniform(address_width, &all).expect("valid by construction")
    }

    /// The address register width in bits.
    #[must_use]
    #[inline]
    pub fn address_width(&self) -> u32 {
        self.address_width
    }

    /// Number of branches (distinct addresses with non-zero amplitude).
    #[must_use]
    #[inline]
    pub fn num_branches(&self) -> usize {
        self.terms().len()
    }

    /// Iterates over `(amplitude, address)` terms in address order.
    #[inline]
    pub fn iter(&self) -> impl Iterator<Item = &(Complex, u64)> {
        self.terms().iter()
    }

    /// The `(amplitude, address)` terms in address order, as a slice —
    /// lets a batch kernel copy a query's terms with one `extend`.
    #[must_use]
    #[inline]
    pub fn terms(&self) -> &[(Complex, u64)] {
        match &self.terms {
            AddressTerms::One(term) => std::slice::from_ref(term),
            AddressTerms::Many(terms) => terms,
        }
    }

    /// Probability of measuring the given address.
    #[must_use]
    pub fn probability_of(&self, address: u64) -> f64 {
        self.terms()
            .iter()
            .find(|&&(_, a)| a == address)
            .map_or(0.0, |(amp, _)| amp.norm_sqr())
    }
}

/// Backing storage of a [`QueryOutcome`]'s `(amplitude, address, data)`
/// terms: either owned per outcome (the single-query shape) or a range of
/// a term column shared across a whole batch (the columnar batch kernel
/// fills one `Vec` of terms per call and shares it, so per-query outcomes
/// cost one reference-count bump instead of one heap allocation each).
#[derive(Debug, Clone)]
enum OutcomeTerms {
    Owned(Vec<(Complex, u64, u64)>),
    /// A lone term stored inline: the single-branch (classical) query
    /// shape that dominates serving batches pays neither a heap
    /// allocation nor a reference-count bump per outcome.
    Single((Complex, u64, u64)),
    Shared {
        column: Arc<Vec<(Complex, u64, u64)>>,
        start: usize,
        end: usize,
    },
}

/// The outcome of a quantum query: the entangled address–bus state
/// `Σᵢ αᵢ |i⟩_A |xᵢ⟩_B` of Eq. (1).
///
/// Equality is semantic — two outcomes are equal when their register
/// widths and term sequences match, regardless of whether the terms are
/// owned or borrowed from a shared batch column.
#[derive(Debug, Clone)]
pub struct QueryOutcome {
    address_width: u32,
    bus_width: u32,
    terms: OutcomeTerms,
}

impl PartialEq for QueryOutcome {
    fn eq(&self, other: &Self) -> bool {
        self.address_width == other.address_width
            && self.bus_width == other.bus_width
            && self.terms() == other.terms()
    }
}

impl QueryOutcome {
    /// Builds an outcome from `(amplitude, address, data)` terms. Intended
    /// for executors; terms are sorted by address and assumed normalized.
    ///
    /// # Panics
    ///
    /// Panics if any data value exceeds the bus width.
    #[must_use]
    pub fn from_terms(
        address_width: u32,
        bus_width: u32,
        mut terms: Vec<(Complex, u64, u64)>,
    ) -> Self {
        let limit = 1u64.checked_shl(bus_width).unwrap_or(u64::MAX);
        for &(_, _, data) in &terms {
            assert!(
                data < limit,
                "data value {data} does not fit in bus width {bus_width}"
            );
        }
        terms.sort_by_key(|&(_, addr, _)| addr);
        QueryOutcome {
            address_width,
            bus_width,
            terms: OutcomeTerms::Owned(terms),
        }
    }

    /// Builds a single-branch (classical) outcome from its lone
    /// `(amplitude, address, data)` term, stored inline — no heap
    /// allocation. The batch kernels use this for all-classical batches,
    /// where even a shared column would cost an allocation and a
    /// reference-count bump per batch.
    ///
    /// # Panics
    ///
    /// Panics if the data value exceeds the bus width.
    #[inline]
    #[must_use]
    pub fn from_term(address_width: u32, bus_width: u32, term: (Complex, u64, u64)) -> Self {
        assert!(
            term.2 < 1u64.checked_shl(bus_width).unwrap_or(u64::MAX),
            "data value {} does not fit in bus width {bus_width}",
            term.2
        );
        QueryOutcome {
            address_width,
            bus_width,
            terms: OutcomeTerms::Single(term),
        }
    }

    /// Builds an outcome as the `[start, end)` slice of a term column
    /// shared across a batch. The caller (a batch executor) must supply
    /// terms already sorted ascending by address with data fitting the bus
    /// width — both invariants hold by construction when the column is
    /// gathered from an [`AddressState`] (sorted) against a validated
    /// memory, and are `debug_assert`ed here to keep the hot path free of
    /// per-term work.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds or inverted.
    #[inline]
    #[must_use]
    pub fn from_shared_column(
        address_width: u32,
        bus_width: u32,
        column: &Arc<Vec<(Complex, u64, u64)>>,
        start: usize,
        end: usize,
    ) -> Self {
        assert!(
            start <= end && end <= column.len(),
            "term range {start}..{end} out of bounds for column of {}",
            column.len()
        );
        debug_assert!(
            column[start..end].windows(2).all(|w| w[0].1 <= w[1].1),
            "shared terms must be sorted by address"
        );
        debug_assert!(
            column[start..end]
                .iter()
                .all(|&(_, _, d)| d < 1u64.checked_shl(bus_width).unwrap_or(u64::MAX)),
            "shared term data must fit the bus width"
        );
        let terms = if end - start == 1 {
            OutcomeTerms::Single(column[start])
        } else {
            OutcomeTerms::Shared {
                column: Arc::clone(column),
                start,
                end,
            }
        };
        QueryOutcome {
            address_width,
            bus_width,
            terms,
        }
    }

    /// The terms as a slice, whichever representation backs them.
    #[inline]
    fn terms(&self) -> &[(Complex, u64, u64)] {
        match &self.terms {
            OutcomeTerms::Owned(terms) => terms,
            OutcomeTerms::Single(term) => std::slice::from_ref(term),
            OutcomeTerms::Shared { column, start, end } => &column[*start..*end],
        }
    }

    /// The address register width.
    #[must_use]
    #[inline]
    pub fn address_width(&self) -> u32 {
        self.address_width
    }

    /// The bus register width.
    #[must_use]
    #[inline]
    pub fn bus_width(&self) -> u32 {
        self.bus_width
    }

    /// Iterates over `(amplitude, address, data)` terms in address order.
    #[inline]
    pub fn iter(&self) -> impl Iterator<Item = &(Complex, u64, u64)> {
        self.terms().iter()
    }

    /// Number of branches.
    #[must_use]
    #[inline]
    pub fn num_branches(&self) -> usize {
        self.terms().len()
    }

    /// The data value returned for `address`, if that branch exists.
    #[must_use]
    pub fn data_for(&self, address: u64) -> Option<u64> {
        self.terms()
            .iter()
            .find(|&&(_, a, _)| a == address)
            .map(|&(_, _, d)| d)
    }

    /// Fidelity `|⟨self|other⟩|²` between two outcomes, treating each
    /// `(address, data)` pair as an orthogonal basis state.
    ///
    /// # Panics
    ///
    /// Panics if register widths differ.
    #[must_use]
    pub fn fidelity(&self, other: &QueryOutcome) -> f64 {
        assert_eq!(self.address_width, other.address_width);
        assert_eq!(self.bus_width, other.bus_width);
        let map: BTreeMap<(u64, u64), Complex> = self
            .terms()
            .iter()
            .map(|&(amp, a, d)| ((a, d), amp))
            .collect();
        let overlap: Complex = other
            .terms()
            .iter()
            .filter_map(|&(amp, a, d)| map.get(&(a, d)).map(|mine| mine.conj() * amp))
            .sum();
        overlap.norm_sqr()
    }
}

/// A classical memory of `N` cells, each holding a `bus_width`-bit word —
/// the data plane queried by the QRAM.
///
/// Cells are packed into `u64` words at the bus width rounded up to a
/// power of two (the *lane*): `64 / lane` cells per word, cell `a` in
/// lane `a mod (64 / lane)` of word `a / (64 / lane)`. Lane bits above
/// the bus width, and the lanes past the last cell of a memory smaller
/// than one word, are always zero, so equal cell values are equal
/// words: the derived equality, a buffer-reusing `clone_from` and a
/// checksum over [`ClassicalMemory::words`] all see cell values only.
///
/// # Examples
///
/// ```
/// use qsim::branch::{AddressState, ClassicalMemory};
///
/// let mem = ClassicalMemory::from_words(1, &[1, 0, 1, 1])?;
/// let addr = AddressState::uniform(2, &[0, 3])?;
/// let out = mem.ideal_query(&addr);
/// assert_eq!(out.data_for(0), Some(1));
/// assert_eq!(out.data_for(3), Some(1));
/// assert_eq!(mem.words(), &[0b1101]);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, PartialEq)]
pub struct ClassicalMemory {
    /// The bus width and its lane geometry, worked out once.
    lanes: Lanes,
    capacity: usize,
    words: Vec<u64>,
}

impl Clone for ClassicalMemory {
    fn clone(&self) -> Self {
        ClassicalMemory {
            lanes: self.lanes,
            capacity: self.capacity,
            words: self.words.clone(),
        }
    }

    /// Copies `source` into `self`, reusing `self`'s word buffer when it
    /// is large enough.
    fn clone_from(&mut self, source: &Self) {
        self.lanes = source.lanes;
        self.capacity = source.capacity;
        self.words.clone_from(&source.words);
    }
}

/// Errors constructing a [`ClassicalMemory`].
#[derive(Debug, Clone, PartialEq)]
pub enum MemoryError {
    /// The number of cells is not a power of two ≥ 2.
    BadCellCount(usize),
    /// A word does not fit in the bus width.
    WordTooWide {
        /// Cell index.
        index: usize,
        /// The offending value.
        value: u64,
        /// Bus width in bits.
        bus_width: u32,
    },
    /// Bus width outside `1..=63`.
    BadBusWidth(u32),
    /// A packed image holds the wrong number of words for its capacity.
    PackedLength {
        /// Words the capacity and bus width call for.
        expected: usize,
        /// Words given.
        found: usize,
    },
    /// A packed word sets a lane bit above the bus width or a bit of a
    /// lane past the last cell.
    StrayBits {
        /// Word index.
        word: usize,
        /// The stray bits of that word.
        bits: u64,
    },
}

impl std::fmt::Display for MemoryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MemoryError::BadCellCount(n) => {
                write!(f, "cell count {n} is not a power of two >= 2")
            }
            MemoryError::WordTooWide {
                index,
                value,
                bus_width,
            } => write!(
                f,
                "cell {index} value {value} does not fit in bus width {bus_width}"
            ),
            MemoryError::BadBusWidth(w) => write!(f, "bus width {w} outside 1..=63"),
            MemoryError::PackedLength { expected, found } => {
                write!(f, "packed image has {found} words, expected {expected}")
            }
            MemoryError::StrayBits { word, bits } => {
                write!(f, "packed word {word} sets stray bits {bits:#x}")
            }
        }
    }
}

impl std::error::Error for MemoryError {}

/// Where a cell sits in the packed words, for one bus width.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Lanes {
    /// The bus width in bits.
    bus_width: u32,
    /// `log₂` of the cells per word.
    cell_shift: u32,
    /// `log₂` of the lane width in bits.
    lane_shift: u32,
    /// The bus-width mask of one cell's value.
    mask: u64,
}

impl Lanes {
    fn of(bus_width: u32) -> Self {
        let lane_shift = bus_width.next_power_of_two().trailing_zeros();
        Lanes {
            bus_width,
            cell_shift: 6 - lane_shift,
            lane_shift,
            mask: (1 << bus_width) - 1,
        }
    }

    /// Cells per word.
    fn per_word(self) -> usize {
        1 << self.cell_shift
    }

    /// The word holding cell `address`, and the bit offset of its lane:
    /// the cell's first bit, `address · lane`, split at 64. That product
    /// fits a `u64` for every address below a capacity whose words fit
    /// in memory; a larger address wraps.
    #[inline]
    fn locate(self, address: u64) -> (usize, u32) {
        let bit = address << self.lane_shift;
        ((bit >> 6) as usize, (bit & 63) as u32)
    }
}

/// Cell reads from a [`ClassicalMemory`] with the lane geometry worked
/// out once ([`ClassicalMemory::gather`]): the per-term load of a batch
/// kernel, with no range check beyond the word slice's own.
#[derive(Debug, Clone, Copy)]
pub struct Gather<'a> {
    words: &'a [u64],
    lanes: Lanes,
}

impl Gather<'_> {
    /// The cell at `address`, which the caller has checked against the
    /// capacity: in a memory smaller than one word, an address past the
    /// last cell reads a zero padding lane instead of panicking.
    ///
    /// # Panics
    ///
    /// Panics if `address` lies past the last word (for addresses below
    /// `2^(64 − log₂ lane)`; a larger one wraps, see `Lanes::locate`).
    #[must_use]
    #[inline]
    pub fn read(&self, address: u64) -> u64 {
        let (word, offset) = self.lanes.locate(address);
        (self.words[word] >> offset) & self.lanes.mask
    }
}

impl ClassicalMemory {
    /// Builds a memory from explicit words, one per cell, packing them.
    ///
    /// The range check is one OR over every cell, which vectorizes; only
    /// a failing check walks the cells again to name the first wide one.
    ///
    /// # Errors
    ///
    /// Returns an error if the cell count is not a power of two ≥ 2, the
    /// bus width is outside `1..=63`, or a word overflows the bus
    /// ([`MemoryError::WordTooWide`] names the first such cell).
    pub fn from_words(bus_width: u32, words: &[u64]) -> Result<Self, MemoryError> {
        ClassicalMemory::packed_len(bus_width, words.len())?;
        if words.iter().fold(0, |acc, &value| acc | value) >> bus_width != 0 {
            let (index, &value) = words
                .iter()
                .enumerate()
                .find(|&(_, &value)| value >> bus_width != 0)
                .expect("the fold saw a wide word");
            return Err(MemoryError::WordTooWide {
                index,
                value,
                bus_width,
            });
        }
        let lanes = Lanes::of(bus_width);
        let packed = words
            .chunks(lanes.per_word())
            .map(|cells| {
                cells.iter().enumerate().fold(0, |word, (slot, &value)| {
                    word | (value << ((slot as u32) << lanes.lane_shift))
                })
            })
            .collect();
        Ok(ClassicalMemory {
            lanes,
            capacity: words.len(),
            words: packed,
        })
    }

    /// Builds a memory that keeps `words` as its packed image, without a
    /// copy: the constructor for a caller that has just decoded a
    /// checkpoint. The layout is [`ClassicalMemory::words`]'s.
    ///
    /// # Errors
    ///
    /// As [`ClassicalMemory::packed_len`]; [`MemoryError::PackedLength`]
    /// if `words` is not that long; [`MemoryError::StrayBits`] if a word
    /// sets a lane bit above the bus width or a padding lane's bit.
    pub fn from_packed(
        bus_width: u32,
        capacity: usize,
        words: Vec<u64>,
    ) -> Result<Self, MemoryError> {
        let expected = ClassicalMemory::packed_len(bus_width, capacity)?;
        if words.len() != expected {
            return Err(MemoryError::PackedLength {
                expected,
                found: words.len(),
            });
        }
        let lanes = Lanes::of(bus_width);
        // The data bits of every lane that holds a cell.
        let valid = (0..lanes.per_word().min(capacity)).fold(0, |bits, slot| {
            bits | (lanes.mask << (slot << lanes.lane_shift))
        });
        if words.iter().fold(0, |acc, &word| acc | word) & !valid != 0 {
            let (word, bits) = words
                .iter()
                .enumerate()
                .map(|(word, &bits)| (word, bits & !valid))
                .find(|&(_, bits)| bits != 0)
                .expect("the fold saw a stray bit");
            return Err(MemoryError::StrayBits { word, bits });
        }
        Ok(ClassicalMemory {
            lanes,
            capacity,
            words,
        })
    }

    /// The number of packed words a memory of `capacity` cells at
    /// `bus_width` keeps.
    ///
    /// # Errors
    ///
    /// [`MemoryError::BadBusWidth`] if the bus width is outside `1..=63`,
    /// [`MemoryError::BadCellCount`] if `capacity` is not a power of two
    /// ≥ 2.
    pub fn packed_len(bus_width: u32, capacity: usize) -> Result<usize, MemoryError> {
        if !(1..=63).contains(&bus_width) {
            return Err(MemoryError::BadBusWidth(bus_width));
        }
        if capacity < 2 || !capacity.is_power_of_two() {
            return Err(MemoryError::BadCellCount(capacity));
        }
        Ok(capacity.div_ceil(Lanes::of(bus_width).per_word()))
    }

    /// An all-zeros memory with `capacity` single-bit cells.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is not a power of two ≥ 2.
    #[must_use]
    pub fn zeros(capacity: usize) -> Self {
        let words = ClassicalMemory::packed_len(1, capacity).expect("zeros are valid");
        ClassicalMemory {
            lanes: Lanes::of(1),
            capacity,
            words: vec![0; words],
        }
    }

    /// Number of cells `N`.
    #[must_use]
    #[inline]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The address width `log₂ N`.
    #[must_use]
    #[inline]
    pub fn address_width(&self) -> u32 {
        self.capacity.trailing_zeros()
    }

    /// The bus width in bits.
    #[must_use]
    #[inline]
    pub fn bus_width(&self) -> u32 {
        self.lanes.bus_width
    }

    /// Reads a cell.
    ///
    /// # Panics
    ///
    /// Panics if `address` is out of range.
    #[must_use]
    #[inline]
    pub fn read(&self, address: u64) -> u64 {
        assert!(
            address < self.capacity as u64,
            "address {address} out of range for {} cells",
            self.capacity
        );
        self.gather().read(address)
    }

    /// Writes a cell (classical memory update between queries).
    ///
    /// # Panics
    ///
    /// Panics if the address is out of range or the value overflows the bus.
    #[inline]
    pub fn write(&mut self, address: u64, value: u64) {
        assert!(
            value >> self.lanes.bus_width == 0,
            "value {value} does not fit in bus width {}",
            self.lanes.bus_width
        );
        assert!(
            address < self.capacity as u64,
            "address {address} out of range for {} cells",
            self.capacity
        );
        if self.lanes.cell_shift == 0 {
            // A cell fills its word (bus widths 33..=63): a plain store,
            // without the shifts and masks of a lane update.
            self.words[address as usize] = value;
        } else {
            let (word, offset) = self.lanes.locate(address);
            let word = &mut self.words[word];
            *word = (*word & !(self.lanes.mask << offset)) | (value << offset);
        }
    }

    /// Cell reads with the lane geometry worked out once, for a loop
    /// over many addresses.
    #[must_use]
    #[inline]
    pub fn gather(&self) -> Gather<'_> {
        Gather {
            words: &self.words,
            lanes: self.lanes,
        }
    }

    /// The packed image: cells in address order, `64 / lane` per word,
    /// where a lane is the bus width rounded up to a power of two; lane
    /// bits above the bus width and padding lanes are zero.
    #[must_use]
    #[inline]
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// The addresses whose cells differ between `self` and `other`, in
    /// ascending order: one word compared at a time, walking only the
    /// lanes of the words that differ.
    ///
    /// # Panics
    ///
    /// Panics if the two memories differ in capacity or lane width.
    pub fn differing_cells<'a>(
        &'a self,
        other: &'a ClassicalMemory,
    ) -> impl Iterator<Item = u64> + 'a {
        assert_eq!(
            self.capacity, other.capacity,
            "compared memories must have the same capacity"
        );
        let lanes = self.lanes;
        assert_eq!(
            lanes.lane_shift, other.lanes.lane_shift,
            "compared memories must have the same lane width"
        );
        let lane = u64::MAX >> (64 - (1 << lanes.lane_shift));
        self.words
            .iter()
            .zip(&other.words)
            .enumerate()
            .filter(|(_, (a, b))| a != b)
            .flat_map(move |(word, (a, b))| {
                let mut diff = a ^ b;
                std::iter::from_fn(move || {
                    (diff != 0).then(|| {
                        let slot = diff.trailing_zeros() >> lanes.lane_shift;
                        diff &= !(lane << (slot << lanes.lane_shift));
                        ((word as u64) << lanes.cell_shift) | u64::from(slot)
                    })
                })
            })
    }

    /// The *reference semantics* of a quantum query, Eq. (1):
    /// `Σᵢ αᵢ|i⟩|0⟩ → Σᵢ αᵢ|i⟩|xᵢ⟩`. Instruction-level executions are
    /// validated against this outcome.
    ///
    /// # Panics
    ///
    /// Panics if the address state's width does not match the memory.
    #[must_use]
    pub fn ideal_query(&self, address: &AddressState) -> QueryOutcome {
        assert_eq!(
            address.address_width(),
            self.address_width(),
            "address width must match memory capacity"
        );
        let cells = self.gather();
        let terms = address
            .iter()
            .map(|&(amp, addr)| (amp, addr, cells.read(addr)))
            .collect();
        QueryOutcome::from_terms(self.address_width(), self.bus_width(), terms)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clone_from_reuses_the_word_buffer() {
        let source = ClassicalMemory::from_words(2, &[3, 0, 1, 2]).unwrap();
        let mut target = ClassicalMemory::zeros(4);
        target.write(1, 1);
        let words = target.words().as_ptr();
        target.clone_from(&source);
        assert_eq!(target, source);
        assert_eq!(target.words().as_ptr(), words, "no new word buffer");
    }

    #[test]
    fn uniform_normalizes() {
        let s = AddressState::uniform(3, &[1, 2, 4, 6]).unwrap();
        assert_eq!(s.num_branches(), 4);
        for &(amp, _) in s.iter() {
            assert!((amp.norm_sqr() - 0.25).abs() < 1e-12);
        }
    }

    #[test]
    fn duplicate_address_rejected() {
        assert_eq!(
            AddressState::uniform(3, &[1, 1]),
            Err(BranchError::DuplicateAddress(1))
        );
    }

    #[test]
    fn out_of_range_rejected() {
        assert!(matches!(
            AddressState::classical(2, 4),
            Err(BranchError::AddressOutOfRange { .. })
        ));
    }

    #[test]
    fn zero_norm_rejected() {
        assert_eq!(
            AddressState::new(2, std::iter::empty()),
            Err(BranchError::ZeroNorm)
        );
        assert_eq!(
            AddressState::new(2, [(Complex::ZERO, 1)]),
            Err(BranchError::ZeroNorm)
        );
    }

    #[test]
    fn full_superposition_covers_all_addresses() {
        let s = AddressState::full_superposition(4);
        assert_eq!(s.num_branches(), 16);
        assert!((s.probability_of(9) - 1.0 / 16.0).abs() < 1e-12);
    }

    #[test]
    fn ideal_query_matches_memory() {
        let mem = ClassicalMemory::from_words(2, &[3, 0, 1, 2]).unwrap();
        let addr = AddressState::full_superposition(2);
        let out = mem.ideal_query(&addr);
        assert_eq!(out.data_for(0), Some(3));
        assert_eq!(out.data_for(1), Some(0));
        assert_eq!(out.data_for(2), Some(1));
        assert_eq!(out.data_for(3), Some(2));
        assert_eq!(out.bus_width(), 2);
        assert_eq!(out.address_width(), 2);
    }

    #[test]
    fn outcome_fidelity_of_identical_states_is_one() {
        let mem = ClassicalMemory::from_words(1, &[1, 0, 1, 0]).unwrap();
        let addr = AddressState::uniform(2, &[0, 2]).unwrap();
        let out = mem.ideal_query(&addr);
        assert!((out.fidelity(&out) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn outcome_fidelity_detects_wrong_data() {
        let mem = ClassicalMemory::from_words(1, &[1, 0]).unwrap();
        let addr = AddressState::uniform(1, &[0, 1]).unwrap();
        let good = mem.ideal_query(&addr);
        // Corrupt one branch's data: overlap halves, fidelity quarters.
        let bad = QueryOutcome::from_terms(
            1,
            1,
            good.iter()
                .map(|&(amp, a, d)| (amp, a, if a == 0 { 1 - d } else { d }))
                .collect(),
        );
        assert!((good.fidelity(&bad) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn memory_write_roundtrip() {
        let mut mem = ClassicalMemory::zeros(8);
        mem.write(5, 1);
        assert_eq!(mem.read(5), 1);
        assert_eq!(mem.capacity(), 8);
        assert_eq!(mem.address_width(), 3);
    }

    #[test]
    fn memory_equality_ignores_how_the_words_got_there() {
        let fresh = ClassicalMemory::from_words(1, &[0, 1]).unwrap();
        let mut rewritten = ClassicalMemory::from_words(1, &[0, 0]).unwrap();
        rewritten.write(1, 1);
        assert_eq!(fresh, rewritten);
    }

    #[test]
    fn every_address_constructor_yields_the_canonical_form() {
        let one = |s: &AddressState| matches!(s.terms, AddressTerms::One(_));
        let classical = AddressState::classical(3, 5).unwrap();
        assert!(one(&classical), "a classical address is stored inline");
        // Whichever constructor leaves one term stores it inline, so it
        // equals the classical address.
        for lone in [
            AddressState::new(3, [(Complex::ONE, 5)]).unwrap(),
            AddressState::new(3, [(Complex::real(2.0), 5)]).unwrap(),
            AddressState::new(
                3,
                [(Complex::ZERO, 2), (Complex::ONE, 5), (Complex::ZERO, 7)],
            )
            .unwrap(),
            AddressState::uniform(3, &[5]).unwrap(),
        ] {
            assert!(one(&lone), "{lone:?}");
            assert_eq!(lone, classical);
        }
        assert!(one(&AddressState::full_superposition(0)));
        // Two or more terms are one heap block, equal however they came.
        let many = AddressState::uniform(3, &[1, 5]).unwrap();
        let zero_padded = AddressState::new(
            3,
            [(Complex::ONE, 5), (Complex::ZERO, 2), (Complex::ONE, 1)],
        )
        .unwrap();
        for state in [&many, &zero_padded, &AddressState::full_superposition(3)] {
            assert!(!one(state), "{state:?}");
        }
        assert_eq!(zero_padded, many);
        assert_ne!(many, classical);
        // The inline constructor keeps the general one's range check.
        for (width, address) in [(2, 4), (64, u64::MAX)] {
            assert_eq!(
                AddressState::classical(width, address),
                AddressState::new(width, [(Complex::ONE, address)])
            );
        }
        assert!(AddressState::classical(2, 4).is_err());
    }

    #[test]
    fn address_terms_slice_matches_iter() {
        let s = AddressState::uniform(3, &[4, 1, 6]).unwrap();
        let from_iter: Vec<(Complex, u64)> = s.iter().copied().collect();
        assert_eq!(s.terms(), from_iter.as_slice());
        // Terms are sorted by address.
        assert_eq!(
            s.terms().iter().map(|&(_, a)| a).collect::<Vec<_>>(),
            vec![1, 4, 6]
        );
    }

    #[test]
    fn memory_validation() {
        assert!(matches!(
            ClassicalMemory::from_words(1, &[0, 1, 2, 0]),
            Err(MemoryError::WordTooWide { index: 2, .. })
        ));
        // The first of two wide words is named.
        let two_wide = [0, 1, 0, 5, 1, 0, 9, 0];
        assert_eq!(
            ClassicalMemory::from_words(1, &two_wide),
            Err(MemoryError::WordTooWide {
                index: 3,
                value: 5,
                bus_width: 1,
            })
        );
        assert!(matches!(
            ClassicalMemory::from_words(1, &[0, 1, 0]),
            Err(MemoryError::BadCellCount(3))
        ));
        assert!(matches!(
            ClassicalMemory::from_words(0, &[0, 1]),
            Err(MemoryError::BadBusWidth(0))
        ));
    }

    #[test]
    fn cells_pack_at_the_bus_width_rounded_up_to_a_power_of_two() {
        // Bus width 3 packs in 4-bit lanes, 16 cells per word.
        let cells: Vec<u64> = (0..32).map(|i| i % 8).collect();
        let mem = ClassicalMemory::from_words(3, &cells).unwrap();
        assert_eq!(mem.words().len(), 2);
        assert_eq!(mem.words(), &[0x7654_3210_7654_3210; 2]);
        // Bus width 33..=63 keeps one cell per word.
        let wide = ClassicalMemory::from_words(40, &[7, 1 << 39]).unwrap();
        assert_eq!(wide.words(), &[7, 1 << 39]);
        // A memory smaller than one word pads its last lanes with zeros.
        let small = ClassicalMemory::from_words(1, &[1, 1]).unwrap();
        assert_eq!(small.words(), &[0b11]);
        assert_eq!(ClassicalMemory::packed_len(1, 2), Ok(1));
        assert_eq!(ClassicalMemory::packed_len(8, 64), Ok(8));
    }

    #[test]
    fn a_packed_image_with_stray_bits_or_a_wrong_length_is_refused() {
        // Bus width 3: bit 3 of each 4-bit lane is above the bus.
        let words: Vec<u64> = vec![0; 2];
        assert!(ClassicalMemory::from_packed(3, 32, words.clone()).is_ok());
        assert_eq!(
            ClassicalMemory::from_packed(3, 32, vec![0, 1 << 7]),
            Err(MemoryError::StrayBits {
                word: 1,
                bits: 1 << 7
            })
        );
        // Four 1-bit cells leave bits 4.. of their one word as padding.
        assert!(ClassicalMemory::from_packed(1, 4, vec![0b1111]).is_ok());
        assert_eq!(
            ClassicalMemory::from_packed(1, 4, vec![0b1_0000]),
            Err(MemoryError::StrayBits {
                word: 0,
                bits: 0b1_0000
            })
        );
        assert_eq!(
            ClassicalMemory::from_packed(1, 128, vec![0]),
            Err(MemoryError::PackedLength {
                expected: 2,
                found: 1
            })
        );
        assert_eq!(
            ClassicalMemory::from_packed(1, 3, vec![0]),
            Err(MemoryError::BadCellCount(3))
        );
        assert_eq!(
            ClassicalMemory::from_packed(64, 2, vec![0, 0]),
            Err(MemoryError::BadBusWidth(64))
        );
    }

    #[test]
    fn differing_cells_walk_the_changed_lanes_in_address_order() {
        let base = ClassicalMemory::from_words(2, &[0; 64]).unwrap();
        let mut changed = base.clone();
        for (address, value) in [(40, 1), (3, 2), (31, 3), (32, 1), (4, 3)] {
            changed.write(address, value);
        }
        assert_eq!(
            base.differing_cells(&changed).collect::<Vec<_>>(),
            [3, 4, 31, 32, 40]
        );
        assert_eq!(changed.differing_cells(&changed).count(), 0);
    }

    #[test]
    fn error_display() {
        let e = BranchError::AddressOutOfRange {
            address: 9,
            address_width: 3,
        };
        assert_eq!(e.to_string(), "address 9 does not fit in 3 bits");
        assert!(MemoryError::BadCellCount(3).to_string().contains("3"));
    }
}
