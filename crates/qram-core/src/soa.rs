//! The columnar (structure-of-arrays) batch kernel — stage 3 of the
//! interpret → compile → columnar pipeline (see [`crate::exec`]).
//!
//! Once a [`CompiledQuery`] has reduced per-branch work to one classical
//! memory read, a batch's cost is dominated by everything *around* that
//! read: per-query allocator traffic, copies of the memory image, and
//! per-branch dispatch. One kernel, [`execute_columnar`], serves every
//! backend with a compiled plan — [`execute_batch`](crate::execute_batch)
//! and [`execute_batch_traced`](crate::execute_batch_traced), and through
//! them every provided `QramModel::execute_queries`, `ShardedQram`'s
//! included — and shapes the batch around that read:
//!
//! * **Direct gathers over the unsplit image** — a term's data is one
//!   indexed load from the caller's [`ClassicalMemory`]. Shard `s`'s
//!   local cell `l` is global cell `l·K + s`, so a sharded term's global
//!   address already indexes the unsplit image: no per-call shard split,
//!   partition or packed copy of the memory.
//! * **One shared term column** — every query's `(amplitude, address,
//!   data)` terms land, in query order, in one `Vec` sized up front and
//!   filled in one pass, one `extend` per query over its term slice with
//!   the data gathered on the fly, then shared as an `Arc<Vec<_>>`.
//!   Per-query outcomes are constant-size views into it
//!   ([`QueryOutcome::from_shared_column`]), so a query — and every later
//!   clone of its outcome — costs a reference-count bump, not a copy of
//!   its terms. An all-classical batch stores each lone term inline
//!   ([`QueryOutcome::from_term`]) and builds no column at all.
//! * **Epochs** — with memory updates, the §7.2 retrieval-order sweep
//!   applies each write to a private copy of the image and fills a
//!   query's slice of the column when the sweep reaches it, so every
//!   query reads the image current at its retrieval layer.
//! * **Memo accounting only when asked** — the traced entry point gets
//!   [`BatchCacheStats`] counted per epoch from the address sets (a
//!   bitmap for single-branch sets, one sort for multi-branch sets): one
//!   miss per distinct address set and one hit for every further query
//!   over a set already seen in that epoch. Untraced calls skip the
//!   accounting.
//!
//! The interpreter sweep [`crate::reference::execute_batch`] is the oracle:
//! workspace-level proptests pin this kernel's outcomes bit-equal to it on
//! every backend, shard count and write interleaving, and its
//! [`BatchCacheStats`] to a brute-force per-epoch memo model.

use std::sync::Arc;

use qsim::branch::{AddressState, ClassicalMemory, QueryOutcome};
use qsim::Complex;

use crate::exec::CompiledQuery;
use crate::model::{retrieval_order_sweep, BatchCacheStats, SweepEvent};

/// One `(amplitude, address, data)` outcome term.
type Term = (Complex, u64, u64);

/// Per-epoch memo accounting for [`execute_columnar`]'s traced callers:
/// the distinct-address bitmap (with its undo list) and the multi-branch
/// index buffer are reused across epochs, so a multi-epoch batch performs
/// O(1) allocations per epoch, not O(queries).
struct StatsScratch<'a> {
    addresses: &'a [AddressState],
    stats: &'a mut BatchCacheStats,
    /// One bit per memory cell: "a single-branch query over this address
    /// was already counted in the current epoch".
    seen: Vec<u64>,
    /// Addresses whose bits are set, for an O(distinct) clear per epoch.
    touched: Vec<u64>,
    /// Multi-branch query indices of the current epoch.
    multi: Vec<usize>,
    /// Queries visited in the current epoch.
    queries: u64,
    /// Distinct single-branch sets among them.
    distinct: u64,
}

impl<'a> StatsScratch<'a> {
    fn new(cells: usize, addresses: &'a [AddressState], stats: &'a mut BatchCacheStats) -> Self {
        StatsScratch {
            addresses,
            stats,
            seen: vec![0; cells.div_ceil(64)],
            touched: Vec::new(),
            multi: Vec::new(),
            queries: 0,
            distinct: 0,
        }
    }

    /// Counts query `q` into the current epoch. A single-branch set is
    /// deduplicated through the bitmap in O(1); multi-branch sets wait for
    /// [`Self::close_epoch`] (sets of different sizes can never collide,
    /// so the two classes count independently).
    fn visit(&mut self, q: usize) {
        self.queries += 1;
        if let &[(_, a)] = self.addresses[q].terms() {
            let (word, bit) = ((a >> 6) as usize, a & 63);
            if self.seen[word] >> bit & 1 == 0 {
                self.seen[word] |= 1 << bit;
                self.touched.push(a);
                self.distinct += 1;
            }
        } else {
            self.multi.push(q);
        }
    }

    /// Folds the current epoch into the stats — one miss per distinct set,
    /// one hit per repeat — and starts an empty one. Multi-branch sets are counted by sorting their
    /// query indices by address sequence.
    fn close_epoch(&mut self) {
        for &a in &self.touched {
            self.seen[(a >> 6) as usize] &= !(1 << (a & 63));
        }
        self.touched.clear();
        if !self.multi.is_empty() {
            let addresses = self.addresses;
            let key = |q: usize| addresses[q].iter().map(|&(_, a)| a);
            self.multi.sort_unstable_by(|&a, &b| key(a).cmp(key(b)));
            let repeats = self
                .multi
                .windows(2)
                .filter(|w| key(w[0]).eq(key(w[1])))
                .count();
            self.distinct += (self.multi.len() - repeats) as u64;
            self.multi.clear();
        }
        self.stats.misses += self.distinct;
        self.stats.hits += self.queries - self.distinct;
        self.queries = 0;
        self.distinct = 0;
    }
}

/// The columnar batch kernel behind every backend with a compiled plan.
/// Infallible: the plan was proven valid for every address at compile
/// time, so only its retrieval parity ([`CompiledQuery::reads_data`]) is
/// consulted.
///
/// Addresses are global: `memory` is the caller's unsplit image, and
/// `memory_updates` are `(layer, address, value)` writes ordered against
/// the queries by `retrieval_layer`, which is only called when there are
/// updates (an update-free batch is one epoch in query order). Memo
/// accounting runs only when `stats` is given; an empty batch returns at
/// once, so callers assert the memory's capacity first.
///
/// # Panics
///
/// Panics if any query's address width mismatches the memory.
pub(crate) fn execute_columnar(
    plan: &CompiledQuery,
    memory: &ClassicalMemory,
    addresses: &[AddressState],
    memory_updates: &[(u64, u64, u64)],
    retrieval_layer: impl Fn(usize) -> u64,
    stats: Option<&mut BatchCacheStats>,
) -> Vec<QueryOutcome> {
    if addresses.is_empty() {
        return Vec::new();
    }
    let n = memory.address_width();
    let bus_width = memory.bus_width();
    let reads_data = plan.reads_data();
    let total: usize = addresses
        .iter()
        .map(|address| {
            assert_eq!(
                address.address_width(),
                n,
                "address width must match memory capacity"
            );
            address.num_branches()
        })
        .sum();
    let mut scratch = stats.map(|stats| StatsScratch::new(memory.capacity(), addresses, stats));

    if memory_updates.is_empty() {
        if let Some(scratch) = &mut scratch {
            (0..addresses.len()).for_each(|q| scratch.visit(q));
            scratch.close_epoch();
        }
        let cells = memory.cells();
        let read = |a: u64| if reads_data { cells[a as usize] } else { 0 };
        if total == addresses.len() {
            return addresses
                .iter()
                .map(|address| {
                    let (amp, a) = address.terms()[0];
                    QueryOutcome::from_term(n, bus_width, (amp, a, read(a)))
                })
                .collect();
        }
        let column = collect_column(addresses, total, read);
        return shared_views(n, bus_width, &Arc::new(column), addresses);
    }

    // Placeholder data, filled per query by the sweep below; the XOR-
    // cancelled constant 0 stands when the plan reads nothing.
    let mut terms = collect_column(addresses, total, |_| 0);
    let mut offsets = Vec::with_capacity(addresses.len() + 1);
    offsets.push(0);
    offsets.extend(addresses.iter().scan(0, |end, address| {
        *end += address.num_branches();
        Some(*end)
    }));
    let retrievals: Vec<u64> = (0..addresses.len()).map(retrieval_layer).collect();
    let mut mem = memory.clone();
    retrieval_order_sweep(&retrievals, memory_updates, |event| -> Result<(), ()> {
        match event {
            SweepEvent::Update { address, value } => {
                if let Some(scratch) = &mut scratch {
                    scratch.close_epoch();
                }
                mem.write(address, value);
            }
            SweepEvent::Query(q) => {
                if let Some(scratch) = &mut scratch {
                    scratch.visit(q);
                }
                if reads_data {
                    let cells = mem.cells();
                    for term in &mut terms[offsets[q]..offsets[q + 1]] {
                        term.2 = cells[term.1 as usize];
                    }
                }
            }
        }
        Ok(())
    })
    .expect("columnar sweep is infallible");
    if let Some(scratch) = &mut scratch {
        scratch.close_epoch();
    }
    shared_views(n, bus_width, &Arc::new(terms), addresses)
}

/// Collects every query's terms, in query order, into one column of
/// `total` terms with `data(address)` as each term's data: one
/// allocation, filled query by query with one `extend` over each
/// query's term slice.
fn collect_column(
    addresses: &[AddressState],
    total: usize,
    data: impl Fn(u64) -> u64,
) -> Vec<Term> {
    let mut terms = Vec::with_capacity(total);
    for address in addresses {
        terms.extend(address.terms().iter().map(|&(amp, a)| (amp, a, data(a))));
    }
    debug_assert_eq!(terms.len(), total, "`total` counts every term");
    terms
}

/// Per-query outcomes as consecutive views into `column`.
fn shared_views(
    n: u32,
    bus_width: u32,
    column: &Arc<Vec<Term>>,
    addresses: &[AddressState],
) -> Vec<QueryOutcome> {
    let mut start = 0;
    addresses
        .iter()
        .map(|address| {
            let end = start + address.num_branches();
            let outcome = QueryOutcome::from_shared_column(n, bus_width, column, start, end);
            start = end;
            outcome
        })
        .collect()
}
