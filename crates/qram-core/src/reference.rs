//! The reference oracle for batched execution: one interpreter sweep that
//! every fast batch path is pinned against.
//!
//! [`execute_batch`] walks each query's full instruction stream through
//! the validating interpreter ([`execute_layers`]) inside the §7.2
//! retrieval-order sweep, against a private copy of the memory image. It
//! shares no code with the columnar kernel beyond that sweep, so the
//! workspace property tests can pin the kernel — outcomes on every
//! backend, shard count and write interleaving — against it.
//!
//! Sharded backends need no case of their own: their stream is the
//! equivalent monolith's, a global address already indexes the unsplit
//! image, and the sweep orders queries by their round-robin
//! [`QramModel::retrieval_layer`].

use qsim::branch::{AddressState, ClassicalMemory, QueryOutcome};

use crate::exec::{execute_layers, ExecError};
use crate::model::{retrieval_order_sweep, QramModel, SweepEvent};

/// Executes a batch of back-to-back queries by interpreting every query's
/// instruction stream ([`QramModel::query_layers`]) against the
/// memory contents current at its retrieval layer: queries are visited in
/// ascending [`QramModel::retrieval_layer`] order, and every update whose
/// layer is `<=` a query's retrieval layer lands before that query reads
/// (the §7.2 tie rule of [`crate::execute_batch`]).
///
/// # Errors
///
/// Returns the first [`ExecError`] in retrieval order if the stream fails
/// validation.
///
/// # Panics
///
/// Panics if the memory capacity mismatches the QRAM capacity, or a
/// query's address width mismatches the memory.
pub fn execute_batch<M: QramModel + ?Sized>(
    model: &M,
    memory: &ClassicalMemory,
    addresses: &[AddressState],
    memory_updates: &[(u64, u64, u64)],
) -> Result<Vec<QueryOutcome>, ExecError> {
    assert_eq!(
        memory.capacity() as u64,
        model.capacity().get(),
        "memory capacity must match QRAM capacity"
    );
    if addresses.is_empty() {
        return Ok(Vec::new());
    }
    let layers = model.query_layers();
    let retrievals: Vec<u64> = (0..addresses.len())
        .map(|q| model.retrieval_layer(q))
        .collect();
    let mut mem = memory.clone();
    let mut outcomes: Vec<Option<QueryOutcome>> = vec![None; addresses.len()];
    retrieval_order_sweep(&retrievals, memory_updates, |event| {
        match event {
            SweepEvent::Update { address, value } => mem.write(address, value),
            SweepEvent::Query(q) => {
                outcomes[q] = Some(execute_layers(&layers, &mem, &addresses[q])?.outcome);
            }
        }
        Ok(())
    })?;
    Ok(outcomes
        .into_iter()
        .map(|outcome| outcome.expect("every query executed"))
        .collect())
}
