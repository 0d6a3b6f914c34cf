//! Crash-consistent persistence for the replicated fleet memory.
//!
//! Everything above this module keeps fleet state in RAM: the
//! [`ReplicatedMemory`](crate::ReplicatedMemory) write log, per-replica
//! memory images, and epoch watermarks all die with the process. This
//! module is the durability tier underneath that state:
//!
//! ```text
//!   write_at(addr, value)            fleet epoch e
//!        │                                │
//!        ▼                                ▼
//!   ┌──────────────────────────────────────────────┐
//!   │ commit group  (buffered frames, NOT durable) │  ≤ max_records or
//!   └──────────────────────────────────────────────┘  max_delay deadline
//!        │ one append + one fsync per group = the ack point
//!        ▼
//!   ┌──────────────────────────────────────────────┐
//!   │ wal.log   [len][crc32][epoch origin addr val]│
//!   └──────────────────────────────────────────────┘
//!        │ every `checkpoint_every` synced records
//!        ▼
//!   ┌──────────────┐ tmp+rename ┌──────────────┐┌──────┐  ┌──────┐
//!   │checkpoint.tmp│ ──────────▶│checkpoint.img││d.0001│──│d.0002│…
//!   └──────────────┘            └──────────────┘└──────┘  └──────┘
//!        │ deltas chain up to `max_chain`, then fold to a new base;
//!        │ the WAL suffix rewrites behind each install (compaction)
//!        ▼
//!   recovery = base image + delta chain + WAL replay of epochs > watermark
//! ```
//!
//! * [`frame`] — CRC32-framed, length-prefixed record encoding shared by
//!   the WAL and the checkpoint image, with a borrowing frame walk that
//!   stops at a torn or corrupt tail. The CRC runs four independent
//!   lookup chains over buffers of 1 KiB and more and joins them by
//!   GF(2) shifts, so a checkpoint image checks at several times the
//!   speed of one chain with the same checksum.
//! * [`Dir`] — the narrow filesystem surface the store runs on, with a
//!   real [`OsDir`] and an in-memory [`SimDir`] that journals every I/O
//!   op so a kill-point harness can replay any prefix (plus a byte-level
//!   cut of the final write) and prove recovery from every crash point,
//!   and injects short writes and bit flips.
//! * [`DurableFleet`] — the write-ahead log + checkpoint lifecycle and
//!   the [`DurableFleet::recover`] path that rebuilds state from disk:
//!   the image's cells are decoded once into the memory's own vector
//!   and the WAL replays onto it in place, so a recovery holds the image
//!   twice (the file's bytes and the cells);
//!   [`DurableFleet::state_at`] rebuilds, into a buffer the caller
//!   reuses, the expected image the anti-entropy scrubber in
//!   `qram-serve` compares live replicas against, chunk by chunk, and
//!   [`DurableFleet::rescan`], the scrubber's disk audit, re-reads the
//!   WAL into buffers the store keeps.
//!
//! The module is std-only by design: framing, checksums, and the
//! directory abstraction are all hand-rolled so the store works in the
//! offline vendored build.
//!
//! # Examples
//!
//! ```
//! use qram_core::store::{CheckpointPolicy, DurableFleet, SimDir};
//! use qram_core::ReplicatedWrite;
//! use qsim::branch::ClassicalMemory;
//!
//! let base = ClassicalMemory::zeros(8);
//! let mut store = DurableFleet::create(Box::new(SimDir::new()), &base)?;
//! store.append(&ReplicatedWrite { epoch: 1, origin: 0, address: 3, value: 1 })?;
//!
//! let recovered = DurableFleet::recover(store.into_dir())?;
//! assert_eq!(recovered.epoch, 1);
//! assert_eq!(recovered.memory.read(3), 1);
//! # Ok::<(), qram_core::store::StoreError>(())
//! ```

pub mod checkpoint;
pub mod dir;
pub mod durable;
pub mod frame;
pub mod wal;

pub use checkpoint::{delta_file, Delta, CHECKPOINT_FILE, CHECKPOINT_TMP, DELTA_TMP};
pub use dir::{Dir, DirOp, OsDir, SimDir};
pub use durable::{CheckpointPolicy, DurableFleet, RecoveredState, SyncSummary};
pub use frame::{crc32, frames, FrameIter, TailDefect};
pub use wal::{GroupCommitPolicy, WalScan, WAL_FILE, WAL_TMP};

use std::fmt;
use std::io;

/// Errors surfaced by the durability tier.
///
/// Torn WAL tails are *not* errors — they are expected crash debris and
/// are silently truncated on open. Errors are reserved for conditions
/// recovery cannot repair locally: I/O failures and a checkpoint image
/// whose CRC no longer matches (detected corruption must never be
/// silently replayed as state).
#[derive(Debug)]
pub enum StoreError {
    /// An underlying filesystem operation failed.
    Io(io::Error),
    /// The installed checkpoint image or a chained delta failed its CRC
    /// or shape checks, or a replayed cell write (delta or WAL) does not
    /// fit the image.
    CorruptCheckpoint(&'static str),
    /// The store directory has a WAL but no checkpoint image to anchor
    /// it; [`DurableFleet::create`] was never run (or the image was
    /// removed out-of-band).
    MissingCheckpoint,
    /// A WAL record's epoch does not extend the durable prefix by
    /// exactly one.
    NonContiguousEpoch {
        /// The epoch the durable prefix requires next.
        expected: u64,
        /// The epoch actually presented.
        found: u64,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "store I/O error: {e}"),
            StoreError::CorruptCheckpoint(why) => {
                write!(f, "checkpoint image failed integrity checks: {why}")
            }
            StoreError::MissingCheckpoint => {
                write!(f, "store directory has no checkpoint image")
            }
            StoreError::NonContiguousEpoch { expected, found } => write!(
                f,
                "WAL epoch {found} does not extend the durable prefix (expected {expected})"
            ),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for StoreError {
    fn from(e: io::Error) -> Self {
        StoreError::Io(e)
    }
}
