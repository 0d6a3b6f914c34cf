//! Checkpoint images: a full memory snapshot plus its epoch watermark.
//!
//! A checkpoint bounds recovery time (replay starts from the watermark,
//! not epoch zero) and bounds WAL growth (compaction drops the absorbed
//! prefix). The image is one [`frame`]-wrapped payload:
//!
//! ```text
//!   magic "QCKP" · version u32 · epoch u64 · bus_width u32 · cells u64
//!   · cell words …                               (all little-endian)
//! ```
//!
//! Installation is crash-atomic: the image is written to
//! [`CHECKPOINT_TMP`], synced, and renamed onto [`CHECKPOINT_FILE`]. A
//! crash before the rename leaves the old checkpoint authoritative and
//! at worst some scratch debris; a bit-flipped installed image fails its
//! CRC on load and is reported as *detected* corruption, never silently
//! replayed as state.
//!
//! # Delta chains
//!
//! A full image costs the whole memory every interval. A *delta*
//! ([`Delta`]) records only the cells written since the previous
//! checkpoint, chained off the base image by epoch:
//!
//! ```text
//!   checkpoint.img ── delta.0001 ── delta.0002 ── … ── WAL tail
//!   (base, epoch B)   (base B,      (base E₁,
//!                      epoch E₁)     epoch E₂)
//! ```
//!
//! Each delta names the epoch of the state it extends (`base_epoch`);
//! [`load_chain`] applies deltas only while that linkage is contiguous,
//! so debris from a crashed fold — which removes deltas *descending*,
//! leaving only a contiguous stale prefix at `delta.0001…` — is detected
//! by the epoch mismatch and swept. Each delta installs with the same
//! tmp-sync-rename dance as the base image.

use qsim::branch::ClassicalMemory;

use super::dir::Dir;
use super::frame;
use super::StoreError;

/// The installed (authoritative) checkpoint image.
pub const CHECKPOINT_FILE: &str = "checkpoint.img";
/// The install scratch file; only ever observed after a crash.
pub const CHECKPOINT_TMP: &str = "checkpoint.tmp";
/// The delta install scratch file; only ever observed after a crash.
pub const DELTA_TMP: &str = "delta.tmp";

const MAGIC: &[u8; 4] = b"QCKP";
const VERSION: u32 = 1;
const HEADER: usize = 4 + 4 + 8 + 4 + 8;

const DELTA_MAGIC: &[u8; 4] = b"QDLT";
const DELTA_HEADER: usize = 4 + 4 + 8 + 8 + 8;

/// Name of the `index`-th delta in the chain (1-based: `delta.0001` is
/// the first delta off the base image).
#[must_use]
pub fn delta_file(index: usize) -> String {
    format!("delta.{index:04}")
}

/// One incremental checkpoint: the cells written between two epochs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Delta {
    /// Epoch of the state this delta extends (the previous link).
    pub base_epoch: u64,
    /// Epoch of the state after applying this delta.
    pub epoch: u64,
    /// `(address, value)` pairs, last write wins, ascending address.
    pub cells: Vec<(u64, u64)>,
}

/// Serializes `delta` as an unframed payload:
/// `magic "QDLT" · version u32 · base_epoch u64 · epoch u64 · count u64
/// · (address u64 · value u64) …` (all little-endian).
#[must_use]
pub fn encode_delta(delta: &Delta) -> Vec<u8> {
    let mut out = Vec::with_capacity(DELTA_HEADER + 16 * delta.cells.len());
    out.extend_from_slice(DELTA_MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    out.extend_from_slice(&delta.base_epoch.to_le_bytes());
    out.extend_from_slice(&delta.epoch.to_le_bytes());
    out.extend_from_slice(&(delta.cells.len() as u64).to_le_bytes());
    for &(address, value) in &delta.cells {
        out.extend_from_slice(&address.to_le_bytes());
        out.extend_from_slice(&value.to_le_bytes());
    }
    out
}

/// Parses an unframed delta payload.
///
/// # Errors
/// [`StoreError::CorruptCheckpoint`] on any shape violation.
pub fn decode_delta(payload: &[u8]) -> Result<Delta, StoreError> {
    if payload.len() < DELTA_HEADER {
        return Err(StoreError::CorruptCheckpoint("delta shorter than header"));
    }
    if &payload[..4] != DELTA_MAGIC {
        return Err(StoreError::CorruptCheckpoint("bad delta magic"));
    }
    let word32 = |at: usize| u32::from_le_bytes(payload[at..at + 4].try_into().expect("4B"));
    let word64 = |at: usize| u64::from_le_bytes(payload[at..at + 8].try_into().expect("8B"));
    if word32(4) != VERSION {
        return Err(StoreError::CorruptCheckpoint("unknown delta version"));
    }
    let base_epoch = word64(8);
    let epoch = word64(16);
    let Ok(count) = usize::try_from(word64(24)) else {
        return Err(StoreError::CorruptCheckpoint("delta count overflows"));
    };
    // Checked: a lying count must not wrap back onto the true length.
    let claimed_len = count
        .checked_mul(16)
        .and_then(|n| n.checked_add(DELTA_HEADER));
    if claimed_len != Some(payload.len()) {
        return Err(StoreError::CorruptCheckpoint("delta count vs length"));
    }
    if epoch <= base_epoch {
        return Err(StoreError::CorruptCheckpoint("delta epoch not after base"));
    }
    let cells = (0..count)
        .map(|i| {
            (
                word64(DELTA_HEADER + 16 * i),
                word64(DELTA_HEADER + 16 * i + 8),
            )
        })
        .collect();
    Ok(Delta {
        base_epoch,
        epoch,
        cells,
    })
}

/// Atomically installs `delta` as the `index`-th chain link: frame,
/// write to scratch, sync, rename, sync.
///
/// # Errors
/// [`StoreError::Io`] when the directory fails.
pub fn install_delta(dir: &mut dyn Dir, index: usize, delta: &Delta) -> Result<(), StoreError> {
    let framed = frame::encode_record(&encode_delta(delta));
    dir.replace(DELTA_TMP, &framed)?;
    dir.sync()?;
    dir.rename(DELTA_TMP, &delta_file(index))?;
    dir.sync()?;
    Ok(())
}

/// Loads the base image and replays every delta whose linkage is
/// contiguous. Returns `(memory, epoch, chain_len)`, or `None` when no
/// base image exists. Deltas that don't link (debris from a crashed
/// fold: a stale contiguous prefix at `delta.0001…`) are removed.
///
/// # Errors
/// [`StoreError::CorruptCheckpoint`] on a damaged image or delta;
/// [`StoreError::Io`] when the directory fails.
pub fn load_chain(dir: &mut dyn Dir) -> Result<Option<(ClassicalMemory, u64, usize)>, StoreError> {
    let Some((mut memory, mut epoch)) = load(dir)? else {
        return Ok(None);
    };
    let mut chain = 0usize;
    loop {
        let name = delta_file(chain + 1);
        let delta = match dir.read(&name) {
            Ok(bytes) => decode_delta(single_frame(
                &bytes,
                "delta is not exactly one intact frame",
            )?)?,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => break,
            Err(e) => return Err(e.into()),
        };
        if delta.base_epoch != epoch {
            // Stale prefix from a crashed fold: the new base superseded
            // these links. Sweep ascending until the first gap.
            let mut stale = chain + 1;
            while dir.exists(&delta_file(stale)) {
                dir.remove(&delta_file(stale))?;
                stale += 1;
            }
            break;
        }
        for &(address, value) in &delta.cells {
            replay_cell(&mut memory, address, value)?;
        }
        epoch = delta.epoch;
        chain += 1;
    }
    Ok(Some((memory, epoch, chain)))
}

/// Replays one decoded cell write — a delta cell or a WAL record — onto
/// `memory`. CRC-valid bytes can still name a cell the image lacks or
/// a value its bus cannot carry; those are corruption, not state.
///
/// # Errors
/// [`StoreError::CorruptCheckpoint`] when `address` is outside the image
/// or `value` is wider than the bus.
pub(crate) fn replay_cell(
    memory: &mut ClassicalMemory,
    address: u64,
    value: u64,
) -> Result<(), StoreError> {
    if address >= memory.capacity() as u64 {
        return Err(StoreError::CorruptCheckpoint(
            "replayed cell address outside the image",
        ));
    }
    if value >> memory.bus_width() != 0 {
        return Err(StoreError::CorruptCheckpoint(
            "replayed cell value wider than the bus",
        ));
    }
    memory.write(address, value);
    Ok(())
}

/// Removes a delta chain of length `len`, highest index first, so a
/// crash mid-removal leaves only a contiguous prefix at `delta.0001…`
/// that the next [`load_chain`] detects (epoch mismatch) and sweeps.
///
/// # Errors
/// [`StoreError::Io`] when the directory fails.
pub fn remove_chain(dir: &mut dyn Dir, len: usize) -> Result<(), StoreError> {
    for index in (1..=len).rev() {
        let name = delta_file(index);
        if dir.exists(&name) {
            dir.remove(&name)?;
        }
    }
    Ok(())
}

/// Serializes `memory` at `epoch` as an unframed checkpoint payload.
#[must_use]
pub fn encode(memory: &ClassicalMemory, epoch: u64) -> Vec<u8> {
    let cells = memory.cells();
    let mut out = Vec::with_capacity(HEADER + 8 * cells.len());
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    out.extend_from_slice(&epoch.to_le_bytes());
    out.extend_from_slice(&memory.bus_width().to_le_bytes());
    out.extend_from_slice(&(cells.len() as u64).to_le_bytes());
    for &c in cells {
        out.extend_from_slice(&c.to_le_bytes());
    }
    out
}

/// Parses an unframed checkpoint payload back into `(memory, epoch)`.
///
/// The cells are read straight into the vector the memory keeps, so the
/// image is allocated once, and [`ClassicalMemory::from_vec`] checks
/// them against the bus in one pass.
///
/// # Errors
/// [`StoreError::CorruptCheckpoint`] on any shape violation — wrong
/// magic, unknown version, or a cell count that disagrees with the
/// payload length or memory-geometry rules.
pub fn decode(payload: &[u8]) -> Result<(ClassicalMemory, u64), StoreError> {
    if payload.len() < HEADER {
        return Err(StoreError::CorruptCheckpoint("payload shorter than header"));
    }
    if &payload[..4] != MAGIC {
        return Err(StoreError::CorruptCheckpoint("bad magic"));
    }
    let word32 = |at: usize| u32::from_le_bytes(payload[at..at + 4].try_into().expect("4B"));
    let word64 = |at: usize| u64::from_le_bytes(payload[at..at + 8].try_into().expect("8B"));
    if word32(4) != VERSION {
        return Err(StoreError::CorruptCheckpoint("unknown version"));
    }
    let epoch = word64(8);
    let bus_width = word32(16);
    let cell_count = word64(20);
    let Ok(cell_count) = usize::try_from(cell_count) else {
        return Err(StoreError::CorruptCheckpoint("cell count overflows"));
    };
    let claimed_len = cell_count
        .checked_mul(8)
        .and_then(|n| n.checked_add(HEADER));
    if claimed_len != Some(payload.len()) {
        return Err(StoreError::CorruptCheckpoint(
            "cell count vs payload length",
        ));
    }
    let cells = payload[HEADER..]
        .chunks_exact(8)
        .map(|cell| u64::from_le_bytes(cell.try_into().expect("8-byte cell")))
        .collect();
    let memory = ClassicalMemory::from_vec(bus_width, cells)
        .map_err(|_| StoreError::CorruptCheckpoint("invalid memory geometry"))?;
    Ok((memory, epoch))
}

/// Atomically installs `memory` at `epoch` as the checkpoint: frame,
/// write to scratch, sync, rename, sync.
///
/// # Errors
/// [`StoreError::Io`] when the directory fails.
pub fn install(dir: &mut dyn Dir, memory: &ClassicalMemory, epoch: u64) -> Result<(), StoreError> {
    let framed = frame::encode_record(&encode(memory, epoch));
    dir.replace(CHECKPOINT_TMP, &framed)?;
    dir.sync()?;
    dir.rename(CHECKPOINT_TMP, CHECKPOINT_FILE)?;
    dir.sync()?;
    Ok(())
}

/// Loads the installed checkpoint, decoding it from the bytes
/// [`Dir::read`] returns: a directory that holds the file in memory lends
/// them, so the loaded cells are the only image-sized allocation.
/// `Ok(None)` when no image exists.
///
/// # Errors
/// [`StoreError::CorruptCheckpoint`] when the image exists but fails
/// framing (CRC), decoding, or holds trailing bytes; [`StoreError::Io`]
/// when the directory fails.
pub fn load(dir: &dyn Dir) -> Result<Option<(ClassicalMemory, u64)>, StoreError> {
    let bytes = match dir.read(CHECKPOINT_FILE) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e.into()),
    };
    let payload = single_frame(&bytes, "image is not exactly one intact frame")?;
    decode(payload).map(Some)
}

/// The payload of `bytes`, borrowed, when they hold exactly one intact
/// frame; otherwise [`StoreError::CorruptCheckpoint`] with `why`.
fn single_frame<'a>(bytes: &'a [u8], why: &'static str) -> Result<&'a [u8], StoreError> {
    let mut it = frame::frames(bytes);
    match (it.next(), it.next()) {
        (Some(payload), None) if it.valid_len() == bytes.len() => Ok(payload),
        _ => Err(StoreError::CorruptCheckpoint(why)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::dir::SimDir;

    fn memory() -> ClassicalMemory {
        let cells: Vec<u64> = (0..16).map(|i| i * 3 + 1).collect();
        ClassicalMemory::from_words(16, &cells).unwrap()
    }

    #[test]
    fn install_then_load_roundtrips() {
        let mut d = SimDir::new();
        assert!(load(&d).unwrap().is_none());
        install(&mut d, &memory(), 7).unwrap();
        assert!(!d.exists(CHECKPOINT_TMP), "scratch cleaned by rename");
        let (m, epoch) = load(&d).unwrap().unwrap();
        assert_eq!(epoch, 7);
        assert_eq!(m, memory());
    }

    #[test]
    fn reinstall_supersedes_the_old_image() {
        let mut d = SimDir::new();
        install(&mut d, &memory(), 1).unwrap();
        let mut newer = memory();
        newer.write(0, 999);
        install(&mut d, &newer, 9).unwrap();
        let (m, epoch) = load(&d).unwrap().unwrap();
        assert_eq!((m.read(0), epoch), (999, 9));
    }

    #[test]
    fn every_single_bit_flip_in_the_image_is_detected() {
        let mut d = SimDir::new();
        install(&mut d, &memory(), 3).unwrap();
        let len = d.len_of(CHECKPOINT_FILE).unwrap();
        for offset in 0..len {
            let mut dirty = d.clone();
            dirty.flip_bit(CHECKPOINT_FILE, offset, offset as u32 % 8);
            assert!(
                matches!(load(&dirty), Err(StoreError::CorruptCheckpoint(_))),
                "flip at byte {offset} slipped through"
            );
        }
    }

    #[test]
    fn a_bit_flip_in_any_crc_lane_of_a_large_image_is_detected() {
        let cells: Vec<u64> = (0..4096).map(|i| i % 2).collect();
        let mut d = SimDir::new();
        install(&mut d, &ClassicalMemory::from_vec(1, cells).unwrap(), 3).unwrap();
        let payload = d.len_of(CHECKPOINT_FILE).unwrap() - frame::HEADER_LEN;
        assert!(payload >= frame::LANE_THRESHOLD.max(32 << 10));
        // The CRC splits the payload's whole 32-byte blocks into four
        // equal lanes; the rest is the one-lane tail. Each flip toggles a
        // 1-bit cell, so the image still decodes and only the CRC can
        // refuse it: one cell mid-lane in each lane, and the last cell.
        let lane = payload / 32 * 8;
        let cell_holding = |byte: usize| HEADER + (byte - HEADER) / 8 * 8;
        assert!(
            cell_holding(payload - 1) >= 4 * lane,
            "the tail holds a cell"
        );
        let offsets = (0..4)
            .map(|i| cell_holding(i * lane + lane / 2))
            .chain([cell_holding(payload - 1)]);
        for at in offsets {
            let mut dirty = d.clone();
            dirty.flip_bit(CHECKPOINT_FILE, frame::HEADER_LEN + at, 0);
            assert!(
                matches!(load(&dirty), Err(StoreError::CorruptCheckpoint(_))),
                "flip at payload byte {at} slipped through"
            );
        }
    }

    #[test]
    fn an_image_or_delta_that_is_not_exactly_one_frame_is_refused() {
        let delta = Delta {
            base_epoch: 3,
            epoch: 4,
            cells: vec![(0, 9)],
        };
        // A second intact frame, a torn one, or nothing at all.
        let tails: [&[u8]; 3] = [&frame::encode_record(b"more"), &[1, 2, 3], &[]];
        for tail in tails {
            for file in [CHECKPOINT_FILE.to_owned(), delta_file(1)] {
                let mut d = SimDir::new();
                install(&mut d, &memory(), 3).unwrap();
                install_delta(&mut d, 1, &delta).unwrap();
                if tail.is_empty() {
                    d.replace(&file, &[]).unwrap();
                } else {
                    d.append(&file, tail).unwrap();
                }
                assert!(
                    matches!(load_chain(&mut d), Err(StoreError::CorruptCheckpoint(_))),
                    "{file} with tail {tail:?}"
                );
            }
        }
    }

    #[test]
    fn decode_rejects_every_header_lie() {
        let good = encode(&memory(), 5);
        assert!(decode(&good).is_ok());
        let mut bad_magic = good.clone();
        bad_magic[0] = b'X';
        assert!(decode(&bad_magic).is_err());
        let mut bad_version = good.clone();
        bad_version[4] = 99;
        assert!(decode(&bad_version).is_err());
        let mut bad_count = good.clone();
        bad_count[20] ^= 1;
        assert!(decode(&bad_count).is_err());
        assert!(decode(&good[..10]).is_err());
    }

    #[test]
    fn delta_encode_decode_roundtrips() {
        let delta = Delta {
            base_epoch: 7,
            epoch: 11,
            cells: vec![(0, 42), (3, 9), (15, u64::MAX)],
        };
        assert_eq!(decode_delta(&encode_delta(&delta)).unwrap(), delta);
    }

    #[test]
    fn decode_delta_rejects_every_header_lie() {
        let good = encode_delta(&Delta {
            base_epoch: 1,
            epoch: 2,
            cells: vec![(0, 5)],
        });
        assert!(decode_delta(&good).is_ok());
        let mut bad_magic = good.clone();
        bad_magic[0] = b'X';
        assert!(decode_delta(&bad_magic).is_err());
        let mut bad_version = good.clone();
        bad_version[4] = 99;
        assert!(decode_delta(&bad_version).is_err());
        let mut bad_count = good.clone();
        bad_count[24] ^= 1;
        assert!(decode_delta(&bad_count).is_err());
        assert!(decode_delta(&good[..10]).is_err());
        // An epoch that fails to advance past its base is nonsense.
        let stuck = encode_delta(&Delta {
            base_epoch: 2,
            epoch: 2,
            cells: Vec::new(),
        });
        assert!(decode_delta(&stuck).is_err());
    }

    #[test]
    fn a_delta_chain_replays_onto_the_base_image() {
        let mut d = SimDir::new();
        install(&mut d, &memory(), 4).unwrap();
        install_delta(
            &mut d,
            1,
            &Delta {
                base_epoch: 4,
                epoch: 6,
                cells: vec![(0, 100), (2, 200)],
            },
        )
        .unwrap();
        install_delta(
            &mut d,
            2,
            &Delta {
                base_epoch: 6,
                epoch: 7,
                cells: vec![(0, 111)],
            },
        )
        .unwrap();
        assert!(!d.exists(DELTA_TMP), "scratch cleaned by rename");
        let (m, epoch, chain) = load_chain(&mut d).unwrap().unwrap();
        assert_eq!((epoch, chain), (7, 2));
        assert_eq!(m.read(0), 111, "later delta wins");
        assert_eq!(m.read(2), 200);
        assert_eq!(m.read(1), memory().read(1), "untouched cells survive");
    }

    #[test]
    fn a_bit_flipped_delta_is_detected_not_replayed() {
        let mut d = SimDir::new();
        install(&mut d, &memory(), 1).unwrap();
        install_delta(
            &mut d,
            1,
            &Delta {
                base_epoch: 1,
                epoch: 2,
                cells: vec![(0, 9)],
            },
        )
        .unwrap();
        let len = d.len_of(&delta_file(1)).unwrap();
        for offset in 0..len {
            let mut dirty = d.clone();
            dirty.flip_bit(&delta_file(1), offset, offset as u32 % 8);
            assert!(
                matches!(
                    load_chain(&mut dirty),
                    Err(StoreError::CorruptCheckpoint(_))
                ),
                "flip at byte {offset} slipped through"
            );
        }
    }

    #[test]
    fn a_stale_chain_prefix_is_swept_not_replayed() {
        // A fold crashed after installing the new base but before
        // removing delta.0001: its base_epoch no longer matches.
        let mut d = SimDir::new();
        install_delta(
            &mut d,
            1,
            &Delta {
                base_epoch: 3,
                epoch: 5,
                cells: vec![(0, 666)],
            },
        )
        .unwrap();
        install(&mut d, &memory(), 5).unwrap();
        let (m, epoch, chain) = load_chain(&mut d).unwrap().unwrap();
        assert_eq!((epoch, chain), (5, 0));
        assert_eq!(m, memory(), "stale delta must not apply");
        assert!(!d.exists(&delta_file(1)), "stale delta swept");
    }

    #[test]
    fn remove_chain_deletes_highest_index_first() {
        let mut d = SimDir::new();
        install(&mut d, &memory(), 1).unwrap();
        for (i, epochs) in [(1usize, (1u64, 2u64)), (2, (2, 3)), (3, (3, 4))] {
            install_delta(
                &mut d,
                i,
                &Delta {
                    base_epoch: epochs.0,
                    epoch: epochs.1,
                    cells: Vec::new(),
                },
            )
            .unwrap();
        }
        let before = d.journal().len();
        remove_chain(&mut d, 3).unwrap();
        for i in 1..=3 {
            assert!(!d.exists(&delta_file(i)));
        }
        // Descending removal: any crash prefix leaves delta.0001… as a
        // contiguous run, never a gap hiding orphans.
        let removed: Vec<String> = d.journal()[before..]
            .iter()
            .filter_map(|op| match op {
                crate::store::dir::DirOp::Remove { name } => Some(name.clone()),
                _ => None,
            })
            .collect();
        assert_eq!(removed, vec![delta_file(3), delta_file(2), delta_file(1)]);
    }
}
