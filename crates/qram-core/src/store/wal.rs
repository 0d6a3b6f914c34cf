//! The write-ahead log: one framed record per fleet epoch, appended in
//! commit groups.
//!
//! Each [`ReplicatedWrite`] serializes to a fixed 32-byte payload —
//! four little-endian `u64`s `(epoch, origin, address, value)`, the
//! compact `#[repr(C)]`-style flat record shape of binary trace formats
//! — wrapped in the [`frame`] header. The log is pure
//! appends; compaction after a checkpoint rewrites the surviving suffix
//! through a temp file + atomic rename so a crash mid-compaction leaves
//! either the old log or the new one, never a hybrid.
//!
//! **Group commit.** The expensive part of an append is the sync, not
//! the bytes. [`GroupCommitPolicy`] batches records into a commit group
//! that [`append_group`] lands as *one* byte-stream append and *one*
//! durability barrier — the acknowledgment point for every record in
//! the group. A crash between buffering and the group sync loses only
//! those unacknowledged records, exactly as a single torn append does;
//! at `max_records = 1` every record lands as its own append and sync.
//!
//! [`load`] enforces the log's one structural invariant beyond framing:
//! epochs must be *contiguous* (each record extends its predecessor by
//! exactly one). A record that breaks contiguity marks the start of
//! debris — everything from it onward is truncated, exactly like a CRC
//! defect. The scan streams the file through one reused window
//! ([`Dir::read_at`]) and borrows each record from it, so recovery of a
//! long log allocates no per-record buffers and never materializes the
//! file; it keeps only the records past the caller's checkpoint epoch.
//! The window and the kept records live in a caller-owned [`WalScan`],
//! so a store that keeps one between its disk audits re-scans without
//! allocating.

use super::dir::Dir;
use super::frame::{self, TailDefect};
use super::StoreError;
use crate::replication::ReplicatedWrite;

/// The live log file name inside a store directory.
pub const WAL_FILE: &str = "wal.log";
/// The compaction scratch file; only ever observed after a crash.
pub const WAL_TMP: &str = "wal.tmp";

/// Serialized payload size of one WAL record.
pub const RECORD_PAYLOAD_LEN: usize = 32;

/// How WAL appends batch into commit groups.
///
/// A group is flushed — one appended frame run + one sync, the
/// acknowledgment point for every record in it — when it reaches
/// `max_records`, or when the serving reactor's flush deadline
/// (`max_delay` of virtual time after the group opened) fires first.
/// The store itself has no clock, so `max_delay` is advisory plumbing
/// for the reactor; `0.0` means "no deadline".
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GroupCommitPolicy {
    /// Records per commit group; `1` lands every record as its own
    /// append and sync.
    pub max_records: usize,
    /// Virtual-time bound on how long a non-empty group may wait for
    /// more records before the reactor flushes it anyway. `0.0`
    /// disables the deadline.
    pub max_delay: f64,
}

impl GroupCommitPolicy {
    /// One record per group: sync-per-append, the ungrouped baseline.
    #[must_use]
    pub fn per_record() -> Self {
        GroupCommitPolicy {
            max_records: 1,
            max_delay: 0.0,
        }
    }

    /// Groups of up to `max_records`, flushed after at most `max_delay`
    /// virtual layers by the serving reactor.
    ///
    /// # Panics
    /// Panics when `max_records` is zero or `max_delay` is negative.
    #[must_use]
    pub fn group(max_records: usize, max_delay: f64) -> Self {
        assert!(max_records >= 1, "a commit group holds at least 1 record");
        assert!(max_delay >= 0.0, "the flush deadline cannot be negative");
        GroupCommitPolicy {
            max_records,
            max_delay,
        }
    }
}

impl Default for GroupCommitPolicy {
    fn default() -> Self {
        GroupCommitPolicy::per_record()
    }
}

/// Serializes one write as the fixed 32-byte WAL payload.
#[must_use]
pub fn encode_write(w: &ReplicatedWrite) -> [u8; RECORD_PAYLOAD_LEN] {
    let mut out = [0u8; RECORD_PAYLOAD_LEN];
    out[..8].copy_from_slice(&w.epoch.to_le_bytes());
    out[8..16].copy_from_slice(&(w.origin as u64).to_le_bytes());
    out[16..24].copy_from_slice(&w.address.to_le_bytes());
    out[24..].copy_from_slice(&w.value.to_le_bytes());
    out
}

/// Deserializes a WAL payload; `None` when the length or origin field
/// is malformed (treated as a tail defect by [`load`]).
#[must_use]
pub fn decode_write(payload: &[u8]) -> Option<ReplicatedWrite> {
    if payload.len() != RECORD_PAYLOAD_LEN {
        return None;
    }
    let word = |i: usize| u64::from_le_bytes(payload[8 * i..8 * (i + 1)].try_into().expect("8B"));
    let origin = usize::try_from(word(1)).ok()?;
    Some(ReplicatedWrite {
        epoch: word(0),
        origin,
        address: word(2),
        value: word(3),
    })
}

/// Outcome of scanning (and repairing) the on-disk log, and the buffers
/// [`load`] fills: a caller that keeps one `WalScan` across scans reuses
/// its read window and its writes vector, so re-scanning a log no longer
/// than one it scanned before allocates nothing.
#[derive(Debug, Clone, Default)]
pub struct WalScan {
    /// The intact, contiguous writes past the epoch [`load`] was given,
    /// in epoch order.
    pub writes: Vec<ReplicatedWrite>,
    /// Bytes of torn/corrupt tail truncated away, 0 for a clean log.
    pub truncated_bytes: usize,
    /// The defect that ended the scan, `None` for a clean log.
    pub defect: Option<TailDefect>,
    /// The streaming read window, kept for the next scan.
    window: Vec<u8>,
}

/// Initial window of the streaming scan. It grows (doubling) only when
/// a single frame outsizes it — never for WAL records, which are 40
/// bytes framed.
const SCAN_WINDOW: usize = 8 << 10;

/// Scans `WAL_FILE` into `scan`, truncating any torn or corrupt tail in
/// place so the log is left scannable, and keeps the writes with epochs
/// above `after` — a checkpoint absorbed the rest. Contiguity is checked
/// over every record, kept or not. A missing file is an empty log.
///
/// The scan is streaming: the file is pulled through one window via
/// [`Dir::read_at`] and each record is decoded from a borrowed slice of
/// it ([`frame::frames`]), so a multi-megabyte log costs one
/// window-sized buffer, not a whole-file materialization. The window
/// and `scan.writes` are `scan`'s own buffers, overwritten and reused.
///
/// # Errors
/// [`StoreError::Io`] when the directory fails; `scan` then holds a
/// partial result.
pub fn load(dir: &mut dyn Dir, after: u64, scan: &mut WalScan) -> Result<(), StoreError> {
    let WalScan {
        writes,
        truncated_bytes,
        defect,
        window: buf,
    } = scan;
    writes.clear();
    *truncated_bytes = 0;
    *defect = None;
    let total = match dir.size(WAL_FILE) {
        Ok(n) => n,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(()),
        Err(e) => return Err(e.into()),
    };
    if buf.len() < SCAN_WINDOW {
        buf.resize(SCAN_WINDOW, 0);
    }
    // The epoch of the last accepted record, kept or not.
    let mut last: Option<u64> = None;
    // File offset of `buf[0]`, valid bytes in the window, and the
    // window offset just past the last intact record.
    let mut start = 0u64;
    let mut in_buf = 0usize;
    let mut good;
    *defect = loop {
        while in_buf < buf.len() {
            let n = dir.read_at(WAL_FILE, start + in_buf as u64, &mut buf[in_buf..])?;
            if n == 0 {
                break;
            }
            in_buf += n;
        }
        let exhausted = in_buf < buf.len() || start + in_buf as u64 >= total;
        let mut it = frame::frames(&buf[..in_buf]);
        good = 0;
        let mut debris = false;
        // Not a `for` loop: `valid_len` is read between iterations, and
        // the iterator only counts *yielded* frames — a frame that
        // decodes wrong must stay out of the accepted prefix.
        #[allow(clippy::while_let_on_iterator)]
        while let Some(payload) = it.next() {
            let parsed = decode_write(payload);
            let contiguous = parsed
                .is_some_and(|w| last.is_none_or(|prev: u64| prev.checked_add(1) == Some(w.epoch)));
            match parsed {
                Some(w) if contiguous => {
                    last = Some(w.epoch);
                    if w.epoch > after {
                        writes.push(w);
                    }
                    good = it.valid_len();
                }
                // A record that decodes wrong or skips an epoch is the
                // start of debris: cut here, like any other defect.
                _ => {
                    debris = true;
                    break;
                }
            }
        }
        if debris {
            break Some(TailDefect::BadCrc);
        }
        match it.defect() {
            None if exhausted => break None,
            None => {}
            Some(_) if it.incomplete() && !exhausted => {}
            Some(d) => break Some(d),
        }
        // Shift the unconsumed tail to the window front and read on.
        buf.copy_within(good..in_buf, 0);
        start += good as u64;
        in_buf -= good;
        if in_buf == buf.len() {
            // One frame outsizes the window (bounded by the header's
            // MAX_PAYLOAD_LEN check): grow and retry.
            buf.resize(buf.len() * 2, 0);
        }
    };
    let valid = start + good as u64;
    *truncated_bytes = usize::try_from(total.saturating_sub(valid)).expect("tail fits usize");
    if *truncated_bytes > 0 {
        dir.truncate(WAL_FILE, valid)?;
        dir.sync()?;
    }
    Ok(())
}

/// Frames one write onto `out` without allocating — the group-buffer
/// encoder ([`append_group`] lands the accumulated frames in one call).
pub fn encode_frame_into(out: &mut Vec<u8>, w: &ReplicatedWrite) {
    frame::encode_record_into(out, &encode_write(w));
}

/// Appends one pre-framed commit group and syncs: one byte-stream
/// append + one durability barrier for the whole group. When this
/// returns, every record in the group is acknowledged. An empty group
/// touches the directory not at all — the `max_records = 1`
/// bit-compatibility guarantee leans on that.
///
/// # Errors
/// [`StoreError::Io`] when the directory fails.
pub fn append_group(dir: &mut dyn Dir, frames: &[u8]) -> Result<(), StoreError> {
    if frames.is_empty() {
        return Ok(());
    }
    dir.append(WAL_FILE, frames)?;
    dir.sync()?;
    Ok(())
}

/// Rewrites the log to exactly `suffix` (the writes a fresh checkpoint
/// did not absorb), via temp file + atomic rename.
///
/// One sync, between the replace and the rename: it orders the temp
/// file's *bytes* before the rename makes them live, so a real
/// filesystem can never expose a renamed-but-torn log. No sync follows
/// the rename — if the rename itself is lost to a crash, the old log
/// is authoritative again, and every record the new log kept is also in
/// the old one (compaction only drops entries the just-installed
/// checkpoint absorbed, and the checkpoint install ends with its own
/// barrier). The kill-point sweep covers both orders.
///
/// # Errors
/// [`StoreError::Io`] when the directory fails.
pub fn compact(dir: &mut dyn Dir, suffix: &[ReplicatedWrite]) -> Result<(), StoreError> {
    let mut bytes = Vec::with_capacity(suffix.len() * (frame::HEADER_LEN + RECORD_PAYLOAD_LEN));
    for w in suffix {
        frame::encode_record_into(&mut bytes, &encode_write(w));
    }
    dir.replace(WAL_TMP, &bytes)?;
    dir.sync()?;
    dir.rename(WAL_TMP, WAL_FILE)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::dir::SimDir;

    fn w(epoch: u64) -> ReplicatedWrite {
        ReplicatedWrite {
            epoch,
            origin: (epoch % 3) as usize,
            address: epoch % 16,
            value: epoch * 7,
        }
    }

    /// One scan of `d` into fresh buffers.
    fn scanned(d: &mut SimDir, after: u64) -> WalScan {
        let mut scan = WalScan::default();
        load(d, after, &mut scan).unwrap();
        scan
    }

    /// Lands `write` as a one-record commit group.
    fn append(d: &mut SimDir, write: &ReplicatedWrite) {
        let mut frames = Vec::new();
        encode_frame_into(&mut frames, write);
        append_group(d, &frames).unwrap();
    }

    #[test]
    fn encode_decode_roundtrip() {
        let write = w(42);
        assert_eq!(decode_write(&encode_write(&write)), Some(write));
        assert_eq!(decode_write(b"short"), None);
    }

    #[test]
    fn append_then_load_roundtrips_and_missing_log_is_empty() {
        let mut d = SimDir::new();
        assert_eq!(scanned(&mut d, 0).writes, Vec::new());
        for e in 1..=5 {
            append(&mut d, &w(e));
        }
        let scan = scanned(&mut d, 0);
        assert_eq!(scan.writes, (1..=5).map(w).collect::<Vec<_>>());
        assert_eq!(scan.truncated_bytes, 0);
        assert_eq!(scan.defect, None);
    }

    #[test]
    fn torn_tail_is_truncated_in_place() {
        let mut d = SimDir::new();
        append(&mut d, &w(1));
        append(&mut d, &w(2));
        let full = d.len_of(WAL_FILE).unwrap();
        // Tear the third append mid-record.
        d.tear_next_write(frame::HEADER_LEN + 5);
        append(&mut d, &w(3));
        let scan = scanned(&mut d, 0);
        assert_eq!(scan.writes, vec![w(1), w(2)]);
        assert_eq!(scan.truncated_bytes, frame::HEADER_LEN + 5);
        assert!(scan.defect.is_some());
        // The truncation repaired the file: a second load is clean.
        assert_eq!(d.len_of(WAL_FILE).unwrap(), full);
        let again = scanned(&mut d, 0);
        assert_eq!(again.truncated_bytes, 0);
        assert_eq!(again.defect, None);
    }

    #[test]
    fn non_contiguous_epoch_cuts_the_log_there() {
        let mut d = SimDir::new();
        append(&mut d, &w(1));
        append(&mut d, &w(3)); // skips epoch 2: debris
        append(&mut d, &w(4));
        let scan = scanned(&mut d, 0);
        assert_eq!(scan.writes, vec![w(1)]);
        assert!(scan.truncated_bytes > 0);
        assert_eq!(
            scanned(&mut d, 0).writes,
            vec![w(1)],
            "truncation left a clean contiguous log"
        );
    }

    #[test]
    fn load_keeps_the_records_past_the_given_epoch_and_checks_them_all() {
        let mut d = SimDir::new();
        for e in 1..=5 {
            append(&mut d, &w(e));
        }
        let scan = scanned(&mut d, 3);
        assert_eq!(scan.writes, vec![w(4), w(5)]);
        assert_eq!(scan.truncated_bytes, 0);
        assert_eq!(scanned(&mut d, 5).writes, Vec::new());
        // A gap below the kept range is still debris.
        let mut d = SimDir::new();
        append(&mut d, &w(1));
        append(&mut d, &w(3));
        let scan = scanned(&mut d, 5);
        assert_eq!(scan.writes, Vec::new());
        assert_eq!(scan.truncated_bytes, frame::HEADER_LEN + RECORD_PAYLOAD_LEN);
    }

    #[test]
    fn a_kept_scan_reuses_its_buffers_and_reports_only_the_last_log() {
        let mut d = SimDir::new();
        for e in 1..=5 {
            append(&mut d, &w(e));
        }
        let mut kept = WalScan::default();
        load(&mut d, 0, &mut kept).unwrap();
        let (writes, window) = (kept.writes.as_ptr(), kept.window.as_ptr());
        // A torn sixth record: the re-scan reports exactly this log.
        d.tear_next_write(frame::HEADER_LEN + 5);
        append(&mut d, &w(6));
        load(&mut d, 2, &mut kept).unwrap();
        assert_eq!(kept.writes, vec![w(3), w(4), w(5)]);
        assert_eq!(kept.truncated_bytes, frame::HEADER_LEN + 5);
        assert!(kept.defect.is_some());
        assert_eq!(kept.writes.as_ptr(), writes, "the writes vector is reused");
        assert_eq!(kept.window.as_ptr(), window, "the window is reused");
        // A clean re-scan clears the last tail report.
        load(&mut d, 0, &mut kept).unwrap();
        assert_eq!(
            (kept.writes.len(), kept.truncated_bytes, kept.defect),
            (5, 0, None)
        );
    }

    #[test]
    fn compact_keeps_exactly_the_suffix() {
        let mut d = SimDir::new();
        for e in 1..=6 {
            append(&mut d, &w(e));
        }
        compact(&mut d, &[w(5), w(6)]).unwrap();
        assert!(!d.exists(WAL_TMP));
        let scan = scanned(&mut d, 0);
        assert_eq!(scan.writes, vec![w(5), w(6)]);
        compact(&mut d, &[]).unwrap();
        assert_eq!(scanned(&mut d, 0).writes, Vec::new());
    }

    #[test]
    fn compact_syncs_once_between_replace_and_rename() {
        use crate::store::dir::DirOp;
        let mut d = SimDir::new();
        append(&mut d, &w(1));
        let at = d.journal().len();
        compact(&mut d, &[w(1)]).unwrap();
        let ops: Vec<&DirOp> = d.journal()[at..].iter().collect();
        assert!(
            matches!(
                ops[..],
                [DirOp::Replace { .. }, DirOp::Sync, DirOp::Rename { .. }]
            ),
            "exactly one barrier, ordering bytes before the rename: {ops:?}"
        );
    }

    #[test]
    fn a_commit_group_lands_as_one_append_and_one_sync() {
        use crate::store::dir::DirOp;
        let mut d = SimDir::new();
        let mut frames = Vec::new();
        for e in 1..=3 {
            encode_frame_into(&mut frames, &w(e));
        }
        append_group(&mut d, &frames).unwrap();
        assert!(
            matches!(
                d.journal(),
                [DirOp::Append { name, bytes }, DirOp::Sync]
                    if name == WAL_FILE
                        && bytes.len() == 3 * (frame::HEADER_LEN + RECORD_PAYLOAD_LEN)
            ),
            "got {:?}",
            d.journal()
        );
        assert_eq!(
            scanned(&mut d, 0).writes,
            (1..=3).map(w).collect::<Vec<_>>()
        );
        let before = d.journal().len();
        append_group(&mut d, &[]).unwrap();
        assert_eq!(
            d.journal().len(),
            before,
            "an empty group must not touch the directory"
        );
    }

    #[test]
    fn a_group_torn_mid_flush_keeps_its_completed_prefix() {
        let mut d = SimDir::new();
        let mut frames = Vec::new();
        for e in 1..=4 {
            encode_frame_into(&mut frames, &w(e));
        }
        // The tear lands inside record 3: records 1-2 survive whole.
        d.tear_next_write(2 * (frame::HEADER_LEN + RECORD_PAYLOAD_LEN) + 11);
        append_group(&mut d, &frames).unwrap();
        let scan = scanned(&mut d, 0);
        assert_eq!(scan.writes, vec![w(1), w(2)]);
        assert_eq!(scan.truncated_bytes, 11);
        assert!(scan.defect.is_some());
    }

    #[test]
    fn streaming_scan_crosses_window_boundaries() {
        // Enough records that the log spans several scan windows, with
        // frame boundaries landing at every alignment relative to the
        // window edge.
        let mut d = SimDir::new();
        let mut frames = Vec::new();
        let count = (3 * SCAN_WINDOW) / (frame::HEADER_LEN + RECORD_PAYLOAD_LEN) + 7;
        for e in 1..=count as u64 {
            encode_frame_into(&mut frames, &w(e));
        }
        append_group(&mut d, &frames).unwrap();
        let scan = scanned(&mut d, 0);
        assert_eq!(scan.writes.len(), count);
        assert_eq!(scan.writes.last(), Some(&w(count as u64)));
        assert_eq!(scan.truncated_bytes, 0);
        // A tear far past the first window is still found and repaired.
        d.tear_next_write(frame::HEADER_LEN + 3);
        append(&mut d, &w(count as u64 + 1));
        let scan = scanned(&mut d, 0);
        assert_eq!(scan.writes.len(), count);
        assert_eq!(scan.truncated_bytes, frame::HEADER_LEN + 3);
    }

    #[test]
    fn streaming_scan_grows_past_an_oversized_frame() {
        // A single frame larger than the initial window must not wedge
        // the scan: the window doubles until the frame fits. The WAL
        // never writes such frames, but the scanner is shared plumbing.
        let mut d = SimDir::new();
        let big = vec![0xA5u8; 2 * SCAN_WINDOW];
        d.append(WAL_FILE, &frame::encode_record(&big)).unwrap();
        let scan = scanned(&mut d, 0);
        // The record decodes as a frame but not as a WAL write: debris.
        assert_eq!(scan.writes, Vec::new());
        assert_eq!(scan.defect, Some(TailDefect::BadCrc));
        assert_eq!(scan.truncated_bytes, frame::HEADER_LEN + 2 * SCAN_WINDOW);
    }
}
