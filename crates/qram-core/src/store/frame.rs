//! CRC32-framed, length-prefixed on-disk records.
//!
//! Every durable byte the store writes — WAL entries and the checkpoint
//! image alike — travels inside one frame shape:
//!
//! ```text
//!   ┌─────────────┬─────────────┬──────────────────┐
//!   │ len: u32 LE │ crc: u32 LE │ payload: len B   │
//!   └─────────────┴─────────────┴──────────────────┘
//! ```
//!
//! `crc` covers the payload only; `len` is bounded by
//! [`MAX_PAYLOAD_LEN`] so a corrupt length prefix cannot send the
//! scanner chasing gigabytes of garbage. [`frames`] walks a byte buffer
//! frame by frame, borrowing each payload, and stops at the first
//! defect, reporting the length of the valid prefix — the contract that
//! lets a torn or bit-flipped tail be *detected and truncated* instead
//! of silently replayed.
//!
//! # Four-lane CRC-32
//!
//! One slicing-by-8 step cannot start before the previous step's CRC is
//! known, so a single pass over a checkpoint image runs at the latency
//! of one chain of table lookups, not at the bandwidth of the loads.
//! From 1 KiB up (`LANE_THRESHOLD`), [`crc32`] splits the buffer into
//! four equal lanes of whole 8-byte words and steps all four in one
//! loop, keeping four independent lookup chains in flight. The lanes
//! are then joined with the `crc32_combine` identity of zlib: the CRC
//! register after lane `a` followed by lane `b` is the register after
//! `a` times `x^(8·|b|) mod P` over GF(2), xor the register of `b`
//! alone. The shift comes from a compile-time table of `x^(2^k) mod P`,
//! so it costs one GF(2) product per set bit of the lane length. The
//! bytes past the last whole lane word run on the one-lane loop. The
//! checksum is bit for bit the one-lane CRC; only the order of the work
//! changes.

/// Upper bound on a single frame's payload, in bytes. WAL records are
/// 32 bytes; checkpoint images are bounded by memory capacity. 64 MiB
/// leaves generous headroom while still rejecting corrupt lengths.
pub const MAX_PAYLOAD_LEN: usize = 64 << 20;

/// Bytes of framing overhead per record (`len` + `crc`).
pub const HEADER_LEN: usize = 8;

/// The reflected CRC-32 polynomial of IEEE 802.3.
const POLY: u32 = 0xEDB8_8320;

/// Slicing-by-8 lookup tables, built at compile time. `CRC_TABLES[0]`
/// is the classic byte-at-a-time table; `CRC_TABLES[k][b]` is the CRC
/// register after byte `b` is followed by `k` zero bytes, so eight
/// independent lookups fold eight input bytes at once.
static CRC_TABLES: [[u32; 256]; 8] = crc_tables();

const fn crc_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut b = 0;
    while b < 256 {
        let mut c = b as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 == 1 { POLY ^ (c >> 1) } else { c >> 1 };
            bit += 1;
        }
        tables[0][b] = c;
        b += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut b = 0;
        while b < 256 {
            let prev = tables[k - 1][b];
            tables[k][b] = (prev >> 8) ^ tables[0][(prev & 0xff) as usize];
            b += 1;
        }
        k += 1;
    }
    tables
}

/// `X2N[k]` is `x^(2^k) mod P` in the reflected representation (bit 31
/// holds the coefficient of `x^0`): the squares [`shift_by_bytes`]
/// multiplies together.
static X2N: [u32; 64] = x2n_table();

const fn x2n_table() -> [u32; 64] {
    let mut table = [0u32; 64];
    table[0] = 1 << 30; // x^1
    let mut k = 1;
    while k < 64 {
        table[k] = mul_mod_p(table[k - 1], table[k - 1]);
        k += 1;
    }
    table
}

/// `a · b mod P` over GF(2), both in the reflected representation.
/// Branch-free: 32 conditional xors of `b · x^i`.
const fn mul_mod_p(a: u32, mut b: u32) -> u32 {
    let mut product = 0;
    let mut i = 0;
    while i < 32 {
        product ^= b & 0u32.wrapping_sub((a >> (31 - i)) & 1);
        b = (b >> 1) ^ (POLY & 0u32.wrapping_sub(b & 1));
        i += 1;
    }
    product
}

/// `x^(8·bytes) mod P`: what the CRC register is multiplied by when
/// `bytes` more bytes follow it.
fn shift_by_bytes(bytes: usize) -> u32 {
    let mut shift = 1 << 31; // x^0
    let mut n = bytes;
    // 8·bytes = bytes · 2^3, so bit i of `bytes` selects x^(2^(i+3)).
    // The table entry is the operand `mul_mod_p` shifts 32 times, so
    // those chains do not wait on the previous product.
    let mut k = 3;
    while n != 0 {
        if n & 1 == 1 {
            shift = mul_mod_p(shift, X2N[k]);
        }
        n >>= 1;
        k += 1;
    }
    shift
}

/// Buffers at least this long run on four lanes. Below it the join's
/// GF(2) products cost more than the overlapped lookups save: on a
/// shared two-core x86-64 host one lane won at 511 bytes (0.35 against
/// 0.41 µs) and four lanes at 1023 bytes, whose lane length has five set
/// bits (0.58 against 0.77 µs). WAL records (32-byte payloads) and small
/// checkpoint images run on one lane.
pub(crate) const LANE_THRESHOLD: usize = 1 << 10;

/// Independent lookup chains of the four-lane loop.
const LANES: usize = 4;

/// CRC-32 (IEEE 802.3, reflected, polynomial `0xEDB8_8320`) of `bytes`.
///
/// Hand-rolled slicing-by-8 over compile-time tables so the store stays
/// std-only: eight bytes per step, the byte-at-a-time table for the
/// tail. From 1 KiB up, the buffer's whole words run as four
/// interleaved lanes joined by GF(2) shifts (see the [module
/// docs](self)); the checksum is the same.
#[must_use]
pub fn crc32(bytes: &[u8]) -> u32 {
    if bytes.len() < LANE_THRESHOLD {
        return !one_lane(!0, bytes);
    }
    let (lanes, tail) = bytes.split_at(bytes.len() / (LANES * 8) * (LANES * 8));
    !one_lane(four_lanes(!0, lanes), tail)
}

/// One slicing-by-8 step: the register after the 8-byte `word`.
#[inline(always)]
fn step(crc: u32, word: &[u8]) -> u32 {
    let word = u64::from_le_bytes(word.try_into().expect("8-byte chunk")) ^ u64::from(crc);
    (0..8).fold(0, |acc, i| {
        acc ^ CRC_TABLES[7 - i][((word >> (8 * i)) & 0xff) as usize]
    })
}

/// The register after `bytes`, from register `crc`, one chain of steps.
fn one_lane(mut crc: u32, bytes: &[u8]) -> u32 {
    let mut words = bytes.chunks_exact(8);
    for word in &mut words {
        crc = step(crc, word);
    }
    for &b in words.remainder() {
        crc = (crc >> 8) ^ CRC_TABLES[0][((crc ^ u32::from(b)) & 0xff) as usize];
    }
    crc
}

/// The register after `bytes` (four lanes of whole words), from
/// register `crc`: lane 0 continues `crc`, lanes 1–3 start from zero,
/// and Horner's rule joins them with one shift by the lane length.
fn four_lanes(crc: u32, bytes: &[u8]) -> u32 {
    let lane = bytes.len() / LANES;
    let (a, rest) = bytes.split_at(lane);
    let (b, rest) = rest.split_at(lane);
    let (c, d) = rest.split_at(lane);
    let mut regs = [crc, 0, 0, 0];
    for (((wa, wb), wc), wd) in a
        .chunks_exact(8)
        .zip(b.chunks_exact(8))
        .zip(c.chunks_exact(8))
        .zip(d.chunks_exact(8))
    {
        regs = [
            step(regs[0], wa),
            step(regs[1], wb),
            step(regs[2], wc),
            step(regs[3], wd),
        ];
    }
    let shift = shift_by_bytes(lane);
    regs[1..]
        .iter()
        .fold(regs[0], |acc, &reg| mul_mod_p(acc, shift) ^ reg)
}

/// Frames `payload` as `[len][crc][payload]`.
#[must_use]
pub fn encode_record(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
    encode_record_into(&mut out, payload);
    out
}

/// Appends the frame `[len][crc][payload]` onto `out` without an
/// intermediate allocation — the group-commit encoder reuses one buffer
/// across every record of a commit group.
pub fn encode_record_into(out: &mut Vec<u8>, payload: &[u8]) {
    assert!(
        payload.len() <= MAX_PAYLOAD_LEN,
        "frame payload exceeds MAX_PAYLOAD_LEN"
    );
    out.extend_from_slice(
        &u32::try_from(payload.len())
            .expect("bounded above")
            .to_le_bytes(),
    );
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
}

/// Why a [`frames`] walk stopped before the end of the buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TailDefect {
    /// Fewer than [`HEADER_LEN`] bytes remained: a record header was
    /// torn mid-write.
    TornHeader,
    /// The header promised more payload bytes than the buffer holds: a
    /// record body was torn mid-write.
    TornPayload,
    /// The header's length field exceeds [`MAX_PAYLOAD_LEN`]: the
    /// header itself is corrupt.
    BadLength,
    /// The payload's CRC does not match the header: bit rot or a torn
    /// write that happened to leave enough bytes behind.
    BadCrc,
}

/// Walks `bytes` frame by frame, yielding each intact payload as a
/// *borrowed* slice of the input — no per-record allocation. After the
/// iterator returns `None`, [`FrameIter::valid_len`] is the byte length
/// of the intact prefix and [`FrameIter::defect`] says why the walk
/// stopped.
///
/// The walk never skips over damage looking for later records: bytes
/// after the first defect are unreachable debris by construction (the
/// store is append-only), so resynchronising past them would risk
/// resurrecting a record that was never acknowledged.
#[must_use]
pub fn frames(bytes: &[u8]) -> FrameIter<'_> {
    FrameIter {
        bytes,
        at: 0,
        defect: None,
    }
}

/// Borrowing frame cursor over a byte buffer; see [`frames`].
#[derive(Debug)]
pub struct FrameIter<'a> {
    bytes: &'a [u8],
    at: usize,
    defect: Option<TailDefect>,
}

impl<'a> Iterator for FrameIter<'a> {
    type Item = &'a [u8];

    fn next(&mut self) -> Option<&'a [u8]> {
        if self.defect.is_some() || self.at == self.bytes.len() {
            return None;
        }
        let remaining = self.bytes.len() - self.at;
        if remaining < HEADER_LEN {
            self.defect = Some(TailDefect::TornHeader);
            return None;
        }
        let header = &self.bytes[self.at..self.at + HEADER_LEN];
        let len = u32::from_le_bytes(header[..4].try_into().expect("4 bytes")) as usize;
        let crc = u32::from_le_bytes(header[4..].try_into().expect("4 bytes"));
        if len > MAX_PAYLOAD_LEN {
            self.defect = Some(TailDefect::BadLength);
            return None;
        }
        if remaining - HEADER_LEN < len {
            self.defect = Some(TailDefect::TornPayload);
            return None;
        }
        let payload = &self.bytes[self.at + HEADER_LEN..self.at + HEADER_LEN + len];
        if crc32(payload) != crc {
            self.defect = Some(TailDefect::BadCrc);
            return None;
        }
        self.at += HEADER_LEN + len;
        Some(payload)
    }
}

impl FrameIter<'_> {
    /// Byte length of the intact prefix walked so far: truncating the
    /// buffer here leaves exactly the records already yielded.
    #[must_use]
    pub fn valid_len(&self) -> usize {
        self.at
    }

    /// The defect that stopped the walk, or `None` while the walk is
    /// clean (still running, or ended exactly at the buffer end).
    #[must_use]
    pub fn defect(&self) -> Option<TailDefect> {
        self.defect
    }

    /// True when the walk stopped only because the buffer ended
    /// mid-frame — more bytes appended to the buffer could complete the
    /// record. `BadLength`/`BadCrc` are hard defects no refill repairs;
    /// the streaming scanner uses this to tell "read more" from "cut
    /// here".
    #[must_use]
    pub fn incomplete(&self) -> bool {
        matches!(
            self.defect,
            Some(TailDefect::TornHeader | TailDefect::TornPayload)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The byte-at-a-time CRC register update the tables replaced: each
    /// byte's table row recomputed with eight conditional shifts.
    fn bitwise_register(mut crc: u32, bytes: &[u8]) -> u32 {
        for &b in bytes {
            let mut c = (crc ^ u32::from(b)) & 0xff;
            for _ in 0..8 {
                c = if c & 1 == 1 { POLY ^ (c >> 1) } else { c >> 1 };
            }
            crc = (crc >> 8) ^ c;
        }
        crc
    }

    /// The oracle the sliced and four-lane [`crc32`] must match bit for
    /// bit.
    fn crc32_bitwise(bytes: &[u8]) -> u32 {
        !bitwise_register(!0, bytes)
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // IEEE 802.3 check values: the classic "123456789" vector and
        // the empty string.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32_bitwise(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn sliced_crc32_matches_the_bitwise_oracle() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0x0C2C_3200);
        let buf: Vec<u8> = (0..(64 << 10) + 8).map(|_| rng.random()).collect();
        // Every length a word loop and its tail can split, at every
        // start alignment mod 8.
        for len in 0..=257 {
            for offset in 0..8 {
                let bytes = &buf[offset..offset + len];
                assert_eq!(crc32(bytes), crc32_bitwise(bytes), "len {len} at {offset}");
            }
        }
        // Random lengths up to 64 KiB at random unaligned offsets.
        for _ in 0..64 {
            let len = rng.random_range(0..=64usize << 10);
            let offset = rng.random_range(1..8usize);
            let bytes = &buf[offset..offset + len];
            assert_eq!(crc32(bytes), crc32_bitwise(bytes), "len {len} at {offset}");
        }
    }

    #[test]
    fn four_lane_crc32_matches_the_bitwise_oracle() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0x4C41_4E45);
        let max = 1 << 20;
        let buf: Vec<u8> = (0..(max + 8) / 8)
            .flat_map(|_| rng.random::<u64>().to_le_bytes())
            .collect();
        // Every length within 64 bytes of the lane threshold, at every
        // start alignment mod 8: one lane below it, then four lanes with
        // every tail length.
        for len in LANE_THRESHOLD - 64..=LANE_THRESHOLD + 64 {
            for offset in 0..8 {
                let bytes = &buf[offset..offset + len];
                assert_eq!(crc32(bytes), crc32_bitwise(bytes), "len {len} at {offset}");
            }
        }
        // Random lengths up to 1 MiB, in four runs at random alignments,
        // each run checked in ascending order against one running oracle
        // register.
        for _ in 0..4 {
            let offset = rng.random_range(0..8usize);
            let mut lens: Vec<usize> = (0..3)
                .map(|_| rng.random_range(LANE_THRESHOLD..=max))
                .collect();
            lens.push(max);
            lens.sort_unstable();
            let (mut register, mut done) = (!0u32, 0);
            for len in lens {
                register = bitwise_register(register, &buf[offset + done..offset + len]);
                done = len;
                let bytes = &buf[offset..offset + len];
                assert_eq!(crc32(bytes), !register, "len {len} at {offset}");
            }
        }
    }

    /// Walks `bytes` to the end: the intact payloads, the length of the
    /// valid prefix, and the defect that stopped the walk.
    fn walk(bytes: &[u8]) -> (Vec<&[u8]>, usize, Option<TailDefect>) {
        let mut it = frames(bytes);
        let payloads = it.by_ref().collect();
        (payloads, it.valid_len(), it.defect())
    }

    #[test]
    fn roundtrip_walk_recovers_all_payloads() {
        let mut bytes = Vec::new();
        let payloads = [b"abc".as_slice(), b"", &[0xff; 100]];
        for p in payloads {
            bytes.extend_from_slice(&encode_record(p));
        }
        assert_eq!(walk(&bytes), (payloads.to_vec(), bytes.len(), None));
    }

    #[test]
    fn every_truncation_point_is_detected_and_prefix_preserved() {
        let mut bytes = Vec::new();
        for p in [b"first".as_slice(), b"second", b"third"] {
            bytes.extend_from_slice(&encode_record(p));
        }
        let (whole, _, _) = walk(&bytes);
        for cut in 0..bytes.len() {
            let (payloads, valid_len, defect) = walk(&bytes[..cut]);
            // The walk must never return a record the full file lacks,
            // and must keep every record that fits entirely in the cut.
            assert!(payloads.len() <= whole.len());
            assert_eq!(
                payloads,
                whole[..payloads.len()],
                "cut at {cut} must yield a prefix of the intact records"
            );
            assert!(valid_len <= cut);
            if valid_len < cut {
                assert!(defect.is_some(), "partial bytes at {cut} need a defect");
            }
        }
    }

    #[test]
    fn a_flipped_bit_anywhere_in_a_payload_is_caught() {
        let record = encode_record(b"payload-under-test");
        for byte in HEADER_LEN..record.len() {
            for bit in 0..8 {
                let mut dirty = record.clone();
                dirty[byte] ^= 1 << bit;
                let (payloads, _, defect) = walk(&dirty);
                assert_eq!(payloads.len(), 0, "bit {bit} of byte {byte} slipped by");
                assert_eq!(defect, Some(TailDefect::BadCrc));
            }
        }
    }

    #[test]
    fn borrowed_frames_stop_at_a_torn_tail() {
        let mut bytes = Vec::new();
        for p in [b"first".as_slice(), b"second", b""] {
            encode_record_into(&mut bytes, p);
        }
        let intact = bytes.len();
        bytes.extend_from_slice(&encode_record(b"torn")[..HEADER_LEN + 2]);
        let mut it = frames(&bytes);
        let borrowed: Vec<&[u8]> = it.by_ref().collect();
        assert_eq!(
            borrowed,
            vec![b"first".as_slice(), b"second", b""],
            "payloads borrow straight from the input"
        );
        assert_eq!(it.valid_len(), intact);
        assert_eq!(it.defect(), Some(TailDefect::TornPayload));
        assert!(it.incomplete(), "a torn payload is refillable");
        // A hard defect is not refillable.
        let mut rotten = encode_record(b"payload");
        rotten[HEADER_LEN] ^= 1;
        let mut it = frames(&rotten);
        assert_eq!(it.next(), None);
        assert_eq!(it.defect(), Some(TailDefect::BadCrc));
        assert!(!it.incomplete());
    }

    #[test]
    fn an_exhausted_iterator_stays_exhausted() {
        let bytes = encode_record(b"only");
        let mut it = frames(&bytes);
        assert_eq!(it.next(), Some(b"only".as_slice()));
        assert_eq!(it.next(), None);
        assert_eq!(it.next(), None, "fused after a clean end");
        assert_eq!(it.valid_len(), bytes.len());
        assert_eq!(it.defect(), None);
    }

    #[test]
    fn a_corrupt_length_header_cannot_runaway() {
        let mut record = encode_record(b"x");
        record[3] = 0xff; // len now claims ~4 GiB
        let (_, valid_len, defect) = walk(&record);
        assert_eq!(defect, Some(TailDefect::BadLength));
        assert_eq!(valid_len, 0);
    }
}
