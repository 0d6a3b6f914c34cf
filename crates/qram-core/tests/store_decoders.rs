//! Decoder fuzzing for the durable store: CRC-valid bytes that lie.
//!
//! A frame's CRC proves that the payload is the one that was written,
//! not that its fields make sense. This suite builds a real store
//! directory — a base image, one chained delta and a WAL tail — then
//! overwrites one header or record field of one file at a time with
//! boundary values and seeded random bytes, re-frames the payload with
//! a correct CRC and recovers. Recovery must return `Ok` or a
//! [`StoreError`]: never a panic, never an allocation sized by a lying
//! length field. The checkpoint payload is the packed image (version 2):
//! its words are fuzzed with the header, and a set padding bit, a lane
//! bit above the bus width and a version-1 header are each corruption.

use std::panic::{catch_unwind, AssertUnwindSafe};

use qram_core::store::{
    checkpoint, delta_file, frame, wal, CheckpointPolicy, Delta, Dir, DurableFleet, SimDir,
    StoreError, CHECKPOINT_FILE, WAL_FILE,
};
use qram_core::ReplicatedWrite;
use qsim::branch::ClassicalMemory;
use rand::{rngs::StdRng, Rng, SeedableRng};

const CELLS: u64 = 16;
const BUS: u32 = 16;
/// Packed words of the base image: four 16-bit cells per word.
const WORDS: usize = 4;

fn base() -> ClassicalMemory {
    ClassicalMemory::from_words(BUS, &(0..CELLS).collect::<Vec<u64>>()).expect("valid base")
}

/// A 2^61 + 1 cell count: 16 bytes per delta cell wraps its byte
/// length back to 16 (and 8 bytes per cell would wrap to 8).
const WRAPPING_COUNT: u64 = (1 << 61) + 1;

/// A 2^63 cell count: at [`BUS`] = 16 bits, four cells per packed word,
/// that is 2^61 words, and 8 bytes per word wraps their length to 0.
const PACKED_WRAPPING_COUNT: u64 = 1 << 63;

fn recover(dir: SimDir) -> Result<u64, StoreError> {
    DurableFleet::recover(Box::new(dir)).map(|state| state.epoch)
}

#[test]
fn a_checkpoint_claiming_2_63_cells_is_corrupt_not_a_capacity_overflow() {
    // 28 bytes: the header alone. 28 + 8·2^61 words wraps to exactly 28,
    // so an unchecked length test accepts it and the decoder then sizes
    // a vector by the claimed count.
    let mut payload = Vec::new();
    payload.extend_from_slice(b"QCKP");
    payload.extend_from_slice(&2u32.to_le_bytes());
    payload.extend_from_slice(&0u64.to_le_bytes());
    payload.extend_from_slice(&BUS.to_le_bytes());
    payload.extend_from_slice(&PACKED_WRAPPING_COUNT.to_le_bytes());
    assert_eq!(payload.len(), 28);
    let mut dir = SimDir::new();
    dir.replace(CHECKPOINT_FILE, &frame::encode_record(&payload))
        .unwrap();
    assert!(matches!(
        recover(dir),
        Err(StoreError::CorruptCheckpoint(
            "cell count vs payload length"
        ))
    ));
}

#[test]
fn a_delta_writing_address_999_into_a_16_cell_image_is_corrupt_not_out_of_bounds() {
    let mut dir = SimDir::new();
    checkpoint::install(&mut dir, &base(), 0).unwrap();
    let delta = Delta {
        base_epoch: 0,
        epoch: 1,
        cells: vec![(999, 1)],
    };
    checkpoint::install_delta(&mut dir, 1, &delta).unwrap();
    assert!(matches!(
        recover(dir),
        Err(StoreError::CorruptCheckpoint(
            "replayed cell address outside the image"
        ))
    ));
}

#[test]
fn a_wal_value_wider_than_the_bus_is_corrupt_not_a_panic() {
    let mut dir = SimDir::new();
    checkpoint::install(&mut dir, &base(), 0).unwrap();
    let w = ReplicatedWrite {
        epoch: 1,
        origin: 0,
        address: 3,
        value: 1 << BUS,
    };
    dir.append(WAL_FILE, &frame::encode_record(&wal::encode_write(&w)))
        .unwrap();
    assert!(matches!(
        recover(dir),
        Err(StoreError::CorruptCheckpoint(
            "replayed cell value wider than the bus"
        ))
    ));
}

#[test]
fn a_rescan_refuses_a_wal_record_outside_the_image() {
    // The live audit path: a CRC-valid record lands under the store's
    // feet, and the rescan that picks it up must not replay it.
    let mut store = DurableFleet::create(Box::new(SimDir::new()), &base()).unwrap();
    let write = |epoch, address| ReplicatedWrite {
        epoch,
        origin: 0,
        address,
        value: 1,
    };
    store.append(&write(1, 3)).unwrap();
    store
        .dir_mut()
        .append(
            WAL_FILE,
            &frame::encode_record(&wal::encode_write(&write(2, 999))),
        )
        .unwrap();
    assert!(matches!(
        store.rescan(),
        Err(StoreError::CorruptCheckpoint(
            "replayed cell address outside the image"
        ))
    ));
}

/// The directory every sweep case starts from: a base image at epoch
/// 0, `delta.0001` holding epochs 1–4 (four cells), and WAL records
/// for epochs 5 and 6.
fn store_dir() -> SimDir {
    let mut store = DurableFleet::create_with(
        Box::new(SimDir::new()),
        &base(),
        CheckpointPolicy::deltas(4, 8),
    )
    .unwrap();
    for epoch in 1..=6 {
        store
            .append(&ReplicatedWrite {
                epoch,
                origin: 0,
                address: epoch * 3 % CELLS,
                value: epoch * 1000,
            })
            .unwrap();
    }
    assert_eq!(store.delta_chain_len(), 1);
    assert_eq!(store.suffix().len(), 2);
    let mut dir = store.into_dir();
    dir.as_any_mut()
        .downcast_mut::<SimDir>()
        .expect("the fixture runs on SimDir")
        .clone()
}

/// One field of one framed payload in one file: `record` picks the
/// frame, `at..at + width` the bytes within its payload.
struct Field {
    file: String,
    record: usize,
    name: &'static str,
    at: usize,
    width: usize,
}

fn fields() -> Vec<Field> {
    let field = |file: &str, record, name, at, width| Field {
        file: file.to_owned(),
        record,
        name,
        at,
        width,
    };
    let mut fields = vec![
        field(CHECKPOINT_FILE, 0, "magic", 0, 4),
        field(CHECKPOINT_FILE, 0, "version", 4, 4),
        field(CHECKPOINT_FILE, 0, "epoch", 8, 8),
        field(CHECKPOINT_FILE, 0, "bus_width", 16, 4),
        field(CHECKPOINT_FILE, 0, "cells", 20, 8),
        field(CHECKPOINT_FILE, 0, "first word", 28, 8),
        field(CHECKPOINT_FILE, 0, "last word", 28 + 8 * (WORDS - 1), 8),
    ];
    let delta = delta_file(1);
    fields.extend([
        field(&delta, 0, "magic", 0, 4),
        field(&delta, 0, "version", 4, 4),
        field(&delta, 0, "base_epoch", 8, 8),
        field(&delta, 0, "epoch", 16, 8),
        field(&delta, 0, "count", 24, 8),
        field(&delta, 0, "first address", 32, 8),
        field(&delta, 0, "first value", 40, 8),
    ]);
    for record in 0..2 {
        fields.extend([
            field(WAL_FILE, record, "epoch", 0, 8),
            field(WAL_FILE, record, "origin", 8, 8),
            field(WAL_FILE, record, "address", 16, 8),
            field(WAL_FILE, record, "value", 24, 8),
        ]);
    }
    fields
}

/// `bytes` with frame `record`'s payload passed through `lie`, and
/// every frame re-framed with a correct CRC.
fn reframe(bytes: &[u8], record: usize, lie: impl FnOnce(&mut [u8])) -> Vec<u8> {
    let mut it = frame::frames(bytes);
    let mut payloads: Vec<Vec<u8>> = it.by_ref().map(<[u8]>::to_vec).collect();
    assert_eq!(it.valid_len(), bytes.len(), "fixture files are intact");
    lie(&mut payloads[record]);
    let mut out = Vec::with_capacity(bytes.len());
    for payload in &payloads {
        frame::encode_record_into(&mut out, payload);
    }
    out
}

fn field_value(bytes: &[u8], field: &Field) -> u64 {
    let payload = frame::frames(bytes)
        .nth(field.record)
        .expect("the fixture holds the field's record");
    let mut word = [0u8; 8];
    word[..field.width].copy_from_slice(&payload[field.at..field.at + field.width]);
    u64::from_le_bytes(word)
}

/// Recovers `clean` with `file` replaced by `bytes`; a panic is logged
/// under `label` instead of aborting the sweep.
fn recover_lie(
    clean: &SimDir,
    file: &str,
    bytes: &[u8],
    label: String,
    panicked: &mut Vec<String>,
) {
    let mut dir = clean.clone();
    dir.replace(file, bytes).unwrap();
    if catch_unwind(AssertUnwindSafe(|| recover(dir))).is_err() {
        panicked.push(label);
    }
}

#[test]
fn crc_valid_lies_never_panic_recovery() {
    let clean = store_dir();
    assert_eq!(recover(clean.clone()).unwrap(), 6, "the fixture recovers");
    let mut rng = StdRng::seed_from_u64(0xDEC0_DE25);
    let mut panicked = Vec::new();
    let mut cases = 0;
    for field in fields() {
        let bytes = clean.read(&field.file).unwrap();
        let original = field_value(&bytes, &field);
        // Boundary values, then the two counts whose 8- and 16-byte
        // lengths wrap back onto the true payload length, then noise.
        let mut values = vec![
            0,
            1,
            WRAPPING_COUNT,
            PACKED_WRAPPING_COUNT,
            u64::MAX,
            original.wrapping_add(1 << 61),
            original.wrapping_add(1 << 60),
        ];
        values.extend((0..16).map(|_| rng.random::<u64>()));
        for value in values {
            let lie = reframe(&bytes, field.record, |payload| {
                payload[field.at..field.at + field.width]
                    .copy_from_slice(&value.to_le_bytes()[..field.width]);
            });
            let label = format!(
                "{} record {} {} = {value:#x}",
                field.file, field.record, field.name
            );
            recover_lie(&clean, &field.file, &lie, label, &mut panicked);
            cases += 1;
        }
    }
    // Arbitrary garbage: a random run of random bytes anywhere in a
    // payload, header and cells alike.
    for (file, record) in [
        (CHECKPOINT_FILE.to_owned(), 0),
        (delta_file(1), 0),
        (WAL_FILE.to_owned(), 0),
        (WAL_FILE.to_owned(), 1),
    ] {
        let bytes = clean.read(&file).unwrap();
        for _ in 0..64 {
            let mut span = (0, 0);
            let lie = reframe(&bytes, record, |payload| {
                let at = rng.random_range(0..payload.len());
                let len = rng.random_range(1..=16usize).min(payload.len() - at);
                span = (at, len);
                for b in &mut payload[at..at + len] {
                    *b = rng.random();
                }
            });
            let label = format!("{file} record {record} garbage at {span:?}");
            recover_lie(&clean, &file, &lie, label, &mut panicked);
            cases += 1;
        }
    }
    assert!(
        panicked.is_empty(),
        "{} of {cases} CRC-valid lies panicked recovery: {panicked:#?}",
        panicked.len()
    );
}

/// Recovers a directory whose checkpoint is `payload`, re-framed with a
/// correct CRC; a panic is an `Err` naming it.
fn recover_payload(payload: &[u8]) -> Result<Result<u64, StoreError>, String> {
    let mut dir = SimDir::new();
    dir.replace(CHECKPOINT_FILE, &frame::encode_record(payload))
        .unwrap();
    catch_unwind(AssertUnwindSafe(|| recover(dir))).map_err(|_| "recovery panicked".to_owned())
}

#[test]
fn a_set_padding_bit_a_high_lane_bit_or_version_1_is_corrupt_not_a_panic() {
    // Eight 3-bit cells pack in 4-bit lanes into bits 0..32 of one word:
    // bit 3 of each lane is above the bus, and bits 32..64 are padding.
    let cells: Vec<u64> = (0..8).map(|i| i % 8).collect();
    let memory = ClassicalMemory::from_words(3, &cells).unwrap();
    let good = checkpoint::encode(&memory, 0);
    assert_eq!(good.len(), 28 + 8, "one packed word");
    assert!(matches!(recover_payload(&good), Ok(Ok(0))));
    let lies: [(&str, usize, u8); 4] = [
        ("lane bit above the bus", 28, 1 << 3),
        ("lane bit above the bus, last lane", 28 + 3, 1 << 7),
        ("padding bit", 28 + 4, 1),
        ("top padding bit", 28 + 7, 1 << 7),
    ];
    for (name, byte, bit) in lies {
        let mut bad = good.clone();
        bad[byte] |= bit;
        assert!(
            matches!(
                recover_payload(&bad),
                Ok(Err(StoreError::CorruptCheckpoint(_)))
            ),
            "{name}"
        );
    }
    // Version 1 stored a u64 per cell; a version-1 header over exactly
    // such a payload is refused like any unknown version.
    let mut v1 = good[..28].to_vec();
    v1[4..8].copy_from_slice(&1u32.to_le_bytes());
    for &cell in &cells {
        v1.extend_from_slice(&cell.to_le_bytes());
    }
    assert!(matches!(
        recover_payload(&v1),
        Ok(Err(StoreError::CorruptCheckpoint("unknown version")))
    ));
}
