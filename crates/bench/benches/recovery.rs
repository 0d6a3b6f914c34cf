//! Cold recovery of the durable store (`DurableFleet::recover`) from a
//! crash image, as a function of the write-ahead-log length and the
//! checkpoint policy.
//!
//! The reproduction artifact is the WAL-bytes-vs-checkpoint trade-off:
//! without checkpoints the log holds every epoch and recovery replays
//! all of it; with periodic checkpoints the log is compacted down to
//! the post-checkpoint suffix and recovery is one image load plus a
//! short replay. The target asserts that every acknowledged write is
//! recovered and that checkpoints compact the log. The host time of
//! cold recovery is perfbench's (`recover_ms_p50`) and the durability
//! target's (`durability`).

use qram_core::store::{CheckpointPolicy, DurableFleet, SimDir, WAL_FILE};
use qram_core::ReplicatedWrite;
use qsim::branch::ClassicalMemory;

const N: u64 = 4096;
/// WAL lengths (epochs appended) swept by the table.
const WAL_LENGTHS: [u64; 3] = [64, 512, 4096];
/// Checkpoint cadence of the "with checkpoints" arm.
const CHECKPOINT_EVERY: u64 = 256;

fn memory() -> ClassicalMemory {
    let cells: Vec<u64> = (0..N).map(|i| (i * 7 + 3) % 2).collect();
    ClassicalMemory::from_words(1, &cells).expect("valid memory")
}

fn write(epoch: u64) -> ReplicatedWrite {
    ReplicatedWrite {
        epoch,
        origin: (epoch % 4) as usize,
        address: (epoch * 13) % N,
        value: epoch % 2,
    }
}

/// Builds a store directory holding `epochs` appended writes under
/// `policy`, then simulates the crash: the directory is all that
/// survives.
fn crash_image(epochs: u64, policy: CheckpointPolicy) -> SimDir {
    let mut store = DurableFleet::create_with(Box::new(SimDir::new()), &memory(), policy)
        .expect("create store");
    for e in 1..=epochs {
        store.append(&write(e)).expect("append");
    }
    let mut dir = store.into_dir();
    dir.as_any_mut()
        .downcast_mut::<SimDir>()
        .expect("bench store runs on SimDir")
        .clone()
}

fn main() {
    println!("== cold recovery, N = {N} cells, checkpoint every {CHECKPOINT_EVERY} vs never ==");
    println!(
        "{:>7} {:>12} {:>14} {:>15} {:>14}",
        "epochs", "wal bytes", "wal bytes ckpt", "recovered epoch", "replay suffix"
    );
    for &epochs in &WAL_LENGTHS {
        let plain = crash_image(epochs, CheckpointPolicy::never());
        let ckpt = crash_image(epochs, CheckpointPolicy::every(CHECKPOINT_EVERY));
        let plain_bytes = plain.len_of(WAL_FILE).unwrap_or(0);
        let ckpt_bytes = ckpt.len_of(WAL_FILE).unwrap_or(0);
        let recovered = DurableFleet::recover(Box::new(ckpt)).expect("recover");
        assert_eq!(recovered.epoch, epochs, "no acknowledged write is lost");
        println!(
            "{:>7} {:>12} {:>14} {:>15} {:>14}",
            epochs,
            plain_bytes,
            ckpt_bytes,
            recovered.epoch,
            recovered.writes.len(),
        );
        assert!(
            epochs < CHECKPOINT_EVERY || ckpt_bytes < plain_bytes,
            "checkpoints must compact the log"
        );
    }
}
