//! Allocation pin on cold recovery: one `DurableFleet::recover` holds
//! the checkpoint image once — the cell vector the recovered memory
//! keeps, decoded from the bytes the simulated directory lends. Earlier
//! revisions also copied the file out of the directory (two image-sized
//! buffers), and before that copied the decoded cells into the memory
//! and cloned the loaded image to replay the WAL onto it (four).
//!
//! One `#[test]` only: the counting allocator is process-global, and a
//! concurrently running test would perturb the counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use qram_core::store::{CheckpointPolicy, Dir, DurableFleet, SimDir};
use qram_core::ReplicatedWrite;
use qsim::branch::ClassicalMemory;

/// Counts every allocation and reallocation, and the bytes each asks
/// for; frees are not counted (the pin is on allocation *work*, not
/// live bytes).
struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

fn counts() -> (u64, u64) {
    (
        ALLOCATIONS.load(Ordering::Relaxed),
        BYTES.load(Ordering::Relaxed),
    )
}

#[test]
fn recovery_allocates_the_image_once() {
    // A 65,536-cell, 1-bit store: one 512 KiB cell image, checkpointed
    // at epoch 0, with a short WAL suffix to replay onto it.
    const CELLS: u64 = 1 << 16;
    let cells: Vec<u64> = (0..CELLS).map(|i| (i * 5 + 1) % 2).collect();
    let base = ClassicalMemory::from_vec(1, cells).unwrap();
    let mut store =
        DurableFleet::create_with(Box::new(SimDir::new()), &base, CheckpointPolicy::never())
            .unwrap();
    for epoch in 1..=16 {
        store
            .append(&ReplicatedWrite {
                epoch,
                origin: 0,
                address: epoch * 4099 % CELLS,
                value: epoch % 2,
            })
            .unwrap();
    }
    let expected = store.shadow().clone();
    let dir: Box<dyn Dir> = store.into_dir();

    let before = counts();
    let recovered = DurableFleet::recover(dir).unwrap();
    let after = counts();
    let (allocations, bytes) = (after.0 - before.0, after.1 - before.1);

    assert_eq!(recovered.epoch, 16);
    assert_eq!(recovered.memory, expected);
    let image = 8 * CELLS;
    assert!(
        bytes < image + image / 2,
        "one recovery allocated {bytes} bytes in {allocations} allocations, \
         more than one {image}-byte image"
    );
}
