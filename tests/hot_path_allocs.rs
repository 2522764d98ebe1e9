//! Allocation budget of the ISM record path.
//!
//! Once the pipeline is warm — the output memory buffer filled past its
//! byte bound, so it evicts and recycles — merging and delivering a
//! record (`IsmCore::push_batch_seq` + `tick`, with a durable store
//! attached and telemetry bound) must not allocate per record. The
//! records themselves are built before the measured region: their field
//! vectors are the one allocation a record needs, paid where it is
//! decoded.
//!
//! This file holds a single test on purpose: the counting allocator is
//! process-wide, and a second test running in parallel would pollute the
//! count.

use brisk::core::{
    EventRecord, EventTypeId, IsmConfig, NodeId, SensorId, SorterConfig, StoreConfig, UtcMicros,
    Value,
};
use brisk::ism::IsmCore;
use brisk::telemetry::Registry;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Counts allocations (not frees) while `COUNTING` is set.
struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counters are plain
// atomics and never allocate.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Records per batch, as an EXS at its default record knob ships them.
const BATCH: usize = 256;
/// Memory-buffer bound: small, so the warm-up overruns it many times.
const MEMORY_BYTES: usize = 256 * 1024;
/// Batches before the measured region, and inside it.
const WARMUP_BATCHES: u64 = 80;
const MEASURED_BATCHES: u64 = 400;
/// Stream time between consecutive records (µs): a 500k records/s node.
const TS_STEP_US: i64 = 2;

/// Batch `n` of node 1: the paper's six-integer records, in order.
fn batch(n: u64) -> Vec<EventRecord> {
    (0..BATCH as u64)
        .map(|i| {
            let seq = n * BATCH as u64 + i;
            EventRecord::new(
                NodeId(1),
                SensorId((seq % 4) as u32),
                EventTypeId(1),
                seq,
                UtcMicros::from_micros(1_000_000 + seq as i64 * TS_STEP_US),
                (0..6).map(|f| Value::I32(seq as i32 ^ f)).collect(),
            )
            .expect("six fields")
        })
        .collect()
}

/// Push batch `n` and tick far enough ahead that the sorter releases it.
fn push_and_tick(core: &mut IsmCore, n: u64, records: Vec<EventRecord>) {
    let end = UtcMicros::from_micros(1_000_000 + ((n + 1) * BATCH as u64) as i64 * TS_STEP_US);
    assert!(core
        .push_batch_seq(NodeId(1), n + 1, records, end)
        .expect("push"));
    let delivered = core.tick(end.offset(1)).expect("tick");
    assert_eq!(delivered, BATCH, "frame 0 releases the whole batch");
}

#[test]
fn warm_record_path_allocates_less_than_once_per_twenty_records() {
    let dir = std::env::temp_dir().join(format!("brisk-hot-path-allocs-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = IsmConfig {
        sorter: SorterConfig {
            initial_frame_us: 0,
            min_frame_us: 0,
            ..SorterConfig::default()
        },
        store: StoreConfig::at(&dir),
        ..IsmConfig::default()
    };
    let mut core = IsmCore::with_memory(cfg, MEMORY_BYTES).expect("core");
    core.bind_telemetry(&Registry::new());

    for n in 0..WARMUP_BATCHES {
        push_and_tick(&mut core, n, batch(n));
    }
    assert!(
        core.memory().evicted() > 0,
        "the warm-up must overrun the memory buffer's byte bound"
    );

    let batches: Vec<Vec<EventRecord>> = (WARMUP_BATCHES..WARMUP_BATCHES + MEASURED_BATCHES)
        .map(batch)
        .collect();
    COUNTING.store(true, Ordering::SeqCst);
    for (n, records) in (WARMUP_BATCHES..).zip(batches) {
        push_and_tick(&mut core, n, records);
    }
    COUNTING.store(false, Ordering::SeqCst);
    let allocs = ALLOCS.load(Ordering::SeqCst);

    let records = MEASURED_BATCHES * BATCH as u64;
    assert_eq!(
        core.stats().records_out,
        (WARMUP_BATCHES + MEASURED_BATCHES) * BATCH as u64
    );
    drop(core);
    let _ = std::fs::remove_dir_all(&dir);
    let per_record = allocs as f64 / records as f64;
    assert!(
        per_record < 0.05,
        "{allocs} allocations for {records} records ({per_record:.3} per record)"
    );
}
