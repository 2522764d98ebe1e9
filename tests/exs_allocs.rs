//! Allocation budget of the EXS record path.
//!
//! Once warm, scooping a record out of a sensor ring, correcting it and
//! shipping it in a batch (`ExternalSensor::step`) must not allocate per
//! record: each record is transcoded from its ring bytes straight into
//! the outgoing batch frame, so the only allocations are per batch (the
//! next frame's buffer, the transport's copy). Building an `EventRecord`
//! per scooped record would cost at least one allocation per record —
//! the heap vector of its fields.
//!
//! This file holds a single test on purpose: the counting allocator is
//! process-wide, and a second test running in parallel would pollute the
//! count.

use brisk::core::{EventTypeId, ExsConfig, NodeId, UtcMicros, Value};
use brisk::lis::ExternalSensor;
use brisk::net::{LinkModel, MemTransport, Transport};
use brisk::prelude::{Clock, SystemClock};
use brisk::proto::{Message, UNLIMITED_CREDIT};
use brisk::ringbuf::RingSet;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

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

/// Records emitted between rounds of EXS steps: four full batches at the
/// default record knob.
const ROUND: u64 = 1_024;
/// Rounds before the measured region, and inside it.
const WARMUP_ROUNDS: u64 = 20;
const MEASURED_ROUNDS: u64 = 100;

#[test]
fn warm_exs_step_does_not_allocate_per_record() {
    let transport = MemTransport::with_model(LinkModel::ideal());
    let mut listener = transport.listen("ism").unwrap();
    let conn = transport.connect("ism").unwrap();
    let mut ism = listener
        .accept(Some(Duration::from_secs(1)))
        .unwrap()
        .expect("in-memory accept");
    let node = NodeId(1);
    let cfg = ExsConfig::default();
    let rings = RingSet::new(node, cfg.ring_capacity);
    let clock: Arc<dyn Clock> = Arc::new(SystemClock);
    let mut exs = ExternalSensor::new(node, Arc::clone(&rings), clock, conn, cfg).unwrap();
    let mut port = rings.register();

    let mut measured = 0;
    for round in 0..WARMUP_ROUNDS + MEASURED_ROUNDS {
        // The paper's six-integer records, emitted outside the count.
        for i in 0..ROUND {
            let fields = (0..6).map(|k| Value::I32((i + k) as i32)).collect();
            assert!(port.emit(EventTypeId(1), UtcMicros::now(), fields).unwrap());
        }
        let counting = round >= WARMUP_ROUNDS;
        COUNTING.store(counting, Ordering::Relaxed);
        while !rings.is_empty() {
            exs.step().unwrap();
        }
        COUNTING.store(false, Ordering::Relaxed);
        if counting {
            measured += ROUND;
        }
        // Play the ISM: take the batches and acknowledge them, so the
        // send window stays short.
        let mut last_seq = 0;
        while let Some(frame) = ism.recv(Some(Duration::ZERO)).unwrap() {
            if let Message::EventBatch { seq, .. } = Message::decode(&frame).unwrap() {
                last_seq = seq;
            }
        }
        assert!(last_seq > 0, "round {round} shipped no batch");
        let ack = Message::BatchAck {
            seq: last_seq,
            credit: UNLIMITED_CREDIT,
        };
        ism.send(&ack.encode()).unwrap();
    }
    assert_eq!(
        exs.stats().records_sent,
        (WARMUP_ROUNDS + MEASURED_ROUNDS) * ROUND
    );
    let per_record = ALLOCS.load(Ordering::Relaxed) as f64 / measured as f64;
    assert!(
        per_record < 0.05,
        "warm EXS step allocated {per_record:.3} times per record"
    );
}
