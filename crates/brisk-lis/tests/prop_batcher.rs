//! Property-based tests for the EXS batcher (batching / latency control).

use brisk_core::{EventRecord, EventTypeId, ExsConfig, NodeId, SensorId, UtcMicros, Value};
use brisk_lis::{Batcher, FlushReason};
use proptest::prelude::*;
use std::time::Duration;

fn rec(seq: u64, payload: usize) -> EventRecord {
    EventRecord::new(
        NodeId(0),
        SensorId(0),
        EventTypeId(1),
        seq,
        UtcMicros::from_micros(seq as i64),
        vec![Value::Bytes(vec![0u8; payload])],
    )
    .unwrap()
}

/// A batcher and the records it has not yet emitted, as a sender holds
/// them: a flush reason hands the whole pending list over.
struct Sender {
    batcher: Batcher,
    pending: Vec<EventRecord>,
}

impl Sender {
    fn new(cfg: ExsConfig) -> Self {
        Sender {
            batcher: Batcher::new(cfg),
            pending: Vec::new(),
        }
    }

    fn ship(&mut self, reason: Option<FlushReason>) -> Option<(Vec<EventRecord>, FlushReason)> {
        reason.map(|r| (std::mem::take(&mut self.pending), r))
    }

    fn push(&mut self, r: EventRecord, now: UtcMicros) -> Option<(Vec<EventRecord>, FlushReason)> {
        let bytes = r.xdr_payload_size();
        self.pending.push(r);
        let reason = self.batcher.push(bytes, now);
        self.ship(reason)
    }

    fn poll_timeout(&mut self, now: UtcMicros) -> Option<(Vec<EventRecord>, FlushReason)> {
        let reason = self.batcher.poll_timeout(now);
        self.ship(reason)
    }

    fn flush(&mut self) -> Option<(Vec<EventRecord>, FlushReason)> {
        let reason = self.batcher.flush();
        self.ship(reason)
    }
}

fn cfg(max_records: usize, max_bytes: usize, timeout_us: u64) -> ExsConfig {
    ExsConfig {
        max_batch_records: max_records,
        max_batch_bytes: max_bytes,
        flush_timeout: Duration::from_micros(timeout_us),
        ..ExsConfig::default()
    }
}

proptest! {
    /// Conservation and order: every pushed record appears in exactly one
    /// emitted batch, in push order, regardless of knob values and the
    /// interleaving of timeout polls.
    #[test]
    fn conservation_and_fifo(
        payloads in proptest::collection::vec(0usize..200, 1..100),
        max_records in 1usize..32,
        max_bytes in 64usize..4_096,
        timeout_us in 1u64..10_000,
        poll_every in 1usize..8,
    ) {
        let mut b = Sender::new(cfg(max_records, max_bytes, timeout_us));
        let mut emitted: Vec<EventRecord> = Vec::new();
        for (i, &p) in payloads.iter().enumerate() {
            let now = UtcMicros::from_micros(i as i64 * 100);
            if let Some((batch, _)) = b.push(rec(i as u64, p), now) {
                emitted.extend(batch);
            }
            if i % poll_every == 0 {
                if let Some((batch, reason)) = b.poll_timeout(now) {
                    prop_assert_eq!(reason, FlushReason::Timeout);
                    emitted.extend(batch);
                }
            }
        }
        if let Some((batch, reason)) = b.flush() {
            prop_assert_eq!(reason, FlushReason::Forced);
            emitted.extend(batch);
        }
        prop_assert_eq!(emitted.len(), payloads.len());
        for (i, r) in emitted.iter().enumerate() {
            prop_assert_eq!(r.seq, i as u64, "batches must preserve order");
        }
        prop_assert_eq!(b.batcher.pending_records(), 0);
        prop_assert_eq!(b.batcher.records_emitted(), payloads.len() as u64);
    }

    /// The record-count knob is a hard bound: no emitted batch exceeds it
    /// (the byte knob can emit smaller batches, never larger ones).
    #[test]
    fn batch_size_bounded(
        count in 1usize..300,
        max_records in 1usize..64,
    ) {
        let mut b = Sender::new(cfg(max_records, usize::MAX >> 1, 1_000_000));
        let mut sizes = Vec::new();
        for i in 0..count {
            if let Some((batch, reason)) = b.push(rec(i as u64, 8), UtcMicros::ZERO) {
                prop_assert_eq!(reason, FlushReason::Records);
                sizes.push(batch.len());
            }
        }
        if let Some((batch, _)) = b.flush() {
            sizes.push(batch.len());
        }
        for &s in &sizes {
            prop_assert!(s <= max_records, "batch of {s} exceeds {max_records}");
        }
        prop_assert_eq!(sizes.iter().sum::<usize>(), count);
    }

    /// A non-empty batch never waits longer than the flush timeout between
    /// the oldest record's enqueue and a poll at/after the deadline.
    #[test]
    fn timeout_is_an_upper_bound(
        timeout_us in 1i64..100_000,
        enqueue_at in 0i64..1_000_000,
        late_by in 0i64..100_000,
    ) {
        let mut b = Sender::new(cfg(1_000, usize::MAX >> 1, timeout_us as u64));
        let t0 = UtcMicros::from_micros(enqueue_at);
        b.push(rec(0, 8), t0);
        // Just before the deadline: nothing.
        if timeout_us > 1 {
            prop_assert!(b
                .poll_timeout(t0 + Duration::from_micros(timeout_us as u64 - 1))
                .is_none());
        }
        // At or after the deadline: flushed.
        let polled = b.poll_timeout(
            t0 + Duration::from_micros((timeout_us + late_by) as u64),
        );
        prop_assert!(polled.is_some());
    }
}
