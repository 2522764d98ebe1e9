//! Batching and latency control (§3.4, Fig. 1).
//!
//! "Events of interest … may together form large volumes of instrumentation
//! data … On the other hand, in time-critical applications … it may be
//! desired that important events be delivered to a central place as soon as
//! possible. Clearly, these two requirements are in contradiction." (§2)
//!
//! The [`Batcher`] resolves the contradiction with knobs: a batch is
//! flushed when it reaches `max_batch_records` records or
//! `max_batch_bytes` encoded bytes (throughput mode), or when its oldest
//! record has waited `flush_timeout` (latency mode). The EXS main loop
//! drives it with the current time, so the same logic runs under real and
//! simulated clocks.

use brisk_core::{EventRecord, ExsConfig, NodeId, UtcMicros};
use std::collections::VecDeque;

/// Why a batch was emitted.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FlushReason {
    /// The record-count knob tripped.
    Records,
    /// The encoded-size knob tripped.
    Bytes,
    /// The oldest buffered record hit the flush timeout.
    Timeout,
    /// An explicit flush (shutdown, or a caller forcing latency).
    Forced,
}

/// Accumulates records and decides when to emit a batch.
#[derive(Debug)]
pub struct Batcher {
    cfg: ExsConfig,
    pending: Vec<EventRecord>,
    pending_bytes: usize,
    oldest_enqueued_at: Option<UtcMicros>,
    batches_emitted: u64,
    records_emitted: u64,
}

impl Batcher {
    /// New batcher with the given knobs.
    pub fn new(cfg: ExsConfig) -> Self {
        let cap = cfg.max_batch_records;
        Batcher {
            cfg,
            pending: Vec::with_capacity(cap),
            pending_bytes: 0,
            oldest_enqueued_at: None,
            batches_emitted: 0,
            records_emitted: 0,
        }
    }

    /// Number of records currently buffered.
    pub fn pending_records(&self) -> usize {
        self.pending.len()
    }

    /// Estimated wire size of the buffered records.
    pub fn pending_bytes(&self) -> usize {
        self.pending_bytes
    }

    /// Batches emitted so far.
    pub fn batches_emitted(&self) -> u64 {
        self.batches_emitted
    }

    /// Records emitted so far.
    pub fn records_emitted(&self) -> u64 {
        self.records_emitted
    }

    /// Add a record (stamped as arriving at `now`). Returns a full batch if
    /// one of the size knobs tripped.
    pub fn push(
        &mut self,
        rec: EventRecord,
        now: UtcMicros,
    ) -> Option<(Vec<EventRecord>, FlushReason)> {
        self.pending_bytes += rec.xdr_payload_size();
        self.pending.push(rec);
        if self.oldest_enqueued_at.is_none() {
            self.oldest_enqueued_at = Some(now);
        }
        if self.pending.len() >= self.cfg.max_batch_records {
            return Some((self.take(), FlushReason::Records));
        }
        if self.pending_bytes >= self.cfg.max_batch_bytes {
            return Some((self.take(), FlushReason::Bytes));
        }
        None
    }

    /// Check the latency knob: if the oldest buffered record has waited at
    /// least `flush_timeout`, emit what we have.
    pub fn poll_timeout(&mut self, now: UtcMicros) -> Option<(Vec<EventRecord>, FlushReason)> {
        let oldest = self.oldest_enqueued_at?;
        let waited = now.micros_since(oldest);
        if waited >= self.cfg.flush_timeout.as_micros() as i64 {
            Some((self.take(), FlushReason::Timeout))
        } else {
            None
        }
    }

    /// Time until the latency knob would trip, if anything is pending; the
    /// EXS uses it to size its blocking waits.
    pub fn time_to_deadline(&self, now: UtcMicros) -> Option<i64> {
        let oldest = self.oldest_enqueued_at?;
        Some(self.cfg.flush_timeout.as_micros() as i64 - now.micros_since(oldest))
    }

    /// Unconditionally emit everything buffered (may be empty).
    pub fn flush(&mut self) -> Option<(Vec<EventRecord>, FlushReason)> {
        if self.pending.is_empty() {
            return None;
        }
        Some((self.take(), FlushReason::Forced))
    }

    fn take(&mut self) -> Vec<EventRecord> {
        self.pending_bytes = 0;
        self.oldest_enqueued_at = None;
        self.batches_emitted += 1;
        self.records_emitted += self.pending.len() as u64;
        std::mem::take(&mut self.pending)
    }
}

/// Bounded retransmit window for acknowledged batch delivery (protocol
/// v2). The sender assigns every outgoing batch a per-node monotonic
/// sequence number and keeps its encoded frame here until the ISM's
/// cumulative [`BatchAck`] covers it; after a reconnect the sender
/// replays whatever is still unacked so an abrupt disconnect loses
/// nothing. Shared by the EXS and the relay's upstream exporter.
///
/// The window holds wire bytes, not records: each batch is encoded once,
/// with its sequence number, when it is pushed, and a replay resends
/// exactly those bytes — no record is cloned or re-encoded.
///
/// The window is bounded: pushing into a full window evicts the oldest
/// unacked batch (reported to the caller so it can be counted as lost)
/// rather than blocking the node's instrumentation.
///
/// [`BatchAck`]: brisk_proto::Message::BatchAck
#[derive(Clone, Debug)]
pub struct SendWindow {
    next_seq: u64,
    unacked: VecDeque<Windowed>,
    /// Records across `unacked`, kept in step with it so the credit
    /// check is O(1).
    unacked_records: u64,
    capacity: usize,
}

/// One retained batch: its sequence number, record count and frame.
#[derive(Clone, Debug)]
struct Windowed {
    seq: u64,
    records: u64,
    frame: Vec<u8>,
}

/// What [`SendWindow::push`] did with a batch.
#[derive(Debug)]
pub struct Pushed<'a> {
    /// The sequence number assigned to the batch.
    pub seq: u64,
    /// The batch's encoded frame, ready to send.
    pub frame: &'a [u8],
    /// Records of the oldest batch pushed out of a full window to make
    /// room (lost to replay), if one was.
    pub evicted: Option<u64>,
}

impl SendWindow {
    /// New window retaining at most `capacity` unacked batches.
    pub fn new(capacity: usize) -> Self {
        SendWindow {
            next_seq: 1,
            unacked: VecDeque::with_capacity(capacity.min(1024)),
            unacked_records: 0,
            capacity: capacity.max(1),
        }
    }

    /// Sequence number the next pushed batch will get.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Unacked batches currently held.
    pub fn depth(&self) -> usize {
        self.unacked.len()
    }

    /// Total records across the unacked batches — the sender's in-flight
    /// count against a credit budget (protocol v3 flow control).
    pub fn unacked_records(&self) -> u64 {
        self.unacked_records
    }

    /// Assign the next sequence number to `records`, encode them once as
    /// `node`'s batch frame with that number, and retain the frame for
    /// replay. The returned [`Pushed`] borrows the retained frame for the
    /// first send.
    pub fn push(&mut self, node: NodeId, records: &[EventRecord]) -> Pushed<'_> {
        let seq = self.next_seq;
        self.next_seq += 1;
        let evicted = if self.unacked.len() >= self.capacity {
            self.unacked.pop_front().map(|old| {
                self.unacked_records -= old.records;
                old.records
            })
        } else {
            None
        };
        let n = records.len() as u64;
        self.unacked_records += n;
        self.unacked.push_back(Windowed {
            seq,
            records: n,
            frame: brisk_proto::encode_batch(node, Some(seq), records),
        });
        Pushed {
            seq,
            frame: &self.unacked.back().expect("batch pushed above").frame,
            evicted,
        }
    }

    /// Apply a cumulative ack: drop every batch with `seq <= acked`.
    /// Returns how many batches were released.
    pub fn ack(&mut self, acked: u64) -> usize {
        let before = self.unacked.len();
        while let Some(front) = self.unacked.front() {
            if front.seq > acked {
                break;
            }
            self.unacked_records -= front.records;
            self.unacked.pop_front();
        }
        before - self.unacked.len()
    }

    /// The unacked batches' `(seq, frame)` in sequence order, for replay
    /// after a reconnect: the very bytes of each batch's first send.
    pub fn iter_unacked(&self) -> impl Iterator<Item = (u64, &[u8])> {
        self.unacked.iter().map(|w| (w.seq, &w.frame[..]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use brisk_core::{EventTypeId, SensorId, Value};
    use std::time::Duration;

    fn rec(seq: u64) -> EventRecord {
        EventRecord::new(
            NodeId(1),
            SensorId(0),
            EventTypeId(1),
            seq,
            UtcMicros::from_micros(seq as i64),
            vec![Value::I32(0); 6],
        )
        .unwrap()
    }

    fn cfg(records: usize, bytes: usize, timeout_ms: u64) -> ExsConfig {
        ExsConfig {
            max_batch_records: records,
            max_batch_bytes: bytes,
            flush_timeout: Duration::from_millis(timeout_ms),
            ..ExsConfig::default()
        }
    }

    #[test]
    fn record_count_knob_trips() {
        let mut b = Batcher::new(cfg(3, 1 << 20, 40));
        let now = UtcMicros::ZERO;
        assert!(b.push(rec(0), now).is_none());
        assert!(b.push(rec(1), now).is_none());
        let (batch, reason) = b.push(rec(2), now).unwrap();
        assert_eq!(batch.len(), 3);
        assert_eq!(reason, FlushReason::Records);
        assert_eq!(b.pending_records(), 0);
        assert_eq!(b.batches_emitted(), 1);
        assert_eq!(b.records_emitted(), 3);
    }

    #[test]
    fn byte_knob_trips() {
        // Each six-i32 record is 56 XDR bytes; 100 bytes → 2 records.
        let mut b = Batcher::new(cfg(1000, 100, 40));
        let now = UtcMicros::ZERO;
        assert!(b.push(rec(0), now).is_none());
        let (batch, reason) = b.push(rec(1), now).unwrap();
        assert_eq!(reason, FlushReason::Bytes);
        assert_eq!(batch.len(), 2);
        assert_eq!(b.pending_bytes(), 0);
    }

    #[test]
    fn timeout_knob_trips_on_oldest_record() {
        let mut b = Batcher::new(cfg(1000, 1 << 20, 40));
        let t0 = UtcMicros::ZERO;
        b.push(rec(0), t0);
        // 30 ms later: not yet.
        assert!(b.poll_timeout(t0 + Duration::from_millis(30)).is_none());
        b.push(rec(1), t0 + Duration::from_millis(30));
        // 41 ms after the FIRST record: trips even though the second is young.
        let (batch, reason) = b.poll_timeout(t0 + Duration::from_millis(41)).unwrap();
        assert_eq!(reason, FlushReason::Timeout);
        assert_eq!(batch.len(), 2);
    }

    #[test]
    fn timeout_resets_after_flush() {
        let mut b = Batcher::new(cfg(1000, 1 << 20, 40));
        let t0 = UtcMicros::ZERO;
        b.push(rec(0), t0);
        b.poll_timeout(t0 + Duration::from_millis(50)).unwrap();
        // New record restarts the deadline.
        b.push(rec(1), t0 + Duration::from_millis(60));
        assert!(b.poll_timeout(t0 + Duration::from_millis(90)).is_none());
        assert!(b.poll_timeout(t0 + Duration::from_millis(100)).is_some());
    }

    #[test]
    fn empty_batcher_never_times_out() {
        let mut b = Batcher::new(cfg(10, 1 << 20, 40));
        assert!(b.poll_timeout(UtcMicros::from_secs(100)).is_none());
        assert!(b.time_to_deadline(UtcMicros::ZERO).is_none());
        assert!(b.flush().is_none());
    }

    #[test]
    fn time_to_deadline_counts_down() {
        let mut b = Batcher::new(cfg(10, 1 << 20, 40));
        let t0 = UtcMicros::ZERO;
        b.push(rec(0), t0);
        assert_eq!(b.time_to_deadline(t0), Some(40_000));
        assert_eq!(
            b.time_to_deadline(t0 + Duration::from_millis(15)),
            Some(25_000)
        );
        assert_eq!(
            b.time_to_deadline(t0 + Duration::from_millis(45)),
            Some(-5_000)
        );
    }

    #[test]
    fn forced_flush_emits_partial_batch() {
        let mut b = Batcher::new(cfg(10, 1 << 20, 40));
        b.push(rec(0), UtcMicros::ZERO);
        let (batch, reason) = b.flush().unwrap();
        assert_eq!(batch.len(), 1);
        assert_eq!(reason, FlushReason::Forced);
        assert!(b.flush().is_none());
    }

    #[test]
    fn send_window_acks_cumulatively() {
        let mut w = SendWindow::new(8);
        assert_eq!(w.next_seq(), 1);
        for i in 0..5u64 {
            let pushed = w.push(NodeId(1), &[rec(i)]);
            assert_eq!(pushed.seq, i + 1);
            assert!(pushed.evicted.is_none());
        }
        assert_eq!(w.depth(), 5);
        assert_eq!(w.unacked_records(), 5);
        assert_eq!(w.ack(3), 3);
        assert_eq!(w.depth(), 2);
        assert_eq!(w.unacked_records(), 2);
        let seqs: Vec<u64> = w.iter_unacked().map(|(s, _)| s).collect();
        assert_eq!(seqs, vec![4, 5]);
        // Re-acking is idempotent; acking past the end clears everything.
        assert_eq!(w.ack(3), 0);
        assert_eq!(w.ack(100), 2);
        assert_eq!(w.depth(), 0);
        assert_eq!(w.unacked_records(), 0);
        // Sequence numbers keep growing after acks.
        assert_eq!(w.push(NodeId(1), &[rec(9)]).seq, 6);
    }

    #[test]
    fn send_window_evicts_oldest_when_full() {
        let mut w = SendWindow::new(2);
        assert!(w.push(NodeId(1), &[rec(1)]).evicted.is_none());
        assert!(w.push(NodeId(1), &[rec(2), rec(3)]).evicted.is_none());
        let pushed = w.push(NodeId(1), &[rec(4)]);
        assert_eq!(pushed.seq, 3);
        assert_eq!(pushed.evicted, Some(1), "the one-record batch 1 fell out");
        assert_eq!(w.depth(), 2);
        assert_eq!(w.unacked_records(), 3);
        let seqs: Vec<u64> = w.iter_unacked().map(|(s, _)| s).collect();
        assert_eq!(seqs, vec![2, 3]);
    }

    #[test]
    fn send_window_replays_the_first_send_byte_for_byte() {
        use brisk_proto::Message;
        let mut w = SendWindow::new(8);
        let mut first_sends = Vec::new();
        for i in 0..4u64 {
            let batch: Vec<EventRecord> = (0..=i).map(|k| rec(10 * i + k)).collect();
            let pushed = w.push(NodeId(1), &batch);
            // The first send is the encoding of the sequenced batch.
            let expected = Message::EventBatch {
                node: NodeId(1),
                seq: Some(pushed.seq),
                records: batch,
            }
            .encode();
            assert_eq!(pushed.frame, &expected[..]);
            first_sends.push((pushed.seq, pushed.frame.to_vec()));
        }
        w.ack(1);
        // Replay after a reconnect resends exactly those bytes, in order.
        let replayed: Vec<(u64, Vec<u8>)> =
            w.iter_unacked().map(|(s, f)| (s, f.to_vec())).collect();
        assert_eq!(replayed, first_sends[1..]);
    }

    #[test]
    fn batches_preserve_order() {
        let mut b = Batcher::new(cfg(4, 1 << 20, 40));
        let mut emitted = Vec::new();
        for i in 0..10 {
            if let Some((batch, _)) = b.push(rec(i), UtcMicros::ZERO) {
                emitted.extend(batch);
            }
        }
        if let Some((batch, _)) = b.flush() {
            emitted.extend(batch);
        }
        let seqs: Vec<u64> = emitted.iter().map(|r| r.seq).collect();
        assert_eq!(seqs, (0..10).collect::<Vec<_>>());
    }
}
