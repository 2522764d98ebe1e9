//! Fuzz harness for the wire-message decoder: whatever bytes the network
//! delivers, `Message::decode` must return a typed error — never panic and
//! never allocate proportionally to an attacker-declared length. The
//! borrowing `BatchView` must accept, reject and materialize exactly what
//! the owned decode does.

use brisk_core::prelude::*;
use brisk_proto::{BatchView, Message, MAX_BATCH_RECORDS, UNLIMITED_CREDIT, VERSION};
use proptest::prelude::*;

fn record(node: u32, seq: u64) -> EventRecord {
    EventRecord::new(
        NodeId(node),
        SensorId(1),
        EventTypeId(7),
        seq,
        UtcMicros::from_micros(1_000_000 + seq as i64),
        vec![Value::I32(-5), Value::Str("x".into())],
    )
    .unwrap()
}

/// A pool of valid frames covering all nine messages — an EXS batch and a
/// relay batch with per-record node ids, zero and unlimited credit grants
/// — so the mutation tests start from realistic inputs rather than pure
/// noise.
fn valid_frames() -> Vec<Vec<u8>> {
    [
        Message::Hello {
            node: NodeId(3),
            version: VERSION,
        },
        Message::HelloAck { credit: 1024 },
        Message::HelloAck { credit: 0 },
        Message::HelloAck {
            credit: UNLIMITED_CREDIT,
        },
        Message::EventBatch {
            node: NodeId(3),
            seq: 9,
            records: vec![record(3, 42)],
        },
        Message::EventBatch {
            node: NodeId(2),
            seq: 10,
            records: vec![record(0x0502, 1), record(0x0902, 2)],
        },
        Message::BatchAck {
            seq: 9,
            credit: 512,
        },
        Message::BatchAck { seq: 9, credit: 0 },
        Message::BatchAck {
            seq: 9,
            credit: UNLIMITED_CREDIT,
        },
        Message::SyncPoll {
            round: 2,
            sample: 1,
            master_send: UtcMicros::from_micros(5),
        },
        Message::SyncReply {
            round: 2,
            sample: 1,
            master_send: UtcMicros::from_micros(5),
            slave_time: UtcMicros::from_micros(6),
        },
        Message::SyncAdjust {
            round: 2,
            advance_us: -30,
        },
        Message::Heartbeat,
        Message::Shutdown,
    ]
    .iter()
    .map(Message::encode)
    .collect()
}

/// A batch of 0–6 records: either every record from the header node (an
/// EXS batch) or records from several nodes (a relay batch).
fn arb_batch() -> impl Strategy<Value = (NodeId, u64, Vec<EventRecord>)> {
    (
        1u32..8,
        any::<u64>(),
        any::<bool>(),
        proptest::collection::vec((1u32..8, any::<u32>(), -1000i32..1000), 0..6),
    )
        .prop_map(|(header, seq, relay, recs)| {
            let records = recs
                .into_iter()
                .map(|(node, sensor_seq, payload)| {
                    let node = if relay { node } else { header };
                    EventRecord::new(
                        NodeId(node),
                        SensorId(sensor_seq % 4),
                        EventTypeId(1),
                        u64::from(sensor_seq),
                        UtcMicros::from_micros(i64::from(sensor_seq)),
                        vec![Value::I32(payload), Value::Str(format!("p{payload}"))],
                    )
                    .unwrap()
                })
                .collect();
            (NodeId(header), seq, records)
        })
}

proptest! {
    /// Pure noise: decode must return Ok or Err, never panic.
    #[test]
    fn decode_never_panics_on_garbage(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        let _ = Message::decode(&bytes);
    }

    /// Single-byte corruption of a valid frame — the fault plane's
    /// `Corrupt` fault — must decode to Ok (the flip landed somewhere
    /// harmless) or a typed Err, never panic.
    #[test]
    fn decode_survives_flipped_byte(
        which in any::<usize>(),
        pos in any::<usize>(),
        xor in 1..=255u8,
    ) {
        let frames = valid_frames();
        let mut frame = frames[which % frames.len()].clone();
        if !frame.is_empty() {
            let pos = pos % frame.len();
            frame[pos] ^= xor;
        }
        let _ = Message::decode(&frame);
    }

    /// Truncation at every possible point — the fault plane's `Truncate`
    /// fault — must yield a typed error, never panic.
    #[test]
    fn decode_survives_truncation(which in any::<usize>(), cut in any::<usize>()) {
        let frames = valid_frames();
        let frame = &frames[which % frames.len()];
        let cut = cut % (frame.len() + 1);
        let _ = Message::decode(&frame[..cut]);
    }

    /// The two batch decoders agree on every single-node and relay batch:
    /// the view materializes exactly the owned decode's records, and both
    /// accept or reject every truncation and every byte flip alike.
    #[test]
    fn batch_view_and_owned_decode_agree(
        batch in arb_batch(),
        flip_at in any::<usize>(),
        xor in 1..=255u8,
    ) {
        let (node, seq, records) = batch;
        let frame = Message::EventBatch { node, seq, records: records.clone() }.encode();
        let view = BatchView::parse(&frame).unwrap();
        prop_assert_eq!((view.node(), view.seq()), (node, seq));
        prop_assert_eq!(view.materialize().unwrap(), records.clone());
        prop_assert_eq!(
            Message::decode(&frame).unwrap(),
            Message::EventBatch { node, seq, records }
        );
        for cut in 0..frame.len() {
            prop_assert_eq!(
                Message::decode(&frame[..cut]).is_ok(),
                BatchView::parse(&frame[..cut]).is_ok(),
                "truncated at {}", cut
            );
        }
        let mut flipped = frame.clone();
        let at = flip_at % flipped.len();
        flipped[at] ^= xor;
        match (Message::decode(&flipped), BatchView::parse(&flipped)) {
            (Ok(Message::EventBatch { records, .. }), Ok(view)) => {
                prop_assert_eq!(view.materialize().unwrap(), records);
            }
            // A flipped tag can turn a batch into another valid message,
            // which the batch-only view refuses.
            (Ok(other), Err(_)) => prop_assert!(at < 4, "view refused {:?}", other),
            (Err(_), Err(_)) => {}
            (owned, view) => prop_assert!(false, "decode {:?} vs view {:?}", owned, view.is_ok()),
        }
    }
}

/// A batch header declaring `u32::MAX` records must be rejected from the
/// header alone — before any proportional allocation.
#[test]
fn declared_length_bomb_is_rejected_without_allocation() {
    // The smallest batch: tag, node, seq, per-record-node flag, then a
    // count far past MAX_BATCH_RECORDS with no body behind it.
    let valid = Message::EventBatch {
        node: NodeId(1),
        seq: 1,
        records: vec![],
    }
    .encode();
    let mut bomb = valid;
    let count_off = bomb.len() - 4; // trailing u32 record count
    bomb[count_off..].copy_from_slice(&u32::MAX.to_be_bytes());
    let err = Message::decode(&bomb).unwrap_err();
    assert!(
        err.to_string().contains(&MAX_BATCH_RECORDS.to_string()),
        "expected the record-count bound in the error, got: {err}"
    );
}
