//! `X_HLC` wire coverage: the hybrid-logical-clock stamp must survive
//! both batch forms (single-node, and relay-tier with per-record node ids)
//! and the relay namespace rewrite, or causal ordering
//! silently degrades to the physical-timestamp heuristic downstream.

use brisk_core::prelude::*;
use brisk_proto::{Message, NodePrefix};

fn stamped_record(node: u32, seq: u64, physical: i64, logical: u32) -> EventRecord {
    EventRecord::builder(EventTypeId(7))
        .field(Value::I32(-5))
        .reason(CorrelationId(42))
        .hlc(HlcStamp::new(UtcMicros::from_micros(physical), logical))
        .build(
            NodeId(node),
            SensorId(1),
            seq,
            UtcMicros::from_micros(physical - 3),
        )
        .unwrap()
}

fn round_trip(msg: &Message) -> Message {
    Message::decode(&msg.encode()).expect("self-encoded frame decodes")
}

#[test]
fn hlc_survives_single_node_batch() {
    let msg = Message::EventBatch {
        node: NodeId(3),
        seq: 9,
        records: vec![
            stamped_record(3, 1, 2_000_000, 0),
            stamped_record(3, 2, 2_000_000, 1),
        ],
    };
    match round_trip(&msg) {
        Message::EventBatch { seq, records, .. } => {
            assert_eq!(seq, 9);
            let stamps: Vec<_> = records.iter().map(|r| r.hlc().unwrap()).collect();
            assert_eq!(stamps[0].logical, 0);
            assert_eq!(stamps[1].logical, 1);
            assert!(stamps[0] < stamps[1], "stamp order survives the wire");
        }
        other => panic!("expected batch, got {other:?}"),
    }
}

#[test]
fn hlc_survives_relay_multi_node_batch() {
    // Mixed-origin records force per-record node ids (the relay batch).
    let msg = Message::EventBatch {
        node: NodeId(1),
        seq: 4,
        records: vec![
            stamped_record(17, 1, 2_000_000, 2),
            stamped_record(33, 1, 2_000_500, 0),
        ],
    };
    match round_trip(&msg) {
        Message::EventBatch { records, .. } => {
            assert_eq!(records[0].node, NodeId(17));
            assert_eq!(
                records[0].hlc(),
                Some(HlcStamp::new(UtcMicros::from_micros(2_000_000), 2))
            );
            assert_eq!(
                records[1].hlc(),
                Some(HlcStamp::new(UtcMicros::from_micros(2_000_500), 0))
            );
        }
        other => panic!("expected batch, got {other:?}"),
    }
}

#[test]
fn namespace_rewrite_passes_hlc_untouched() {
    let prefix = NodePrefix::new(5).unwrap();
    let mut rec = stamped_record(3, 1, 2_000_000, 7);
    let before = rec.hlc().unwrap();
    prefix.rewrite_record(&mut rec).unwrap();
    // Node and correlation ids moved into the prefixed namespace; the
    // causal stamp must not.
    assert_ne!(rec.node, NodeId(3));
    assert_ne!(rec.reason_id(), Some(CorrelationId(42)));
    assert_eq!(rec.hlc(), Some(before));
    // And the stamp also survives stripping back out.
    prefix.strip_record(&mut rec).unwrap();
    assert_eq!(rec.node, NodeId(3));
    assert_eq!(rec.hlc(), Some(before));
}

#[test]
fn rewritten_stamped_record_round_trips_the_wire() {
    // The full relay path: stamp, rewrite into the relay namespace, ship
    // in a relay batch, decode at the root — stamp intact.
    let prefix = NodePrefix::new(2).unwrap();
    let mut rec = stamped_record(3, 1, 2_000_000, 1);
    prefix.rewrite_record(&mut rec).unwrap();
    let other = stamped_record(200, 1, 2_000_100, 0);
    let msg = Message::EventBatch {
        node: prefix.relay_node(),
        seq: 1,
        records: vec![rec.clone(), other],
    };
    match round_trip(&msg) {
        Message::EventBatch { records, .. } => {
            assert_eq!(records[0], rec);
            assert_eq!(
                records[0].hlc(),
                Some(HlcStamp::new(UtcMicros::from_micros(2_000_000), 1))
            );
        }
        other => panic!("expected batch, got {other:?}"),
    }
}
