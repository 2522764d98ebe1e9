//! Property tests for relay node-id namespacing: prefix rewrites of node
//! ids and CRE reason/conseq correlation links must round-trip through
//! the wire encode/decode path, and must compose across two relay tiers
//! exactly like nested shifts — no aliasing, no cross-prefix confusion.

use brisk_core::prelude::*;
use brisk_proto::{Message, NodePrefix};
use proptest::prelude::*;

/// A record whose ids stay within two tiers of rewrite headroom
/// (node < 2^16, correlation < 2^48), with optional reason/conseq links.
fn arb_record() -> impl Strategy<Value = EventRecord> {
    (
        (1u32..(1 << 16), 0u32..256, 1u32..64, 0u64..(1u64 << 32)),
        0i64..1_000_000_000,
        (any::<bool>(), 0u64..(1u64 << 48)),
        (any::<bool>(), 0u64..(1u64 << 48)),
        -1000i32..1000,
    )
        .prop_map(
            |(
                (node, sensor, ety, seq),
                ts,
                (has_reason, reason),
                (has_conseq, conseq),
                payload,
            )| {
                let mut fields = vec![Value::I32(payload)];
                if has_reason {
                    fields.push(Value::Reason(CorrelationId(reason)));
                }
                if has_conseq {
                    fields.push(Value::Conseq(CorrelationId(conseq)));
                }
                EventRecord::new(
                    NodeId(node),
                    SensorId(sensor),
                    EventTypeId(ety),
                    seq,
                    UtcMicros::from_micros(ts),
                    fields,
                )
                .unwrap()
            },
        )
}

fn arb_prefix() -> impl Strategy<Value = NodePrefix> {
    (1u32..256).prop_map(|p| NodePrefix::new(p).unwrap())
}

fn encode_decode(records: Vec<EventRecord>, seq: u64) -> Vec<EventRecord> {
    let node = records.first().map(|r| r.node).unwrap_or(NodeId(1));
    let frame = Message::EventBatch { node, seq, records }.encode();
    match Message::decode(&frame).expect("rewritten batch must stay decodable") {
        Message::EventBatch { records, .. } => records,
        other => panic!("decoded to {other:?}"),
    }
}

proptest! {
    /// One tier: rewrite → encode → decode → strip restores the record
    /// bit-for-bit, and a foreign prefix refuses to strip it.
    #[test]
    fn rewrite_round_trips_through_the_wire(
        rec in arb_record(),
        prefix in arb_prefix(),
        other in arb_prefix(),
    ) {
        let original = rec.clone();
        let mut rewritten = rec;
        prefix.rewrite_record(&mut rewritten).unwrap();

        // Node and correlation ids all carry the prefix in their low byte.
        prop_assert_eq!(rewritten.node.raw() & 0xFF, prefix.raw());
        if let Some(id) = rewritten.reason_id() {
            prop_assert_eq!(id.raw() & 0xFF, prefix.raw() as u64);
        }
        if let Some(id) = rewritten.conseq_id() {
            prop_assert_eq!(id.raw() & 0xFF, prefix.raw() as u64);
        }

        let mut back = encode_decode(vec![rewritten], 1).pop().unwrap();
        if other != prefix {
            let mut probe = back.clone();
            prop_assert!(other.strip_record(&mut probe).is_none());
        }
        prop_assert!(prefix.strip_record(&mut back).is_some());
        prop_assert_eq!(back, original);
    }

    /// Two tiers compose: inner then outer rewrite equals a 16-bit shift
    /// with both prefixes packed, survives the wire, and strips back in
    /// outer-first order. A wrong-order strip fails instead of aliasing.
    #[test]
    fn two_tiers_compose_across_the_wire(
        rec in arb_record(),
        inner in arb_prefix(),
        outer in arb_prefix(),
    ) {
        let original = rec.clone();
        let mut r = rec;
        inner.rewrite_record(&mut r).unwrap();
        let after_inner = r.clone();
        outer.rewrite_record(&mut r).unwrap();

        // Packed-shift shape on the node id.
        let expected = (original.node.raw() << 16)
            | (inner.raw() << 8)
            | outer.raw();
        prop_assert_eq!(r.node.raw(), expected);

        let mut back = encode_decode(vec![r], 7).pop().unwrap();

        // Wrong order: inner cannot strip the outer tier unless the two
        // prefixes happen to be equal.
        if inner != outer {
            let mut probe = back.clone();
            prop_assert!(inner.strip_record(&mut probe).is_none());
        }

        prop_assert!(outer.strip_record(&mut back).is_some());
        prop_assert_eq!(&back, &after_inner);
        prop_assert!(inner.strip_record(&mut back).is_some());
        prop_assert_eq!(back, original);
    }

    /// A relay's merged batch mixes records from several downstream
    /// nodes under one header (the relay's own upstream identity). The
    /// encoder must give each record its own node id, the decoder must
    /// restore every per-record node, and stripping must recover each
    /// original record — nothing may collapse to the header node.
    #[test]
    fn multi_node_relay_batches_round_trip(
        recs in proptest::collection::vec(arb_record(), 1..5),
        prefix in arb_prefix(),
    ) {
        let originals = recs.clone();
        let mut rewritten = recs;
        for r in &mut rewritten {
            prefix.rewrite_record(r).unwrap();
        }
        let mixed = rewritten.iter().any(|r| r.node != prefix.relay_node());

        let frame = Message::EventBatch {
            node: prefix.relay_node(),
            seq: 3,
            records: rewritten.clone(),
        }
        .encode();
        // The header's per-record-node flag (the word after tag, node and
        // seq) is set exactly when the records mix nodes.
        prop_assert_eq!(&frame[16..20], &[0, 0, 0, u8::from(mixed)]);
        let decoded = match Message::decode(&frame).expect("relay batch must decode") {
            Message::EventBatch { node, seq, records } => {
                prop_assert_eq!(node, prefix.relay_node());
                prop_assert_eq!(seq, 3);
                records
            }
            other => panic!("decoded to {other:?}"),
        };
        prop_assert_eq!(&decoded, &rewritten);
        for (mut back, original) in decoded.into_iter().zip(originals) {
            prop_assert!(prefix.strip_record(&mut back).is_some());
            prop_assert_eq!(back, original);
        }
    }

    /// Distinct downstream node ids never collide after rewrite, even
    /// across distinct prefixes (injectivity is what makes the root's
    /// namespace flat and collision-free).
    #[test]
    fn rewrite_is_injective(
        a in 1u32..(1 << 16),
        b in 1u32..(1 << 16),
        pa in arb_prefix(),
        pb in arb_prefix(),
    ) {
        let ra = pa.apply_node(NodeId(a)).unwrap();
        let rb = pb.apply_node(NodeId(b)).unwrap();
        if a != b || pa != pb {
            prop_assert_ne!(ra, rb);
        } else {
            prop_assert_eq!(ra, rb);
        }
    }
}
