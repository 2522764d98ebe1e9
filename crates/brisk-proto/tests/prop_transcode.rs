//! The EXS's one-pass transcoder against the record path it replaced.
//!
//! The oracle decodes each native ring record into an `EventRecord`,
//! applies the EXS's steps through public record methods
//! (`apply_correction`, `stamp_trace(ExsScoop)`, `set_hlc`, then
//! `stamp_trace(BatchSend)` at send time) and encodes the batch with
//! `encode_batch`. [`BatchBuilder`] must write the very same frame from
//! the native bytes, report the same batcher byte figure per record, and
//! reject exactly the native bytes `binenc::decode_record` rejects.

use brisk_core::binenc;
use brisk_core::descriptor::MAX_FIELDS;
use brisk_core::prelude::*;
use brisk_proto::{encode_batch, set_batch_seq, BatchBuilder, Scoop};
use proptest::prelude::*;

const NODE: NodeId = NodeId(7);

fn arb_stamps() -> impl Strategy<Value = Vec<(TraceStage, UtcMicros)>> {
    proptest::collection::vec(
        (0u8..9, any::<i64>()).prop_map(|(code, us)| {
            (
                TraceStage::from_code(code).expect("codes 0..9 are stages"),
                UtcMicros::from_micros(us),
            )
        }),
        0..=MAX_TRACE_STAMPS,
    )
}

/// Any of the 18 value types.
fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        any::<i8>().prop_map(Value::I8),
        any::<u8>().prop_map(Value::U8),
        any::<i16>().prop_map(Value::I16),
        any::<u16>().prop_map(Value::U16),
        any::<i32>().prop_map(Value::I32),
        any::<u32>().prop_map(Value::U32),
        any::<i64>().prop_map(Value::I64),
        any::<u64>().prop_map(Value::U64),
        any::<f32>().prop_map(Value::F32),
        any::<f64>().prop_map(Value::F64),
        any::<bool>().prop_map(Value::Bool),
        ".{0,20}".prop_map(Value::Str),
        proptest::collection::vec(any::<u8>(), 0..24).prop_map(Value::Bytes),
        any::<i64>().prop_map(|us| Value::Ts(UtcMicros::from_micros(us))),
        any::<u64>().prop_map(|id| Value::Reason(CorrelationId(id))),
        any::<u64>().prop_map(|id| Value::Conseq(CorrelationId(id))),
        (any::<u64>(), arb_stamps()).prop_map(|(id, stamps)| Value::Trace(
            TraceContext::with_stamps(id, stamps).expect("at most MAX_TRACE_STAMPS")
        )),
        (any::<i64>(), any::<u32>())
            .prop_map(|(us, l)| Value::Hlc(HlcStamp::new(UtcMicros::from_micros(us), l))),
    ]
}

/// A native ring record; one in eight comes from another node.
fn arb_native() -> impl Strategy<Value = Vec<u8>> {
    (
        (0u32..8).prop_map(|n| if n == 0 { NodeId(99) } else { NODE }),
        (any::<u32>(), any::<u32>(), any::<u64>()),
        prop_oneof![any::<i64>(), -1_000_000i64..1_000_000],
        proptest::collection::vec(arb_value(), 0..=MAX_FIELDS),
    )
        .prop_map(|(node, (sensor, ety, seq), ts, fields)| {
            let rec = EventRecord::new(
                node,
                SensorId(sensor),
                EventTypeId(ety),
                seq,
                UtcMicros::from_micros(ts),
                fields,
            )
            .expect("at most MAX_FIELDS fields");
            let mut native = Vec::new();
            binenc::encode_record(&rec, &mut native);
            native
        })
}

fn arb_correction() -> impl Strategy<Value = i64> {
    prop_oneof![
        -5_000_000i64..5_000_000,
        any::<i64>(),
        (0u8..2).prop_map(|b| if b == 0 { i64::MIN } else { i64::MAX }),
    ]
}

/// The EXS's per-record inputs: correction, scoop time, HLC stamp.
fn scoop_for(i: usize, correction_us: i64, at: i64, stamp_hlc: bool) -> Scoop {
    let at = UtcMicros::from_micros(at);
    Scoop {
        correction_us,
        at,
        hlc: stamp_hlc.then(|| HlcStamp::new(at, i as u32)),
    }
}

/// The replaced path, record by record: its batcher byte figure, whether
/// `set_hlc` refused, and the records for the batch.
fn oracle(natives: &[Vec<u8>], scoops: &[Scoop]) -> (Vec<(usize, bool)>, Vec<EventRecord>) {
    let mut seen = Vec::new();
    let mut recs = Vec::new();
    for (native, scoop) in natives.iter().zip(scoops) {
        let (mut rec, _) = binenc::decode_record(native).expect("oracle input decodes");
        rec.apply_correction(scoop.correction_us);
        rec.stamp_trace(TraceStage::ExsScoop, scoop.at);
        let dropped = scoop.hlc.is_some_and(|h| !rec.set_hlc(h));
        seen.push((rec.xdr_payload_size(), dropped));
        recs.push(rec);
    }
    (seen, recs)
}

fn old_frame(mut recs: Vec<EventRecord>, send_at: UtcMicros, seq: u64) -> Vec<u8> {
    for rec in &mut recs {
        rec.stamp_trace(TraceStage::BatchSend, send_at);
    }
    encode_batch(NODE, seq, &recs)
}

proptest! {
    /// Byte-identical frames and batcher figures across every value type,
    /// traced records of any stamp count, HLC stamping on and off, full
    /// records and corrections of either sign.
    #[test]
    fn builder_writes_the_frame_the_record_path_wrote(
        natives in proptest::collection::vec(arb_native(), 1..6),
        correction_us in arb_correction(),
        at in any::<i64>(),
        send_after in 0i64..1_000,
        stamp_hlc in any::<bool>(),
        seq in any::<u64>(),
    ) {
        let scoops: Vec<Scoop> = (0..natives.len())
            .map(|i| scoop_for(i, correction_us, at, stamp_hlc))
            .collect();
        let send_at = UtcMicros::from_micros(at).offset(send_after);
        let (seen, recs) = oracle(&natives, &scoops);
        let mut b = BatchBuilder::new(NODE);
        for ((native, scoop), &(size, dropped)) in natives.iter().zip(&scoops).zip(&seen) {
            let t = b.push_native(native, scoop).expect("valid native record");
            prop_assert_eq!(t.used, native.len());
            prop_assert_eq!(t.payload_size, size);
            prop_assert_eq!(t.hlc_dropped, dropped);
        }
        prop_assert_eq!(b.len(), natives.len());
        let mut frame = b.finish(send_at);
        set_batch_seq(&mut frame, seq);
        prop_assert_eq!(frame, old_frame(recs, send_at, seq));
        // The builder starts over empty, in the single-node form.
        prop_assert!(b.is_empty());
        prop_assert_eq!(b.finish(send_at), encode_batch(NODE, 0, &[]));
    }

    /// Rejection matches `decode_record` at every truncation, and after
    /// any one-byte corruption the two agree on accepting, on the bytes
    /// consumed and on the output. A rejected record leaves the batch as
    /// it was.
    #[test]
    fn builder_rejects_what_decode_rejects(
        native in arb_native(),
        pos in any::<u64>(),
        byte in any::<u8>(),
        correction_us in arb_correction(),
        stamp_hlc in any::<bool>(),
    ) {
        let scoop = scoop_for(0, correction_us, 1_000, stamp_hlc);
        let mut b = BatchBuilder::new(NODE);
        let empty = BatchBuilder::new(NODE).finish(UtcMicros::ZERO);
        for cut in 0..native.len() {
            prop_assert!(binenc::decode_record(&native[..cut]).is_err());
            prop_assert!(b.push_native(&native[..cut], &scoop).is_err(), "cut {cut}");
        }
        let mut bad = native.clone();
        let at = (pos % bad.len() as u64) as usize;
        bad[at] = byte;
        match binenc::decode_record(&bad) {
            Err(_) => prop_assert!(b.push_native(&bad, &scoop).is_err()),
            Ok((_, used)) => {
                let t = b.push_native(&bad, &scoop).expect("decodable record");
                prop_assert_eq!(t.used, used);
                let (_, recs) = oracle(&[bad[..used].to_vec()], &[scoop]);
                let mut frame = b.finish(UtcMicros::ZERO);
                set_batch_seq(&mut frame, 0);
                prop_assert_eq!(frame, old_frame(recs, UtcMicros::ZERO, 0));
                return Ok(());
            }
        }
        prop_assert!(b.is_empty());
        prop_assert_eq!(b.finish(UtcMicros::ZERO), empty);
    }
}

/// Encode one record with `fields` in the native form.
fn native_of(fields: Vec<Value>) -> Vec<u8> {
    let rec = EventRecord::new(
        NODE,
        SensorId(1),
        EventTypeId(2),
        3,
        UtcMicros::ZERO,
        fields,
    )
    .expect("valid record");
    let mut native = Vec::new();
    binenc::encode_record(&rec, &mut native);
    native
}

fn both_reject(native: &[u8]) {
    assert!(binenc::decode_record(native).is_err());
    let scoop = scoop_for(0, 0, 0, true);
    assert!(BatchBuilder::new(NODE).push_native(native, &scoop).is_err());
}

#[test]
fn bad_bool_utf8_type_code_and_trace_fields_are_rejected() {
    let mut native = native_of(vec![Value::Bool(true)]);
    *native.last_mut().expect("bool byte") = 2;
    both_reject(&native);

    let mut native = native_of(vec![Value::Str("ab".into())]);
    let n = native.len();
    native[n - 2..].copy_from_slice(&[0xfe, 0xff]);
    both_reject(&native);

    // Wide descriptor naming code 18, one past X_HLC.
    let mut native = native_of(vec![Value::Hlc(HlcStamp::ZERO)]);
    assert_eq!(native[binenc::HEADER_SIZE..][..2], [0x81, 17]);
    native[binenc::HEADER_SIZE + 1] = 18;
    both_reject(&native);

    let traced = native_of(vec![Value::Trace(TraceContext::origin(5, UtcMicros::ZERO))]);
    let count_at = binenc::HEADER_SIZE + 2 + 8;
    let mut native = traced.clone();
    native[count_at] = MAX_TRACE_STAMPS as u8 + 1;
    both_reject(&native);
    let mut native = traced;
    native[count_at + 1] = 9; // no such stage
    both_reject(&native);
}

#[test]
fn trailing_bytes_are_left_unread_like_decode() {
    let mut native = native_of(vec![Value::I32(1)]);
    let len = native.len();
    native.extend_from_slice(&[0xaa, 0xbb]);
    let (_, used) = binenc::decode_record(&native).expect("decodes");
    let scoop = scoop_for(0, 0, 0, false);
    let t = BatchBuilder::new(NODE)
        .push_native(&native, &scoop)
        .expect("transcodes");
    assert_eq!((t.used, used), (len, len));
}
