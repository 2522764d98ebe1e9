//! Property-based durability tests: arbitrary record batches must survive
//! segment write → reopen → read bit-for-bit, and random payload
//! corruption must be confined to the record it hits.

use brisk_core::prelude::*;
use brisk_store::reader::StoreReader;
use brisk_store::segment::FRAME_OVERHEAD;
use brisk_store::writer::StoreWriter;
use proptest::prelude::*;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU32, Ordering};

static DIR_SEQ: AtomicU32 = AtomicU32::new(0);

fn temp_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "brisk-store-prop-{tag}-{}-{}",
        std::process::id(),
        DIR_SEQ.fetch_add(1, Ordering::Relaxed)
    ))
}

/// Strategy producing an arbitrary `Value` of any type (mirrors the
/// brisk-core round-trip suite).
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
        ".{0,40}".prop_map(Value::Str),
        proptest::collection::vec(any::<u8>(), 0..64).prop_map(Value::Bytes),
        any::<i64>().prop_map(|us| Value::Ts(UtcMicros::from_micros(us))),
        any::<u64>().prop_map(|id| Value::Reason(CorrelationId(id))),
        any::<u64>().prop_map(|id| Value::Conseq(CorrelationId(id))),
        (any::<i64>(), any::<u32>())
            .prop_map(|(p, l)| Value::Hlc(HlcStamp::new(UtcMicros::from_micros(p), l))),
    ]
}

fn arb_record() -> impl Strategy<Value = EventRecord> {
    (
        any::<u32>(),
        any::<u32>(),
        any::<u32>(),
        any::<u64>(),
        any::<i64>(),
        proptest::collection::vec(arb_value(), 0..=8),
    )
        .prop_map(|(node, sensor, ety, seq, ts, fields)| {
            EventRecord::new(
                NodeId(node),
                SensorId(sensor),
                EventTypeId(ety),
                seq,
                UtcMicros::from_micros(ts),
                fields,
            )
            .expect("<=8 fields by construction")
        })
}

/// NaN-tolerant record equality: the store must preserve bit patterns.
fn bitwise_eq(a: &EventRecord, b: &EventRecord) -> bool {
    if (a.node, a.sensor, a.event_type, a.seq, a.ts)
        != (b.node, b.sensor, b.event_type, b.seq, b.ts)
    {
        return false;
    }
    if a.fields.len() != b.fields.len() {
        return false;
    }
    a.fields.iter().zip(&b.fields).all(|(x, y)| match (x, y) {
        (Value::F32(p), Value::F32(q)) => p.to_bits() == q.to_bits(),
        (Value::F64(p), Value::F64(q)) => p.to_bits() == q.to_bits(),
        _ => x == y,
    })
}

fn small_store_cfg(dir: &Path) -> StoreConfig {
    let mut cfg = StoreConfig::at(dir.to_path_buf());
    // Small segments so batches regularly cross rotation boundaries.
    cfg.segment_bytes = 4096;
    cfg.fsync = FsyncPolicy::Never;
    cfg.index_every = 7;
    cfg
}

proptest! {
    /// write → drop (seal) → reopen → read returns exactly the input.
    #[test]
    fn store_round_trips_arbitrary_batches(
        recs in proptest::collection::vec(arb_record(), 1..60)
    ) {
        let dir = temp_dir("roundtrip");
        let cfg = small_store_cfg(&dir);
        {
            let mut w = StoreWriter::open(&cfg).unwrap();
            for r in &recs {
                w.append(r).unwrap();
            }
        }
        let (back, report) = StoreReader::open(&dir).unwrap().read_all().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
        prop_assert_eq!(report.corrupt_frames, 0);
        prop_assert_eq!(report.torn_tail_truncations, 0);
        prop_assert_eq!(back.len(), recs.len());
        for (x, y) in back.iter().zip(&recs) {
            prop_assert!(bitwise_eq(x, y));
        }
    }

    /// Flipping a byte inside one record's frame payload corrupts exactly
    /// that record: the reader reports one CRC error and recovers every
    /// other record intact.
    #[test]
    fn payload_corruption_is_confined(
        recs in proptest::collection::vec(arb_record(), 2..40),
        victim_frac in 0.0f64..1.0,
        byte_frac in 0.0f64..1.0,
        bit in 0u8..8,
    ) {
        let dir = temp_dir("corrupt");
        let mut cfg = small_store_cfg(&dir);
        // One segment: keep the victim arithmetic simple.
        cfg.segment_bytes = 64 << 20;
        {
            let mut w = StoreWriter::open(&cfg).unwrap();
            for r in &recs {
                w.append(r).unwrap();
            }
        }
        let ids = StoreReader::open(&dir).unwrap().segment_ids().unwrap();
        prop_assert_eq!(ids.len(), 1);
        let seg = brisk_store::segment::segment_path(&dir, ids[0]);
        let mut bytes = std::fs::read(&seg).unwrap();

        // Locate frame payloads with a clean decode of the segment image:
        // frames start after the XDR header; each is 8B of framing + payload.
        let (_, header_end) = brisk_store::segment::SegmentHeader::decode(&bytes).unwrap();
        let mut payload_spans = Vec::new();
        let mut off = header_end;
        while off + FRAME_OVERHEAD <= bytes.len() {
            let len = u32::from_le_bytes(bytes[off..off + 4].try_into().unwrap()) as usize;
            payload_spans.push((off + FRAME_OVERHEAD, len));
            off += FRAME_OVERHEAD + len;
        }
        prop_assert_eq!(payload_spans.len(), recs.len());
        let victim = ((victim_frac * recs.len() as f64) as usize).min(recs.len() - 1);
        let (pstart, plen) = payload_spans[victim];
        // Every payload has at least the 28-byte binenc header.
        let target = pstart + ((byte_frac * plen as f64) as usize).min(plen - 1);
        bytes[target] ^= 1 << bit;
        std::fs::write(&seg, &bytes).unwrap();
        // Invalidate the sidecar so the reader rescans the segment bytes.
        let _ = std::fs::remove_file(brisk_store::segment::index_path(&dir, ids[0]));

        let (back, report) = StoreReader::open(&dir).unwrap().read_all().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
        prop_assert_eq!(report.corrupt_frames, 1, "exactly the victim is reported");
        prop_assert_eq!(report.torn_tail_truncations, 0);
        prop_assert_eq!(back.len(), recs.len() - 1);
        let mut expect: Vec<&EventRecord> = recs.iter().collect();
        expect.remove(victim);
        for (x, y) in back.iter().zip(expect) {
            prop_assert!(bitwise_eq(x, y), "surviving records unchanged");
        }
    }

    /// Truncating the file at an arbitrary point inside the last frame is
    /// a torn tail: everything before it is recovered.
    #[test]
    fn torn_tail_recovers_prefix(
        recs in proptest::collection::vec(arb_record(), 2..40),
        cut_frac in 0.0f64..1.0,
    ) {
        let dir = temp_dir("torn");
        let mut cfg = small_store_cfg(&dir);
        cfg.segment_bytes = 64 << 20;
        {
            let mut w = StoreWriter::open(&cfg).unwrap();
            for r in &recs {
                w.append(r).unwrap();
            }
        }
        let ids = StoreReader::open(&dir).unwrap().segment_ids().unwrap();
        let seg = brisk_store::segment::segment_path(&dir, ids[0]);
        let bytes = std::fs::read(&seg).unwrap();
        // Find the last frame's start.
        let (_, header_end) = brisk_store::segment::SegmentHeader::decode(&bytes).unwrap();
        let mut off = header_end;
        let mut last_start = header_end;
        while off + FRAME_OVERHEAD <= bytes.len() {
            let len = u32::from_le_bytes(bytes[off..off + 4].try_into().unwrap()) as usize;
            last_start = off;
            off += FRAME_OVERHEAD + len;
        }
        // Cut strictly inside the last frame: keep at least 1 of its bytes
        // (so a tear exists) and drop at least 1 (so it is incomplete).
        let frame_len = bytes.len() - last_start;
        let keep = last_start + 1 + ((cut_frac * (frame_len - 2) as f64) as usize).min(frame_len - 2);
        std::fs::write(&seg, &bytes[..keep]).unwrap();
        let _ = std::fs::remove_file(brisk_store::segment::index_path(&dir, ids[0]));

        let (back, report) = StoreReader::open(&dir).unwrap().read_all().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
        prop_assert_eq!(report.torn_tail_truncations, 1);
        prop_assert_eq!(back.len(), recs.len() - 1, "all but the torn record");
        for (x, y) in back.iter().zip(&recs) {
            prop_assert!(bitwise_eq(x, y));
        }
    }
}

proptest! {
    /// Compacting a sealed store is invisible to readers: an arbitrary
    /// batch written across rotations, then rewritten by the compactor,
    /// reads back bit-for-bit identical to the original (NaN payloads
    /// included). Segments the compactor skips (already minimal, damaged,
    /// hot) must round-trip just the same.
    #[test]
    fn compacted_store_round_trips_bitwise(
        recs in proptest::collection::vec(arb_record(), 1..80)
    ) {
        let dir = temp_dir("compact-rt");
        let cfg = small_store_cfg(&dir); // 4 KiB segments: several per batch
        {
            let mut w = StoreWriter::open(&cfg).unwrap();
            for r in &recs {
                w.append(r).unwrap();
            }
        }
        let compactor = brisk_store::Compactor::new(
            &dir,
            brisk_store::CompactConfig {
                keep_hot: 0,
                ..Default::default()
            },
        );
        compactor.run_once().unwrap();
        let (back, report) = StoreReader::open(&dir).unwrap().read_all().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
        prop_assert_eq!(report.corrupt_frames, 0);
        prop_assert_eq!(back.len(), recs.len());
        for (x, y) in back.iter().zip(&recs) {
            prop_assert!(bitwise_eq(x, y), "compaction must preserve records");
        }
    }

    /// The pruning query engine must agree with a full scan + filter for
    /// every predicate: zone maps may only skip segments that provably
    /// hold no match.
    #[test]
    fn query_agrees_with_full_scan(
        recs in proptest::collection::vec(arb_record(), 1..60),
        from in any::<i64>(), has_from in any::<bool>(),
        to in any::<i64>(), has_to in any::<bool>(),
        nodes in proptest::collection::vec(any::<u32>(), 0..4), has_nodes in any::<bool>(),
        sensors in proptest::collection::vec(any::<u32>(), 0..4), has_sensors in any::<bool>(),
        pick_present in any::<bool>(),
    ) {
        let dir = temp_dir("query-eq");
        let cfg = small_store_cfg(&dir);
        {
            let mut w = StoreWriter::open(&cfg).unwrap();
            for r in &recs {
                w.append(r).unwrap();
            }
        }
        let mut pred = brisk_store::Predicate {
            from: has_from.then(|| UtcMicros::from_micros(from)),
            to: has_to.then(|| UtcMicros::from_micros(to)),
            nodes: has_nodes.then(|| nodes.iter().copied().collect()),
            sensors: has_sensors.then(|| sensors.iter().copied().collect()),
        };
        if pick_present {
            // Bias toward predicates that actually hit something.
            pred.nodes = Some([recs[0].node.0].into());
            pred.sensors = Some([recs[0].sensor.0].into());
        }
        let reader = StoreReader::open(&dir).unwrap();
        let (hit, _report) = reader.query(&pred).unwrap();
        let (all, _) = reader.read_all().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
        let expect: Vec<&EventRecord> = all.iter().filter(|r| pred.matches(r)).collect();
        prop_assert_eq!(hit.records.len(), expect.len());
        for (x, y) in hit.records.iter().zip(expect) {
            prop_assert!(bitwise_eq(x, y), "query must equal scan+filter");
        }
    }
}
