//! Event records — the instrumentation data unit.
//!
//! An [`EventRecord`] corresponds to one execution of a `NOTICE` macro in an
//! instrumented application: a small header (origin, event type, sequence
//! number, timestamp) plus up to eight dynamically-typed fields
//! ([`crate::descriptor::MAX_FIELDS`]).
//!
//! The header timestamp is the *raw local time* sampled when the sensor
//! fires; the external sensor later adds its clock-sync *correction value*
//! ([`EventRecord::apply_correction`]) "before sending the record to the
//! ISM" (§3.2). `X_TS` fields embedded in the payload are corrected the same
//! way, so all timestamps a consumer sees are in synchronized EXS time.

use crate::descriptor::{PackedDescriptor, RecordDescriptor, MAX_FIELDS};
use crate::error::{BriskError, Result};
use crate::hlc::HlcStamp;
use crate::ids::{CorrelationId, EventTypeId, NodeId, SensorId};
use crate::time::UtcMicros;
use crate::trace::{TraceContext, TraceStage};
use crate::value::Value;
use std::fmt;

/// One instrumentation data record.
#[derive(Clone, PartialEq, Debug)]
pub struct EventRecord {
    /// The node (LIS) the record originated from.
    pub node: NodeId,
    /// The internal sensor within the node.
    pub sensor: SensorId,
    /// Application-defined event type.
    pub event_type: EventTypeId,
    /// Per-sensor monotonically increasing sequence number. Gives the ISM a
    /// stable tiebreaker for equal timestamps and lets consumers detect
    /// records dropped by a full ring buffer.
    pub seq: u64,
    /// Record timestamp: raw local time at sensor firing, shifted into
    /// synchronized time by the EXS.
    pub ts: UtcMicros,
    /// Dynamically-typed payload fields.
    pub fields: Vec<Value>,
}

impl EventRecord {
    /// Create a record, validating the field-count limit.
    pub fn new(
        node: NodeId,
        sensor: SensorId,
        event_type: EventTypeId,
        seq: u64,
        ts: UtcMicros,
        fields: Vec<Value>,
    ) -> Result<Self> {
        if fields.len() > MAX_FIELDS {
            return Err(BriskError::Malformed(format!(
                "{} fields exceeds the {MAX_FIELDS}-field limit",
                fields.len()
            )));
        }
        Ok(EventRecord {
            node,
            sensor,
            event_type,
            seq,
            ts,
            fields,
        })
    }

    /// Start building a record for the given event type.
    pub fn builder(event_type: EventTypeId) -> RecordBuilder {
        RecordBuilder {
            event_type,
            fields: Vec::new(),
        }
    }

    /// The record's shape.
    pub fn descriptor(&self) -> RecordDescriptor {
        RecordDescriptor::of(&self.fields).expect("field count validated at construction")
    }

    /// The record's shape in packed form (the bytes
    /// `self.descriptor().pack()` returns), built without allocating —
    /// what the encoders embed in every record.
    pub fn packed_descriptor(&self) -> PackedDescriptor {
        PackedDescriptor::from_codes(self.fields.iter().map(|f| f.value_type().code()))
    }

    /// Correlation id of the first `X_REASON` field, if any.
    pub fn reason_id(&self) -> Option<CorrelationId> {
        self.fields.iter().find_map(|f| match f {
            Value::Reason(id) => Some(*id),
            _ => None,
        })
    }

    /// Correlation id of the first `X_CONSEQ` field, if any.
    pub fn conseq_id(&self) -> Option<CorrelationId> {
        self.fields.iter().find_map(|f| match f {
            Value::Conseq(id) => Some(*id),
            _ => None,
        })
    }

    /// True if this record carries any causal marker.
    pub fn is_causally_marked(&self) -> bool {
        self.reason_id().is_some() || self.conseq_id().is_some()
    }

    /// Shift the header timestamp, every embedded `X_TS` field and every
    /// `X_TRACE` stamp by the EXS's correction value (§3.2). Trace stamps
    /// recorded before this point are raw local time; the EXS calls this
    /// exactly once, at scoop time, so stamps added afterwards are already
    /// in synchronized time.
    pub fn apply_correction(&mut self, delta_us: i64) {
        self.ts = self.ts.offset(delta_us);
        for f in &mut self.fields {
            match f {
                Value::Ts(t) => *t = t.offset(delta_us),
                Value::Trace(ctx) => ctx.shift(delta_us),
                Value::Hlc(s) => s.shift(delta_us),
                _ => {}
            }
        }
    }

    /// The record's trace context, if it was sampled for self-tracing.
    pub fn trace(&self) -> Option<&TraceContext> {
        self.fields.iter().find_map(Value::as_trace)
    }

    /// Mutable view of the trace context, if any.
    pub fn trace_mut(&mut self) -> Option<&mut TraceContext> {
        self.fields.iter_mut().find_map(|f| match f {
            Value::Trace(ctx) => Some(ctx),
            _ => None,
        })
    }

    /// Stamp the trace context with a stage timestamp; a no-op for the
    /// (vast majority of) unsampled records, so every pipeline hop can
    /// call this unconditionally.
    #[inline]
    pub fn stamp_trace(&mut self, stage: TraceStage, ts: UtcMicros) {
        if let Some(ctx) = self.trace_mut() {
            ctx.stamp(stage, ts);
        }
    }

    /// The record's hybrid logical clock stamp (`X_HLC`), if present.
    pub fn hlc(&self) -> Option<HlcStamp> {
        self.fields.iter().find_map(Value::as_hlc)
    }

    /// Attach or replace the record's `X_HLC` stamp. When the record is
    /// already at the field limit and carries no HLC, the stamp is dropped
    /// (better an un-stamped record than a lost one) and `false` returned.
    pub fn set_hlc(&mut self, stamp: HlcStamp) -> bool {
        for f in &mut self.fields {
            if let Value::Hlc(s) = f {
                *s = stamp;
                return true;
            }
        }
        if self.fields.len() >= MAX_FIELDS {
            return false;
        }
        self.fields.push(Value::Hlc(stamp));
        true
    }

    /// Force the header timestamp to `ts` — used by the ISM's CRE handling
    /// to override "incorrect time-stamps" of tachyonic consequence events
    /// (§3.6).
    pub fn override_ts(&mut self, ts: UtcMicros) {
        self.ts = ts;
    }

    /// Size of the record in the native binary encoding (header + payload).
    pub fn native_size(&self) -> usize {
        crate::binenc::record_size(self)
    }

    /// Approximate size in the XDR transfer encoding, matching the paper's
    /// "40 bytes" figure for a six-integer record up to our slightly richer
    /// header. Header timestamp (8) + packed descriptor, then 4-byte-aligned
    /// field payloads.
    pub fn xdr_payload_size(&self) -> usize {
        let fields: usize = self.fields.iter().map(Value::xdr_size).sum();
        let meta = self.packed_descriptor().len();
        // event_type + sensor + seq + ts, each XDR-encoded in the batch body.
        4 + 4 + 8 + 8 + ((meta + 3) & !3) + fields
    }

    /// The key the on-line sorter orders by: timestamp, then origin and
    /// sequence number as stable tiebreakers.
    pub fn sort_key(&self) -> (UtcMicros, u32, u32, u64) {
        (self.ts, self.node.raw(), self.sensor.raw(), self.seq)
    }

    /// The key the sorter orders by in causal mode: the `X_HLC` stamp
    /// (a record without one is ordered as an HLC with logical 0 at its
    /// physical timestamp), then origin and sequence as tiebreakers.
    pub fn causal_sort_key(&self) -> (HlcStamp, u32, u32, u64) {
        let h = self.hlc().unwrap_or(HlcStamp::new(self.ts, 0));
        (h, self.node.raw(), self.sensor.raw(), self.seq)
    }
}

impl fmt::Display for EventRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{} n{} s{} #{} ev{}](",
            self.ts, self.node, self.sensor, self.seq, self.event_type
        )?;
        for (i, v) in self.fields.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, ")")
    }
}

/// Fluent builder returned by [`EventRecord::builder`].
#[derive(Clone, Debug)]
pub struct RecordBuilder {
    event_type: EventTypeId,
    fields: Vec<Value>,
}

impl RecordBuilder {
    /// Append one field.
    pub fn field(mut self, v: impl Into<Value>) -> Self {
        self.fields.push(v.into());
        self
    }

    /// Append an `X_REASON` marker.
    pub fn reason(self, id: CorrelationId) -> Self {
        self.field(Value::Reason(id))
    }

    /// Append an `X_CONSEQ` marker.
    pub fn conseq(self, id: CorrelationId) -> Self {
        self.field(Value::Conseq(id))
    }

    /// Append an embedded `X_TS` timestamp.
    pub fn embed_ts(self, ts: UtcMicros) -> Self {
        self.field(Value::Ts(ts))
    }

    /// Append an `X_HLC` hybrid logical clock stamp.
    pub fn hlc(self, stamp: HlcStamp) -> Self {
        self.field(Value::Hlc(stamp))
    }

    /// Finalize with origin, sequence number and timestamp.
    pub fn build(
        self,
        node: NodeId,
        sensor: SensorId,
        seq: u64,
        ts: UtcMicros,
    ) -> Result<EventRecord> {
        EventRecord::new(node, sensor, self.event_type, seq, ts, self.fields)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::ValueType;

    fn rec(ts_us: i64, fields: Vec<Value>) -> EventRecord {
        EventRecord::new(
            NodeId(1),
            SensorId(2),
            EventTypeId(3),
            7,
            UtcMicros::from_micros(ts_us),
            fields,
        )
        .unwrap()
    }

    #[test]
    fn packed_descriptor_matches_the_allocating_pack() {
        let stamp = HlcStamp::new(UtcMicros::from_micros(5), 1);
        for fields in [
            vec![],
            vec![Value::I32(1)],
            vec![Value::I32(1), Value::Str("x".into()), Value::F64(0.5)],
            vec![Value::U8(1); MAX_FIELDS],
            vec![Value::I64(2), Value::Hlc(stamp)],
            vec![Value::Hlc(stamp); MAX_FIELDS],
        ] {
            let r = rec(0, fields);
            let packed = r.packed_descriptor();
            assert_eq!(packed.as_bytes(), &r.descriptor().pack()[..]);
            assert_eq!(packed.len(), r.descriptor().packed_size());
            let (back, used) = RecordDescriptor::unpack(packed.as_bytes()).unwrap();
            assert_eq!((back, used), (r.descriptor(), packed.len()));
        }
    }

    #[test]
    fn new_enforces_field_limit() {
        assert!(EventRecord::new(
            NodeId(0),
            SensorId(0),
            EventTypeId(0),
            0,
            UtcMicros::ZERO,
            vec![Value::I32(0); 9],
        )
        .is_err());
        assert!(rec(0, vec![Value::I32(0); 8]).fields.len() == 8);
    }

    #[test]
    fn builder_produces_equivalent_record() {
        let r = EventRecord::builder(EventTypeId(3))
            .field(1i32)
            .field("msg")
            .reason(CorrelationId(9))
            .build(NodeId(1), SensorId(2), 7, UtcMicros::from_micros(5))
            .unwrap();
        assert_eq!(r.node, NodeId(1));
        assert_eq!(r.event_type, EventTypeId(3));
        assert_eq!(r.seq, 7);
        assert_eq!(r.fields.len(), 3);
        assert_eq!(r.reason_id(), Some(CorrelationId(9)));
        assert_eq!(r.conseq_id(), None);
    }

    #[test]
    fn descriptor_reflects_fields() {
        let r = rec(0, vec![Value::I32(1), Value::Str("a".into())]);
        assert_eq!(r.descriptor().types(), &[ValueType::I32, ValueType::Str]);
    }

    #[test]
    fn causal_marker_detection() {
        assert!(!rec(0, vec![Value::I32(1)]).is_causally_marked());
        assert!(rec(0, vec![Value::Reason(CorrelationId(1))]).is_causally_marked());
        assert!(rec(0, vec![Value::Conseq(CorrelationId(1))]).is_causally_marked());
        let both = rec(
            0,
            vec![
                Value::Reason(CorrelationId(1)),
                Value::Conseq(CorrelationId(2)),
            ],
        );
        assert_eq!(both.reason_id(), Some(CorrelationId(1)));
        assert_eq!(both.conseq_id(), Some(CorrelationId(2)));
    }

    #[test]
    fn trace_stamping_and_correction() {
        let mut r = rec(
            100,
            vec![
                Value::I32(5),
                Value::Trace(TraceContext::origin(9, UtcMicros::from_micros(100))),
            ],
        );
        assert_eq!(r.trace().unwrap().trace_id, 9);
        // Correction shifts existing stamps (raw → synchronized time).
        r.apply_correction(-30);
        assert_eq!(
            r.trace().unwrap().stamp_at(TraceStage::Notice),
            Some(UtcMicros::from_micros(70))
        );
        // Stamps added after correction are taken as-is.
        r.stamp_trace(TraceStage::ExsScoop, UtcMicros::from_micros(80));
        assert_eq!(
            r.trace().unwrap().stamp_at(TraceStage::ExsScoop),
            Some(UtcMicros::from_micros(80))
        );
        // Untraced records ignore stamping.
        let mut plain = rec(0, vec![Value::I32(1)]);
        plain.stamp_trace(TraceStage::Deliver, UtcMicros::ZERO);
        assert!(plain.trace().is_none());
    }

    #[test]
    fn correction_shifts_header_and_embedded_ts() {
        let mut r = rec(
            100,
            vec![
                Value::Ts(UtcMicros::from_micros(90)),
                Value::I32(5),
                Value::Ts(UtcMicros::from_micros(95)),
            ],
        );
        r.apply_correction(-30);
        assert_eq!(r.ts, UtcMicros::from_micros(70));
        assert_eq!(r.fields[0], Value::Ts(UtcMicros::from_micros(60)));
        assert_eq!(r.fields[1], Value::I32(5));
        assert_eq!(r.fields[2], Value::Ts(UtcMicros::from_micros(65)));
    }

    #[test]
    fn override_ts_only_touches_header() {
        let mut r = rec(100, vec![Value::Ts(UtcMicros::from_micros(90))]);
        r.override_ts(UtcMicros::from_micros(500));
        assert_eq!(r.ts, UtcMicros::from_micros(500));
        assert_eq!(r.fields[0], Value::Ts(UtcMicros::from_micros(90)));
    }

    #[test]
    fn hlc_accessors_and_correction() {
        let mut r = rec(100, vec![Value::I32(1)]);
        assert_eq!(r.hlc(), None);
        assert!(r.set_hlc(HlcStamp::new(UtcMicros::from_micros(90), 3)));
        assert_eq!(r.hlc(), Some(HlcStamp::new(UtcMicros::from_micros(90), 3)));
        // Replacing updates in place, never grows the field list.
        let n = r.fields.len();
        assert!(r.set_hlc(HlcStamp::new(UtcMicros::from_micros(95), 0)));
        assert_eq!(r.fields.len(), n);
        assert_eq!(r.hlc(), Some(HlcStamp::new(UtcMicros::from_micros(95), 0)));
        // Correction shifts the physical component like any timestamp.
        r.apply_correction(-30);
        assert_eq!(r.hlc(), Some(HlcStamp::new(UtcMicros::from_micros(65), 0)));
        // A full record without an HLC cannot take one.
        let mut full = rec(0, vec![Value::I32(0); 8]);
        assert!(!full.set_hlc(HlcStamp::ZERO));
        assert_eq!(full.hlc(), None);
    }

    #[test]
    fn sort_key_orders_by_ts_then_origin_then_seq() {
        let a = rec(10, vec![]);
        let mut b = rec(10, vec![]);
        b.seq = 8;
        let c = rec(11, vec![]);
        assert!(a.sort_key() < b.sort_key());
        assert!(b.sort_key() < c.sort_key());
    }

    #[test]
    fn xdr_payload_size_six_i32_close_to_paper() {
        let r = rec(0, vec![Value::I32(0); 6]);
        // The paper reports 40 bytes for this workload; our header carries
        // sensor id and sequence number in addition, landing a word or two
        // above. The important property is "tens of bytes, 4-aligned".
        let size = r.xdr_payload_size();
        assert!(
            size.is_multiple_of(4),
            "XDR payload must be 4-aligned, got {size}"
        );
        assert!((40..=56).contains(&size), "got {size}");
    }

    #[test]
    fn display_mentions_origin_and_fields() {
        let r = rec(1, vec![Value::I32(42)]);
        let s = r.to_string();
        assert!(s.contains("n1"));
        assert!(s.contains("42"));
    }
}
