//! Self-tracing context: sampled per-record spans through the pipeline.
//!
//! BRISK observes other systems; this module lets it observe *itself* at
//! per-record granularity. A sampled record carries a [`TraceContext`] as a
//! dynamic system field (`X_TRACE`, [`crate::value::ValueType::Trace`]) —
//! the same mechanism the paper uses for `X_TS` — so the context needs no
//! schema change anywhere: it survives the ring buffer, the wire, the
//! sorter and the store like any other field.
//!
//! The context is a 64-bit trace id plus an append-only list of
//! `(stage, timestamp)` stamps, one per pipeline hop. Stamps recorded
//! before the EXS applies its clock correction are raw local time; the EXS
//! shifts them (exactly once, via [`TraceContext::shift`] from
//! [`crate::record::EventRecord::apply_correction`]) so every stamp a
//! consumer sees is in synchronized time.

use crate::error::{BriskError, Result};
use crate::time::UtcMicros;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

/// Maximum number of stamps one context may carry. Decoders enforce this
/// so a corrupt stream cannot allocate unboundedly; stampers keep the
/// first `N-1` stamps and overwrite the last slot past the limit (better
/// a truncated trace than a lost record — and the *terminal* stamp must
/// survive so deep pipelines still see their delivery hop).
pub const MAX_TRACE_STAMPS: usize = 16;

/// Stamps displaced because a context was already at [`MAX_TRACE_STAMPS`].
/// Process-global (contexts are tiny values passed by record; threading a
/// counter handle through every hop would cost more than the stamp) and
/// exported as `brisk_trace_stamps_dropped_total`.
static STAMPS_DROPPED: AtomicU64 = AtomicU64::new(0);

/// Total trace stamps dropped (displaced by a newer stamp) because their
/// context was full. Monotonic over the process lifetime.
pub fn trace_stamps_dropped_total() -> u64 {
    STAMPS_DROPPED.load(Ordering::Relaxed)
}

/// Count `n` stamps displaced by an encoder that applies
/// [`TraceContext::stamp`]'s overflow rule to encoded stamps (the EXS
/// stamps traced records while it transcodes them).
pub fn note_trace_stamps_dropped(n: u64) {
    if n > 0 {
        STAMPS_DROPPED.fetch_add(n, Ordering::Relaxed);
    }
}

/// A pipeline stage that can stamp a trace. Codes are stable wire
/// constants (one byte).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
#[repr(u8)]
pub enum TraceStage {
    /// Sensor fired: the record was built inside the application.
    Notice = 0,
    /// EXS scooped the record out of the shared ring buffer.
    ExsScoop = 1,
    /// EXS handed the batch containing the record to the transport.
    BatchSend = 2,
    /// An ISM reactor shard decoded the record off the wire.
    PumpRecv = 3,
    /// Record admitted into the on-line sorter.
    SorterAdmit = 4,
    /// Record released from the sorter in timestamp order.
    SorterRelease = 5,
    /// CRE held the record waiting for its reason.
    CreHold = 6,
    /// CRE repaired the record's tachyonic timestamp.
    CreRepair = 7,
    /// Record delivered to the output buffer / store / sinks.
    Deliver = 8,
}

impl TraceStage {
    /// All stages in code order.
    pub const ALL: [TraceStage; 9] = [
        TraceStage::Notice,
        TraceStage::ExsScoop,
        TraceStage::BatchSend,
        TraceStage::PumpRecv,
        TraceStage::SorterAdmit,
        TraceStage::SorterRelease,
        TraceStage::CreHold,
        TraceStage::CreRepair,
        TraceStage::Deliver,
    ];

    /// Wire code (0..=8).
    #[inline]
    pub const fn code(self) -> u8 {
        self as u8
    }

    /// Inverse of [`TraceStage::code`].
    pub fn from_code(code: u8) -> Result<TraceStage> {
        TraceStage::ALL
            .get(code as usize)
            .copied()
            .ok_or_else(|| BriskError::Codec(format!("invalid trace-stage code {code}")))
    }

    /// Stable snake-case name (used in metric labels and the waterfall).
    pub const fn name(self) -> &'static str {
        match self {
            TraceStage::Notice => "notice",
            TraceStage::ExsScoop => "exs_scoop",
            TraceStage::BatchSend => "batch_send",
            TraceStage::PumpRecv => "pump_recv",
            TraceStage::SorterAdmit => "sorter_admit",
            TraceStage::SorterRelease => "sorter_release",
            TraceStage::CreHold => "cre_hold",
            TraceStage::CreRepair => "cre_repair",
            TraceStage::Deliver => "deliver",
        }
    }
}

impl fmt::Display for TraceStage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The payload of an `X_TRACE` field: a trace id plus per-stage stamps.
#[derive(Clone, PartialEq, Debug)]
pub struct TraceContext {
    /// Sampled trace identifier (SplitMix64 output; never zero by
    /// convention so tools can use 0 as "no trace").
    pub trace_id: u64,
    stamps: Vec<(TraceStage, UtcMicros)>,
}

impl TraceContext {
    /// New context stamped at its origin (the `NOTICE` site).
    pub fn origin(trace_id: u64, ts: UtcMicros) -> Self {
        TraceContext {
            trace_id,
            stamps: vec![(TraceStage::Notice, ts)],
        }
    }

    /// Context with explicit stamps (decoder/test constructor). Fails when
    /// over [`MAX_TRACE_STAMPS`].
    pub fn with_stamps(trace_id: u64, stamps: Vec<(TraceStage, UtcMicros)>) -> Result<Self> {
        if stamps.len() > MAX_TRACE_STAMPS {
            return Err(BriskError::Malformed(format!(
                "{} trace stamps exceeds the {MAX_TRACE_STAMPS}-stamp limit",
                stamps.len()
            )));
        }
        Ok(TraceContext { trace_id, stamps })
    }

    /// Append a stamp. Once [`MAX_TRACE_STAMPS`] is reached the first
    /// `N-1` stamps are kept and each new stamp *overwrites the last
    /// slot*, so a looping stage can never make the record unencodable
    /// while the most recent (terminal) stamp always survives — a deep
    /// pipeline keeps its delivery hop. Each displaced stamp is counted
    /// in [`trace_stamps_dropped_total`].
    #[inline]
    pub fn stamp(&mut self, stage: TraceStage, ts: UtcMicros) {
        if self.stamps.len() < MAX_TRACE_STAMPS {
            self.stamps.push((stage, ts));
        } else if let Some(last) = self.stamps.last_mut() {
            STAMPS_DROPPED.fetch_add(1, Ordering::Relaxed);
            *last = (stage, ts);
        }
    }

    /// The accumulated stamps, in the order they were recorded.
    #[inline]
    pub fn stamps(&self) -> &[(TraceStage, UtcMicros)] {
        &self.stamps
    }

    /// Timestamp of the first stamp for `stage`, if any.
    pub fn stamp_at(&self, stage: TraceStage) -> Option<UtcMicros> {
        self.stamps
            .iter()
            .find_map(|&(s, t)| (s == stage).then_some(t))
    }

    /// Shift every stamp by the EXS clock-correction value. Called from
    /// [`crate::record::EventRecord::apply_correction`] exactly once, at
    /// scoop time, before any post-correction stamps are added.
    pub fn shift(&mut self, delta_us: i64) {
        for (_, t) in &mut self.stamps {
            *t = t.offset(delta_us);
        }
    }

    /// Encoded size in the native binary form: id (8) + count (1) +
    /// 9 bytes per stamp.
    pub fn encoded_size(&self) -> usize {
        8 + 1 + 9 * self.stamps.len()
    }

    /// Append the native binary encoding to `out`.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.trace_id.to_le_bytes());
        out.push(self.stamps.len() as u8);
        for &(stage, ts) in &self.stamps {
            out.push(stage.code());
            out.extend_from_slice(&ts.as_micros().to_le_bytes());
        }
    }

    /// Decode a context from the front of `buf`, returning it and the
    /// number of bytes consumed.
    pub fn decode(buf: &[u8]) -> Result<(TraceContext, usize)> {
        if buf.len() < 9 {
            return Err(BriskError::Codec("truncated trace context".into()));
        }
        let trace_id = u64::from_le_bytes(buf[..8].try_into().unwrap());
        let count = buf[8] as usize;
        if count > MAX_TRACE_STAMPS {
            return Err(BriskError::Codec(format!(
                "trace stamp count {count} exceeds {MAX_TRACE_STAMPS}"
            )));
        }
        let need = 9 + 9 * count;
        if buf.len() < need {
            return Err(BriskError::Codec("truncated trace stamps".into()));
        }
        let mut stamps = Vec::with_capacity(count);
        for i in 0..count {
            let at = 9 + 9 * i;
            let stage = TraceStage::from_code(buf[at])?;
            let ts = i64::from_le_bytes(buf[at + 1..at + 9].try_into().unwrap());
            stamps.push((stage, UtcMicros::from_micros(ts)));
        }
        Ok((TraceContext { trace_id, stamps }, need))
    }
}

impl fmt::Display for TraceContext {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "trace:{:016x}[", self.trace_id)?;
        for (i, (stage, ts)) in self.stamps.iter().enumerate() {
            if i > 0 {
                write!(f, " ")?;
            }
            write!(f, "{stage}@{ts}")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx() -> TraceContext {
        let mut c = TraceContext::origin(0xdead_beef_cafe_f00d, UtcMicros::from_micros(100));
        c.stamp(TraceStage::ExsScoop, UtcMicros::from_micros(150));
        c.stamp(TraceStage::Deliver, UtcMicros::from_micros(900));
        c
    }

    #[test]
    fn stage_codes_round_trip() {
        for s in TraceStage::ALL {
            assert_eq!(TraceStage::from_code(s.code()).unwrap(), s);
        }
        assert!(TraceStage::from_code(9).is_err());
        assert!(TraceStage::from_code(255).is_err());
    }

    #[test]
    fn encode_decode_round_trip() {
        let c = ctx();
        let mut buf = Vec::new();
        c.encode_into(&mut buf);
        assert_eq!(buf.len(), c.encoded_size());
        let (back, used) = TraceContext::decode(&buf).unwrap();
        assert_eq!(back, c);
        assert_eq!(used, buf.len());
    }

    #[test]
    fn decode_consumes_prefix_only() {
        let c = ctx();
        let mut buf = Vec::new();
        c.encode_into(&mut buf);
        buf.extend_from_slice(&[1, 2, 3]);
        let (back, used) = TraceContext::decode(&buf).unwrap();
        assert_eq!(back, c);
        assert_eq!(used, c.encoded_size());
    }

    #[test]
    fn truncation_detected_at_every_length() {
        let c = ctx();
        let mut buf = Vec::new();
        c.encode_into(&mut buf);
        for cut in 0..buf.len() {
            assert!(TraceContext::decode(&buf[..cut]).is_err(), "cut {cut}");
        }
    }

    #[test]
    fn oversized_stamp_count_rejected() {
        let mut buf = Vec::new();
        ctx().encode_into(&mut buf);
        buf[8] = (MAX_TRACE_STAMPS + 1) as u8;
        assert!(TraceContext::decode(&buf).is_err());
    }

    #[test]
    fn bad_stage_code_rejected() {
        let mut buf = Vec::new();
        ctx().encode_into(&mut buf);
        buf[9] = 200;
        assert!(TraceContext::decode(&buf).is_err());
    }

    #[test]
    fn stamps_cap_at_limit() {
        let mut c = TraceContext::origin(1, UtcMicros::ZERO);
        for i in 0..MAX_TRACE_STAMPS + 5 {
            c.stamp(TraceStage::SorterAdmit, UtcMicros::from_micros(i as i64));
        }
        assert_eq!(c.stamps().len(), MAX_TRACE_STAMPS);
        // Still encodable.
        let mut buf = Vec::new();
        c.encode_into(&mut buf);
        assert!(TraceContext::decode(&buf).is_ok());
    }

    #[test]
    fn full_context_keeps_terminal_stamp_and_counts_drops() {
        let before = trace_stamps_dropped_total();
        let mut c = TraceContext::origin(1, UtcMicros::ZERO);
        // Fill to the cap with a looping stage...
        for i in 1..MAX_TRACE_STAMPS {
            c.stamp(TraceStage::SorterAdmit, UtcMicros::from_micros(i as i64));
        }
        assert_eq!(c.stamps().len(), MAX_TRACE_STAMPS);
        // ...then keep stamping past it; the terminal Deliver stamp must
        // land in the last slot instead of vanishing.
        c.stamp(TraceStage::CreHold, UtcMicros::from_micros(700));
        c.stamp(TraceStage::Deliver, UtcMicros::from_micros(900));
        assert_eq!(c.stamps().len(), MAX_TRACE_STAMPS);
        // First N-1 stamps intact.
        assert_eq!(c.stamps()[0], (TraceStage::Notice, UtcMicros::ZERO));
        assert_eq!(
            c.stamps()[MAX_TRACE_STAMPS - 2],
            (
                TraceStage::SorterAdmit,
                UtcMicros::from_micros((MAX_TRACE_STAMPS - 2) as i64)
            )
        );
        // Last slot holds the most recent stamp.
        assert_eq!(
            c.stamps()[MAX_TRACE_STAMPS - 1],
            (TraceStage::Deliver, UtcMicros::from_micros(900))
        );
        assert_eq!(
            c.stamp_at(TraceStage::Deliver),
            Some(UtcMicros::from_micros(900))
        );
        // Two stamps were displaced (the original slot-16 content and the
        // CreHold overwrite). Other tests stamp concurrently, so >=.
        assert!(trace_stamps_dropped_total() >= before + 2);
    }

    #[test]
    fn with_stamps_enforces_limit() {
        let too_many = vec![(TraceStage::Notice, UtcMicros::ZERO); MAX_TRACE_STAMPS + 1];
        assert!(TraceContext::with_stamps(1, too_many).is_err());
        assert!(TraceContext::with_stamps(1, vec![])
            .unwrap()
            .stamps()
            .is_empty());
    }

    #[test]
    fn shift_moves_every_stamp() {
        let mut c = ctx();
        c.shift(-50);
        assert_eq!(
            c.stamp_at(TraceStage::Notice),
            Some(UtcMicros::from_micros(50))
        );
        assert_eq!(
            c.stamp_at(TraceStage::Deliver),
            Some(UtcMicros::from_micros(850))
        );
    }

    #[test]
    fn stamp_at_finds_first() {
        let c = ctx();
        assert_eq!(
            c.stamp_at(TraceStage::ExsScoop),
            Some(UtcMicros::from_micros(150))
        );
        assert_eq!(c.stamp_at(TraceStage::PumpRecv), None);
    }

    #[test]
    fn display_is_readable() {
        let s = ctx().to_string();
        assert!(s.contains("deadbeefcafef00d"), "{s}");
        assert!(s.contains("exs_scoop"), "{s}");
    }
}
