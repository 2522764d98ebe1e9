//! Native-to-XDR transcoding: the EXS's single pass from ring bytes to
//! wire bytes.
//!
//! A record leaves a sensor ring in the native binary form
//! ([`brisk_core::binenc`]) and leaves the EXS as an XDR record body
//! ([`crate::values::encode_record_body`]). On the way the EXS adds its
//! clock-sync correction to every timestamp (§3.2) and stamps trace and
//! HLC fields. [`transcode_record`] does all of that in one validating
//! pass over the native bytes and writes the XDR body straight into the
//! outgoing batch frame: no `EventRecord` or `Value` is built.
//!
//! The contract is equivalence with the record path it replaces. It
//! accepts exactly the bytes [`brisk_core::binenc::decode_record`]
//! accepts, and it writes the bytes `encode_record_body` writes for the
//! decoded record after `apply_correction`,
//! `stamp_trace(ExsScoop)`, `set_hlc` and, once the batch is sent,
//! `stamp_trace(BatchSend)`. The send stamp's time is not known yet, so
//! its slot is reserved and filled by [`patch_send_stamp`].

use brisk_core::binenc::HEADER_SIZE;
use brisk_core::{
    note_trace_stamps_dropped, BriskError, HlcStamp, NodeId, RecordDescriptor, Result, TraceStage,
    UtcMicros, ValueType, MAX_TRACE_STAMPS,
};

/// What the EXS applies to every record it scoops.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Scoop {
    /// Clock-sync correction added to the header timestamp, every `X_TS`,
    /// every `X_TRACE` stamp and every `X_HLC` physical component.
    pub correction_us: i64,
    /// Scoop time, stamped as [`TraceStage::ExsScoop`] on a traced record.
    pub at: UtcMicros,
    /// With HLC stamping on, the stamp that replaces the record's first
    /// `X_HLC` field or, when it has none, is appended as a new field.
    pub hlc: Option<HlcStamp>,
}

/// What [`transcode_record`] wrote.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Transcoded {
    /// Origin node from the native header (an XDR body does not carry it).
    pub node: NodeId,
    /// Native bytes consumed.
    pub used: usize,
    /// `EventRecord::xdr_payload_size` of the scooped record before its
    /// send stamp: the figure a batcher's byte knob counts.
    pub payload_size: usize,
    /// Offset in the output of the send stamp's timestamp, on a traced
    /// record; [`patch_send_stamp`] fills it.
    pub send_slot: Option<usize>,
    /// The HLC stamp could not be attached: the record was already at
    /// [`brisk_core::descriptor::MAX_FIELDS`] without an `X_HLC` field.
    pub hlc_dropped: bool,
}

/// Transcode the native record at the front of `native` into an XDR
/// record body appended to `out`, applying `scoop`. On error `out` is
/// left as it was.
pub fn transcode_record(native: &[u8], scoop: &Scoop, out: &mut Vec<u8>) -> Result<Transcoded> {
    let start = out.len();
    let done = transcode(native, scoop, out);
    if done.is_err() {
        out.truncate(start);
    }
    done
}

/// Write `at` into the send-stamp slot a [`Transcoded::send_slot`] names.
pub fn patch_send_stamp(out: &mut [u8], slot: usize, at: UtcMicros) {
    out[slot..slot + 8].copy_from_slice(&at.as_micros().to_be_bytes());
}

/// Read cursor over native bytes; errors name the shortfall like the
/// native decoder's.
struct Native<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Native<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        let rest = &self.buf[self.pos..];
        if rest.len() < n {
            return Err(BriskError::Codec(format!(
                "truncated record: need {n} bytes at offset {}, have {}",
                self.pos,
                rest.len()
            )));
        }
        self.pos += n;
        Ok(&rest[..n])
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N]> {
        let mut a = [0u8; N];
        a.copy_from_slice(self.take(N)?);
        Ok(a)
    }

    fn i64(&mut self) -> Result<i64> {
        Ok(i64::from_le_bytes(self.array()?))
    }
}

/// Append a little-endian word as the big-endian XDR word.
fn put_swapped<const N: usize>(out: &mut Vec<u8>, mut le: [u8; N]) {
    le.reverse();
    out.extend_from_slice(&le);
}

fn put_opaque(out: &mut Vec<u8>, bytes: &[u8]) {
    out.extend_from_slice(&(bytes.len() as u32).to_be_bytes());
    out.extend_from_slice(bytes);
    out.resize(out.len() + (crate::pad4(bytes.len()) - bytes.len()), 0);
}

fn put_stamp(out: &mut Vec<u8>, stage: TraceStage, at: i64) {
    out.extend_from_slice(&u32::from(stage.code()).to_be_bytes());
    out.extend_from_slice(&at.to_be_bytes());
}

fn put_hlc(out: &mut Vec<u8>, s: HlcStamp) {
    out.extend_from_slice(&s.physical.as_micros().to_be_bytes());
    out.extend_from_slice(&s.logical.to_be_bytes());
}

fn transcode(native: &[u8], scoop: &Scoop, out: &mut Vec<u8>) -> Result<Transcoded> {
    let corrected = |us: i64| UtcMicros::from_micros(us).offset(scoop.correction_us);
    let mut c = Native {
        buf: native,
        pos: 0,
    };
    let node = NodeId(u32::from_le_bytes(c.array()?));
    // Every record grows by at most 4x (one-byte fields become words)
    // plus the scoop's stamps; one reservation covers the whole body.
    out.reserve(4 * native.len() + 64);
    put_swapped(out, c.array::<4>()?); // sensor
    put_swapped(out, c.array::<4>()?); // event type
    put_swapped(out, c.array::<8>()?); // seq
    let ts = c.i64()?;
    out.extend_from_slice(&corrected(ts).as_micros().to_be_bytes());
    debug_assert_eq!(c.pos, HEADER_SIZE);

    let (types, desc_len) = RecordDescriptor::unpack_types(&native[c.pos..])?;
    let desc = c.take(desc_len)?;
    let mut shape = types;
    // `EventRecord::set_hlc`: replace the first X_HLC, else append one
    // while a field slot is free, else drop the stamp.
    let mut replace_hlc = None;
    let mut append_hlc = None;
    let mut hlc_dropped = false;
    if let Some(stamp) = scoop.hlc {
        if types.as_slice().contains(&ValueType::Hlc) {
            replace_hlc = Some(stamp);
        } else if shape.push(ValueType::Hlc) {
            append_hlc = Some(stamp);
        } else {
            hlc_dropped = true;
        }
    }
    let appended;
    let desc = if append_hlc.is_some() {
        appended = shape.packed();
        appended.as_bytes()
    } else {
        desc
    };
    put_opaque(out, desc);
    let mut payload_size = 4 + 4 + 8 + 8 + crate::pad4(desc.len());

    let mut send_slot = None;
    let mut stamps_dropped = 0;
    for &vt in types.as_slice() {
        let before = out.len();
        match vt {
            ValueType::I8 => {
                let v = c.take(1)?[0] as i8;
                out.extend_from_slice(&i32::from(v).to_be_bytes());
            }
            ValueType::U8 => {
                let v = c.take(1)?[0];
                out.extend_from_slice(&u32::from(v).to_be_bytes());
            }
            ValueType::I16 => {
                let v = i16::from_le_bytes(c.array()?);
                out.extend_from_slice(&i32::from(v).to_be_bytes());
            }
            ValueType::U16 => {
                let v = u16::from_le_bytes(c.array()?);
                out.extend_from_slice(&u32::from(v).to_be_bytes());
            }
            ValueType::I32 | ValueType::U32 | ValueType::F32 => put_swapped(out, c.array::<4>()?),
            ValueType::I64
            | ValueType::U64
            | ValueType::F64
            | ValueType::Reason
            | ValueType::Conseq => put_swapped(out, c.array::<8>()?),
            ValueType::Bool => match c.take(1)?[0] {
                b @ (0 | 1) => out.extend_from_slice(&u32::from(b).to_be_bytes()),
                b => return Err(BriskError::Codec(format!("invalid bool byte {b}"))),
            },
            ValueType::Str | ValueType::Bytes => {
                let len = u32::from_le_bytes(c.array()?) as usize;
                let bytes = c.take(len)?;
                if vt == ValueType::Str {
                    std::str::from_utf8(bytes)
                        .map_err(|e| BriskError::Codec(format!("invalid UTF-8 string: {e}")))?;
                }
                put_opaque(out, bytes);
            }
            ValueType::Ts => {
                let t = c.i64()?;
                out.extend_from_slice(&corrected(t).as_micros().to_be_bytes());
            }
            ValueType::Trace => {
                let first = send_slot.is_none();
                let (slot, stamps_at_scoop, displaced) = trace_field(&mut c, out, scoop, first)?;
                send_slot = send_slot.or(slot);
                stamps_dropped += displaced;
                // The batcher counted the context before its send stamp.
                payload_size += 12 + 12 * stamps_at_scoop;
                continue;
            }
            ValueType::Hlc => {
                let phys = c.i64()?;
                let logical = u32::from_le_bytes(c.array()?);
                let stamp = replace_hlc
                    .take()
                    .unwrap_or(HlcStamp::new(corrected(phys), logical));
                put_hlc(out, stamp);
            }
        }
        payload_size += out.len() - before;
    }
    if let Some(stamp) = append_hlc {
        put_hlc(out, stamp);
        payload_size += HlcStamp::ENCODED_SIZE;
    }
    note_trace_stamps_dropped(stamps_dropped);
    Ok(Transcoded {
        node,
        used: c.pos,
        payload_size,
        send_slot,
        hlc_dropped,
    })
}

/// One `X_TRACE` field: validate its native form like
/// `TraceContext::decode`, shift its stamps by the correction and, on
/// the record's first trace field (the one `stamp_trace` finds), apply
/// the scoop stamp and reserve the send stamp under
/// `TraceContext::stamp`'s rule: append while below
/// [`MAX_TRACE_STAMPS`], else overwrite the last slot. Returns the send
/// slot, the stamp count as of the scoop and the stamps displaced.
fn trace_field(
    c: &mut Native<'_>,
    out: &mut Vec<u8>,
    scoop: &Scoop,
    first: bool,
) -> Result<(Option<usize>, usize, u64)> {
    let id = c.array::<8>()?;
    let count = c.take(1)?[0] as usize;
    if count > MAX_TRACE_STAMPS {
        return Err(BriskError::Codec(format!(
            "trace stamp count {count} exceeds {MAX_TRACE_STAMPS}"
        )));
    }
    let stamps = c.take(9 * count)?;
    for s in stamps.chunks_exact(9) {
        TraceStage::from_code(s[0])?;
    }
    put_swapped(out, id);
    let (kept, over, at_scoop) = if first {
        // The scoop and send stamps overflow the context by `over`; each
        // overflowing stamp displaces the one in the last slot, so the
        // scoop stamp survives only without overflow and the send stamp
        // always ends the list.
        let over = (count + 2).saturating_sub(MAX_TRACE_STAMPS);
        (
            count.min(MAX_TRACE_STAMPS - 1),
            over,
            (count + 1).min(MAX_TRACE_STAMPS),
        )
    } else {
        (count, 0, count)
    };
    let scooped = first && over == 0;
    let written = kept + usize::from(scooped) + usize::from(first);
    out.extend_from_slice(&(written as u32).to_be_bytes());
    for s in stamps.chunks_exact(9).take(kept) {
        let mut t = [0u8; 8];
        t.copy_from_slice(&s[1..]);
        let at = UtcMicros::from_micros(i64::from_le_bytes(t)).offset(scoop.correction_us);
        out.extend_from_slice(&u32::from(s[0]).to_be_bytes());
        out.extend_from_slice(&at.as_micros().to_be_bytes());
    }
    if scooped {
        put_stamp(out, TraceStage::ExsScoop, scoop.at.as_micros());
    }
    if !first {
        return Ok((None, at_scoop, 0));
    }
    put_stamp(out, TraceStage::BatchSend, 0);
    Ok((Some(out.len() - 8), at_scoop, over as u64))
}
