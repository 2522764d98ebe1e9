//! Record descriptors: the meta-information describing a record's shape.
//!
//! Each dynamically-typed record is sent "with a meta-information header
//! needed for it to be correctly received", and the external sensor sends it
//! "with the meta-information header compressed" (§3.4). A
//! [`RecordDescriptor`] is the sequence of field types; it compresses to one
//! nibble per field (two fields per byte).
//!
//! The paper bounds records to eight dynamically-typed fields because "more
//! than eight fields in a macro adds excessive code"; BRISK-rs enforces the
//! same limit ([`MAX_FIELDS`]) for wire-format compatibility with that
//! design, while the `define_notice!` specialization macro (in `brisk-lis`)
//! plays the role of the paper's custom-NOTICE generator utility.

use crate::error::{BriskError, Result};
use crate::value::{Value, ValueType};
use std::fmt;

/// Maximum number of fields in one record (paper §3.2).
pub const MAX_FIELDS: usize = 8;

/// High bit of the descriptor count byte: signals the *wide* packed form
/// (one byte per type code) used when any field's code exceeds a nibble.
/// `MAX_FIELDS` is far below 0x80, so the bit is unambiguous.
const WIDE_FLAG: u8 = 0x80;

/// The shape of an event record: the ordered field types.
#[derive(Clone, PartialEq, Eq, Hash, Debug, Default)]
pub struct RecordDescriptor {
    types: Vec<ValueType>,
}

impl RecordDescriptor {
    /// Build a descriptor from field types. Fails if there are more than
    /// [`MAX_FIELDS`] fields.
    pub fn new(types: impl Into<Vec<ValueType>>) -> Result<Self> {
        let types = types.into();
        if types.len() > MAX_FIELDS {
            return Err(BriskError::Malformed(format!(
                "{} fields exceeds the {MAX_FIELDS}-field limit",
                types.len()
            )));
        }
        Ok(RecordDescriptor { types })
    }

    /// Descriptor of the given field values.
    pub fn of(fields: &[Value]) -> Result<Self> {
        RecordDescriptor::new(fields.iter().map(Value::value_type).collect::<Vec<_>>())
    }

    /// The paper's evaluation workload: "six fields of type integer" (§4).
    pub fn six_i32() -> Self {
        RecordDescriptor {
            types: vec![ValueType::I32; 6],
        }
    }

    /// Number of fields.
    #[inline]
    pub fn len(&self) -> usize {
        self.types.len()
    }

    /// True if the record has no fields.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.types.is_empty()
    }

    /// The ordered field types.
    #[inline]
    pub fn types(&self) -> &[ValueType] {
        &self.types
    }

    /// True if any field is `X_TS`.
    pub fn has_ts(&self) -> bool {
        self.types.contains(&ValueType::Ts)
    }

    /// True if any field is `X_REASON` or `X_CONSEQ`.
    pub fn has_causal_marker(&self) -> bool {
        self.types
            .iter()
            .any(|t| matches!(t, ValueType::Reason | ValueType::Conseq))
    }

    /// Check that `fields` matches this descriptor exactly.
    pub fn check(&self, fields: &[Value]) -> Result<()> {
        if fields.len() != self.types.len() {
            return Err(BriskError::Malformed(format!(
                "record has {} fields, descriptor expects {}",
                fields.len(),
                self.types.len()
            )));
        }
        for (i, (f, t)) in fields.iter().zip(&self.types).enumerate() {
            if f.value_type() != *t {
                return Err(BriskError::Malformed(format!(
                    "field {i} is {}, descriptor expects {t}",
                    f.value_type()
                )));
            }
        }
        Ok(())
    }

    /// Compressed encoding: field count byte followed by packed type
    /// nibbles, low nibble first. An 8-field record costs 5 bytes of
    /// meta-information instead of the 36 bytes a naive
    /// one-XDR-word-per-type header would take.
    ///
    /// Descriptors containing a type code beyond the nibble range (today
    /// only `X_TRACE`, code 16) use the *wide* form: the count byte's high
    /// bit (`WIDE_FLAG`, 0x80) is set and each type takes a whole byte.
    /// Descriptors with only classic codes stay byte-identical to the
    /// historical nibble form, so old wire frames and stored segments
    /// decode unchanged.
    pub fn pack(&self) -> Vec<u8> {
        self.packed().as_bytes().to_vec()
    }

    /// The packed form held inline, without allocating.
    fn packed(&self) -> PackedDescriptor {
        PackedDescriptor::from_codes(self.types.iter().map(|t| t.code()))
    }

    /// Decode a packed descriptor from the front of `buf`, returning the
    /// descriptor and the number of bytes consumed. Accepts both the
    /// nibble and the wide form; each descriptor has exactly one canonical
    /// encoding and the other is rejected.
    pub fn unpack(buf: &[u8]) -> Result<(Self, usize)> {
        let (types, used) = Self::unpack_types(buf)?;
        Ok((
            RecordDescriptor {
                types: types.as_slice().to_vec(),
            },
            used,
        ))
    }

    /// [`Self::unpack`] without building a descriptor: the field types
    /// held inline, for decoders that only walk them once.
    pub fn unpack_types(buf: &[u8]) -> Result<(FieldTypes, usize)> {
        let &count_byte = buf
            .first()
            .ok_or_else(|| BriskError::Codec("empty descriptor".into()))?;
        let wide = count_byte & WIDE_FLAG != 0;
        let count = (count_byte & !WIDE_FLAG) as usize;
        if count > MAX_FIELDS {
            return Err(BriskError::Codec(format!(
                "descriptor field count {count} exceeds {MAX_FIELDS}"
            )));
        }
        let mut types = FieldTypes {
            types: [ValueType::I32; MAX_FIELDS],
            len: count as u8,
        };
        if wide {
            if buf.len() < 1 + count {
                return Err(BriskError::Codec("truncated descriptor".into()));
            }
            for (slot, &code) in types.types.iter_mut().zip(&buf[1..1 + count]) {
                *slot = ValueType::from_code(code)?;
            }
            // Reject non-canonical encodings: wide form is only valid when
            // some code actually needs it.
            if !types.as_slice().iter().any(|t| t.code() > 0x0f) {
                return Err(BriskError::Codec(
                    "wide descriptor with only nibble-range codes".into(),
                ));
            }
            return Ok((types, 1 + count));
        }
        let nibble_bytes = count.div_ceil(2);
        if buf.len() < 1 + nibble_bytes {
            return Err(BriskError::Codec("truncated descriptor".into()));
        }
        for (i, slot) in types.types[..count].iter_mut().enumerate() {
            let byte = buf[1 + i / 2];
            let nibble = if i % 2 == 0 { byte & 0x0f } else { byte >> 4 };
            *slot = ValueType::from_code(nibble)?;
        }
        // Reject non-canonical encodings: a trailing unused high nibble
        // must be zero so each descriptor has exactly one packed form.
        if count % 2 == 1 {
            let last = buf[nibble_bytes];
            if last >> 4 != 0 {
                return Err(BriskError::Codec(
                    "non-zero padding nibble in descriptor".into(),
                ));
            }
        }
        Ok((types, 1 + nibble_bytes))
    }

    /// Size of the packed form in bytes.
    pub fn packed_size(&self) -> usize {
        self.packed().len()
    }
}

/// The field types of a descriptor held inline (at most [`MAX_FIELDS`]),
/// as [`RecordDescriptor::unpack_types`] decodes them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FieldTypes {
    types: [ValueType; MAX_FIELDS],
    len: u8,
}

impl FieldTypes {
    /// The ordered field types.
    pub fn as_slice(&self) -> &[ValueType] {
        &self.types[..self.len as usize]
    }

    /// Append a field type; `false` (and no change) when the shape is
    /// already at [`MAX_FIELDS`].
    pub fn push(&mut self, t: ValueType) -> bool {
        let len = self.len as usize;
        if len >= MAX_FIELDS {
            return false;
        }
        self.types[len] = t;
        self.len += 1;
        true
    }

    /// The packed form of these types (the bytes
    /// [`RecordDescriptor::pack`] returns for the same shape).
    pub fn packed(&self) -> PackedDescriptor {
        PackedDescriptor::from_codes(self.as_slice().iter().map(|t| t.code()))
    }
}

/// A packed descriptor (see [`RecordDescriptor::pack`]) held inline: it
/// is at most `1 + MAX_FIELDS` bytes, so packing a record's shape on the
/// encode paths never touches the heap.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PackedDescriptor {
    bytes: [u8; 1 + MAX_FIELDS],
    len: u8,
}

impl PackedDescriptor {
    /// Pack the descriptor whose ordered type codes are `codes` (at most
    /// [`MAX_FIELDS`] of them, which every [`RecordDescriptor`] and
    /// every record's fields satisfy).
    pub(crate) fn from_codes(codes: impl ExactSizeIterator<Item = u8> + Clone) -> Self {
        let count = codes.len();
        assert!(count <= MAX_FIELDS, "{count} fields exceed {MAX_FIELDS}");
        let mut bytes = [0u8; 1 + MAX_FIELDS];
        let len = if codes.clone().any(|c| c > 0x0f) {
            bytes[0] = count as u8 | WIDE_FLAG;
            for (slot, code) in bytes[1..].iter_mut().zip(codes) {
                *slot = code;
            }
            1 + count
        } else {
            bytes[0] = count as u8;
            for (i, code) in codes.enumerate() {
                bytes[1 + i / 2] |= code << (4 * (i % 2));
            }
            1 + count.div_ceil(2)
        };
        PackedDescriptor {
            bytes,
            len: len as u8,
        }
    }

    /// The packed bytes.
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes[..self.len as usize]
    }

    /// Length of the packed form in bytes.
    #[allow(clippy::len_without_is_empty)] // never empty: the count byte
    pub fn len(&self) -> usize {
        self.len as usize
    }
}

impl fmt::Display for RecordDescriptor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, t) in self.types.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{t}")?;
        }
        write!(f, ")")
    }
}

impl TryFrom<Vec<ValueType>> for RecordDescriptor {
    type Error = BriskError;
    fn try_from(types: Vec<ValueType>) -> Result<Self> {
        RecordDescriptor::new(types)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::CorrelationId;
    use crate::time::UtcMicros;

    fn mixed() -> RecordDescriptor {
        RecordDescriptor::new(vec![
            ValueType::Ts,
            ValueType::I32,
            ValueType::Str,
            ValueType::Reason,
            ValueType::F64,
        ])
        .unwrap()
    }

    #[test]
    fn construction_enforces_field_limit() {
        assert!(RecordDescriptor::new(vec![ValueType::I32; 8]).is_ok());
        assert!(RecordDescriptor::new(vec![ValueType::I32; 9]).is_err());
    }

    #[test]
    fn of_matches_values() {
        let fields = vec![
            Value::Ts(UtcMicros::ZERO),
            Value::I32(1),
            Value::Str("x".into()),
        ];
        let d = RecordDescriptor::of(&fields).unwrap();
        assert_eq!(d.types(), &[ValueType::Ts, ValueType::I32, ValueType::Str]);
        d.check(&fields).unwrap();
    }

    #[test]
    fn six_i32_is_the_paper_workload() {
        let d = RecordDescriptor::six_i32();
        assert_eq!(d.len(), 6);
        assert!(d.types().iter().all(|t| *t == ValueType::I32));
    }

    #[test]
    fn check_rejects_wrong_arity_and_types() {
        let d = RecordDescriptor::new(vec![ValueType::I32, ValueType::Str]).unwrap();
        assert!(d.check(&[Value::I32(1)]).is_err());
        assert!(d.check(&[Value::I32(1), Value::I32(2)]).is_err());
        assert!(d.check(&[Value::I32(1), Value::Str("a".into())]).is_ok());
    }

    #[test]
    fn pack_unpack_round_trip() {
        for d in [
            RecordDescriptor::new(Vec::<ValueType>::new()).unwrap(),
            RecordDescriptor::new(vec![ValueType::U8]).unwrap(),
            RecordDescriptor::six_i32(),
            mixed(),
            RecordDescriptor::new(vec![ValueType::Conseq; 8]).unwrap(),
            RecordDescriptor::new(vec![ValueType::Trace]).unwrap(),
            RecordDescriptor::new(vec![
                ValueType::I32,
                ValueType::Str,
                ValueType::Ts,
                ValueType::Trace,
            ])
            .unwrap(),
            RecordDescriptor::new(vec![ValueType::Trace; 8]).unwrap(),
        ] {
            let packed = d.pack();
            assert_eq!(packed.len(), d.packed_size());
            let (back, used) = RecordDescriptor::unpack(&packed).unwrap();
            assert_eq!(back, d);
            assert_eq!(used, packed.len());
        }
    }

    #[test]
    fn unpack_consumes_prefix_only() {
        let mut buf = mixed().pack();
        buf.extend_from_slice(&[0xde, 0xad]);
        let (back, used) = RecordDescriptor::unpack(&buf).unwrap();
        assert_eq!(back, mixed());
        assert_eq!(used, mixed().packed_size());
    }

    #[test]
    fn unpack_rejects_bad_input() {
        assert!(RecordDescriptor::unpack(&[]).is_err());
        assert!(RecordDescriptor::unpack(&[9]).is_err()); // count > MAX_FIELDS
        assert!(RecordDescriptor::unpack(&[2, 0x04]).is_ok()); // 2 fields in 1 byte
        assert!(RecordDescriptor::unpack(&[3, 0x44]).is_err()); // truncated
                                                                // odd count with non-zero padding nibble is non-canonical
        assert!(RecordDescriptor::unpack(&[1, 0x14]).is_err());
        assert!(RecordDescriptor::unpack(&[1, 0x04]).is_ok());
    }

    #[test]
    fn classic_descriptors_stay_byte_identical() {
        // The wide escape must not change the encoding of any descriptor
        // made of nibble-range codes: old frames and segments depend on it.
        let d = mixed();
        assert_eq!(d.pack()[0], d.len() as u8, "no wide flag on classic form");
        assert_eq!(d.pack().len(), 1 + d.len().div_ceil(2));
        assert_eq!(
            RecordDescriptor::six_i32().pack(),
            vec![6, 0x44, 0x44, 0x44]
        );
    }

    #[test]
    fn wide_form_round_trips_and_is_flagged() {
        let d = RecordDescriptor::new(vec![ValueType::I32, ValueType::Trace]).unwrap();
        let packed = d.pack();
        assert_eq!(packed, vec![0x82, 4, 16]);
        assert_eq!(packed.len(), d.packed_size());
        let (back, used) = RecordDescriptor::unpack(&packed).unwrap();
        assert_eq!(back, d);
        assert_eq!(used, packed.len());
    }

    #[test]
    fn wide_form_rejects_non_canonical_and_bad_input() {
        // Wide form holding only classic codes is non-canonical.
        assert!(RecordDescriptor::unpack(&[0x81, 4]).is_err());
        // Wide count over MAX_FIELDS.
        assert!(RecordDescriptor::unpack(&[0x89, 16, 16, 16, 16, 16, 16, 16, 16, 16]).is_err());
        // Truncated wide descriptor.
        assert!(RecordDescriptor::unpack(&[0x82, 16]).is_err());
        // Unknown wide code.
        assert!(RecordDescriptor::unpack(&[0x81, 18]).is_err());
        // Empty wide descriptor can never need the wide form.
        assert!(RecordDescriptor::unpack(&[0x80]).is_err());
    }

    #[test]
    fn field_types_push_up_to_the_limit_and_repack() {
        let (mut types, _) = RecordDescriptor::unpack_types(&mixed().pack()).unwrap();
        assert!(types.push(ValueType::Hlc));
        let grown = RecordDescriptor::new(types.as_slice().to_vec()).unwrap();
        assert_eq!(types.packed().as_bytes(), &grown.pack()[..]);
        let (mut full, _) =
            RecordDescriptor::unpack_types(&RecordDescriptor::six_i32().pack()).unwrap();
        assert!(full.push(ValueType::I8) && full.push(ValueType::I8));
        assert!(!full.push(ValueType::Hlc), "a ninth field does not fit");
        assert_eq!(full.as_slice().len(), MAX_FIELDS);
    }

    #[test]
    fn packed_size_is_minimal() {
        assert_eq!(RecordDescriptor::new(vec![]).unwrap().packed_size(), 1);
        assert_eq!(
            RecordDescriptor::new(vec![ValueType::I32])
                .unwrap()
                .packed_size(),
            2
        );
        assert_eq!(RecordDescriptor::six_i32().packed_size(), 4);
        assert_eq!(
            RecordDescriptor::new(vec![ValueType::I32; 8])
                .unwrap()
                .packed_size(),
            5
        );
    }

    #[test]
    fn predicates() {
        assert!(mixed().has_ts());
        assert!(mixed().has_causal_marker());
        assert!(!RecordDescriptor::six_i32().has_ts());
        assert!(!RecordDescriptor::six_i32().has_causal_marker());
        let conseq_only = RecordDescriptor::new(vec![ValueType::Conseq]).unwrap();
        assert!(conseq_only.has_causal_marker());
    }

    #[test]
    fn display_lists_types() {
        assert_eq!(
            RecordDescriptor::new(vec![ValueType::I32, ValueType::Str])
                .unwrap()
                .to_string(),
            "(i32, str)"
        );
    }

    #[test]
    fn causal_check_values() {
        let fields = vec![Value::Reason(CorrelationId(1))];
        let d = RecordDescriptor::of(&fields).unwrap();
        assert!(d.has_causal_marker());
    }
}
