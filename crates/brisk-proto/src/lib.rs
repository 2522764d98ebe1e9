//! # brisk-proto — the BRISK transfer protocol messages
//!
//! The transfer protocol (TP) between an external sensor and the ISM is
//! XDR-based (§3.4). Each transport frame carries exactly one
//! [`Message`]; framing (length prefixes) is the transport's job
//! (`brisk-net`), encoding is this crate's.
//!
//! One protocol version ([`VERSION`]) with nine messages:
//!
//! * [`Message::Hello`] — the sender's preamble: protocol magic, version
//!   and the node id every later batch on the connection belongs to. A
//!   `Hello` of any other version is rejected as
//!   [`DecodeError::UnsupportedVersion`].
//! * [`Message::HelloAck`] — the ISM's answer, carrying the initial
//!   credit grant.
//! * [`Message::EventBatch`] — a sequenced batch of event records. "The
//!   external sensor packages instrumentation data in XDR format with the
//!   meta-information header compressed" — each record body embeds its
//!   packed descriptor, see [`brisk_xdr::values`]. An EXS batch names its
//!   node once, in the header; a relay batch, which merges many nodes,
//!   carries one node id per record. The EXS builds its batch frames in
//!   place, transcoding each record from its native ring bytes
//!   ([`BatchBuilder`]); the relay encodes its merged records with
//!   [`encode_batch`].
//! * [`Message::BatchAck`] — ISM→sender cumulative acknowledgement: every
//!   batch with `seq <= ack.seq` has been handed to the ISM pipeline and
//!   may leave the sender's retransmit window. It re-advertises the
//!   credit grant.
//! * [`Message::SyncPoll`] / [`Message::SyncReply`] /
//!   [`Message::SyncAdjust`] — the clock-synchronization exchange (§3.3).
//!   The poll carries the master send time so the reply can echo it; the
//!   sample index lets the master average several exchanges per round.
//! * [`Message::Heartbeat`] — sender liveness on an idle link.
//! * [`Message::Shutdown`] — orderly termination.
//!
//! ## Credit
//!
//! A grant is the maximum number of records the sender may have
//! unacknowledged in flight. It is absolute, not a delta, so a lost ack
//! cannot strand credit. A grant of 0 means "send no new batches until
//! replenished" (the sender may still replay its window);
//! [`UNLIMITED_CREDIT`] turns flow control off.

#![deny(missing_docs)]
#![deny(unsafe_code)]
// The decode path is a hostile-input boundary; it must never panic.
#![deny(clippy::unwrap_used, clippy::expect_used)]

mod builder;
pub mod dict;
pub mod namespace;

pub use brisk_xdr::{Scoop, Transcoded};
pub use builder::{set_batch_seq, BatchBuilder};
pub use dict::{DescriptorDict, DictKey};
pub use namespace::{NamespaceError, NodePrefix};

use brisk_core::{BriskError, EventRecord, NodeId, UtcMicros};
use brisk_xdr::values::{decode_record_body, encode_record_body};
use brisk_xdr::{decode_record_view, RecordView, XdrDecoder, XdrEncoder};
use std::fmt;

/// Protocol magic: "BRSK".
pub const MAGIC: u32 = 0x4252_534B;

/// The protocol version; a `Hello` advertising any other is rejected.
pub const VERSION: u32 = 4;

/// The credit grant that disables flow control.
pub const UNLIMITED_CREDIT: u64 = u64::MAX;

/// Maximum records accepted in one batch.
pub const MAX_BATCH_RECORDS: usize = 65_536;

/// Why a frame failed to decode into a [`Message`]. Typed so the ingest
/// layers (ISM pump quarantine, EXS control loop) can count and budget
/// protocol errors without string matching; converts into
/// [`BriskError`] for callers that propagate through the kernel-wide
/// error type.
#[derive(Clone, Debug, PartialEq)]
pub enum DecodeError {
    /// The tag word named no known message kind.
    UnknownTag(u32),
    /// A `Hello` carried the wrong protocol magic.
    BadMagic(u32),
    /// A `Hello` advertised a version other than [`VERSION`].
    UnsupportedVersion(u32),
    /// An `EventBatch` declared more records than [`MAX_BATCH_RECORDS`].
    TooManyRecords {
        /// Declared record count.
        count: usize,
        /// Permitted maximum.
        max: usize,
    },
    /// A record body inside a batch failed semantic validation.
    Record(String),
    /// The underlying XDR primitives failed (truncation, padding, bounds,
    /// trailing bytes, ...).
    Xdr(brisk_xdr::DecodeError),
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::UnknownTag(v) => write!(f, "unknown message tag {v}"),
            DecodeError::BadMagic(m) => {
                write!(f, "bad magic {m:#x}, expected {MAGIC:#x}")
            }
            DecodeError::UnsupportedVersion(v) => {
                write!(f, "unsupported protocol version {v}")
            }
            DecodeError::TooManyRecords { count, max } => {
                write!(f, "batch of {count} records exceeds {max}")
            }
            DecodeError::Record(m) => write!(f, "bad record in batch: {m}"),
            DecodeError::Xdr(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for DecodeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DecodeError::Xdr(e) => Some(e),
            _ => None,
        }
    }
}

impl From<brisk_xdr::DecodeError> for DecodeError {
    fn from(e: brisk_xdr::DecodeError) -> Self {
        DecodeError::Xdr(e)
    }
}

impl From<BriskError> for DecodeError {
    fn from(e: BriskError) -> Self {
        DecodeError::Record(e.to_string())
    }
}

impl From<DecodeError> for BriskError {
    fn from(e: DecodeError) -> Self {
        match e {
            DecodeError::UnknownTag(_)
            | DecodeError::BadMagic(_)
            | DecodeError::UnsupportedVersion(_)
            | DecodeError::TooManyRecords { .. } => BriskError::Protocol(e.to_string()),
            DecodeError::Record(_) | DecodeError::Xdr(_) => BriskError::Codec(e.to_string()),
        }
    }
}

/// Message discriminants on the wire. `Hello` keeps tag 1 and its layout
/// in every version, so a peer of another version is always told apart
/// by its version word, never misread.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u32)]
enum Tag {
    Hello = 1,
    HelloAck = 2,
    EventBatch = 3,
    BatchAck = 4,
    SyncPoll = 5,
    SyncReply = 6,
    SyncAdjust = 7,
    Heartbeat = 8,
    Shutdown = 9,
}

impl Tag {
    fn from_u32(v: u32) -> Result<Tag, DecodeError> {
        Ok(match v {
            1 => Tag::Hello,
            2 => Tag::HelloAck,
            3 => Tag::EventBatch,
            4 => Tag::BatchAck,
            5 => Tag::SyncPoll,
            6 => Tag::SyncReply,
            7 => Tag::SyncAdjust,
            8 => Tag::Heartbeat,
            9 => Tag::Shutdown,
            _ => return Err(DecodeError::UnknownTag(v)),
        })
    }
}

/// One protocol message.
#[derive(Clone, Debug, PartialEq)]
pub enum Message {
    /// Connection preamble from the sender.
    Hello {
        /// Node this connection serves.
        node: NodeId,
        /// Protocol version spoken by the sender.
        version: u32,
    },
    /// The ISM's reply to a `Hello`.
    HelloAck {
        /// Maximum records the sender may have unacknowledged in flight
        /// ([`UNLIMITED_CREDIT`] when flow control is off).
        credit: u64,
    },
    /// A batch of event records.
    EventBatch {
        /// Sending node: the one that said `Hello`. It is also the origin
        /// of every record unless the records name their own (a relay
        /// batch).
        node: NodeId,
        /// Per-sender monotonic batch sequence number, so the ISM can
        /// acknowledge and deduplicate.
        seq: u64,
        /// The records, in per-sensor sequence order.
        records: Vec<EventRecord>,
    },
    /// ISM→sender cumulative acknowledgement.
    BatchAck {
        /// Every batch with sequence number `<= seq` has been handed to
        /// the ISM pipeline.
        seq: u64,
        /// Replenished credit (absolute, replaces the previous grant).
        credit: u64,
    },
    /// Master→slave: "what time is it?" — sample `sample` of round `round`.
    SyncPoll {
        /// Synchronization round number.
        round: u64,
        /// Sample index within the round.
        sample: u32,
        /// Master clock at send time, echoed back in the reply.
        master_send: UtcMicros,
    },
    /// Slave→master reply to a poll.
    SyncReply {
        /// Round number echoed from the poll.
        round: u64,
        /// Sample index echoed from the poll.
        sample: u32,
        /// Master send time echoed from the poll.
        master_send: UtcMicros,
        /// Slave's corrected clock reading when the poll arrived.
        slave_time: UtcMicros,
    },
    /// Master→slave: advance your correction value.
    SyncAdjust {
        /// Round that produced this correction.
        round: u64,
        /// Microseconds to add to the slave's correction value.
        advance_us: i64,
    },
    /// Sender→ISM liveness probe, sent when the connection has been idle
    /// past the heartbeat interval, so the ISM can tell a quiet node from a
    /// silently dead one (a half-open TCP connection never reports). Pure
    /// liveness — no payload, no reply.
    Heartbeat,
    /// Orderly shutdown notice (either direction).
    Shutdown,
}

impl Message {
    /// Encode into a transport frame.
    pub fn encode(&self) -> Vec<u8> {
        let mut e = XdrEncoder::with_capacity(64);
        match self {
            Message::Hello { node, version } => {
                e.uint(Tag::Hello as u32);
                e.uint(MAGIC);
                e.uint(*version);
                e.uint(node.raw());
            }
            Message::HelloAck { credit } => {
                e.uint(Tag::HelloAck as u32);
                e.uhyper(*credit);
            }
            Message::EventBatch { node, seq, records } => {
                return encode_batch(*node, *seq, records);
            }
            Message::BatchAck { seq, credit } => {
                e.uint(Tag::BatchAck as u32);
                e.uhyper(*seq);
                e.uhyper(*credit);
            }
            Message::SyncPoll {
                round,
                sample,
                master_send,
            } => {
                e.uint(Tag::SyncPoll as u32);
                e.uhyper(*round);
                e.uint(*sample);
                e.hyper(master_send.as_micros());
            }
            Message::SyncReply {
                round,
                sample,
                master_send,
                slave_time,
            } => {
                e.uint(Tag::SyncReply as u32);
                e.uhyper(*round);
                e.uint(*sample);
                e.hyper(master_send.as_micros());
                e.hyper(slave_time.as_micros());
            }
            Message::SyncAdjust { round, advance_us } => {
                e.uint(Tag::SyncAdjust as u32);
                e.uhyper(*round);
                e.hyper(*advance_us);
            }
            Message::Heartbeat => {
                e.uint(Tag::Heartbeat as u32);
            }
            Message::Shutdown => {
                e.uint(Tag::Shutdown as u32);
            }
        }
        e.into_bytes()
    }

    /// Decode a transport frame.
    ///
    /// Never panics: arbitrary input yields a typed [`DecodeError`] (which
    /// converts into [`BriskError`] via `?` where the kernel-wide error
    /// type is wanted), and allocation is bounded by the frame length plus
    /// the declared-and-checked record count. A batch is validated and
    /// materialized in one pass over its bytes.
    pub fn decode(frame: &[u8]) -> Result<Message, DecodeError> {
        let mut d = XdrDecoder::new(frame);
        let msg = match Tag::from_u32(d.uint()?)? {
            Tag::Hello => {
                let magic = d.uint()?;
                if magic != MAGIC {
                    return Err(DecodeError::BadMagic(magic));
                }
                let version = d.uint()?;
                if version != VERSION {
                    return Err(DecodeError::UnsupportedVersion(version));
                }
                Message::Hello {
                    node: NodeId(d.uint()?),
                    version,
                }
            }
            Tag::HelloAck => Message::HelloAck {
                credit: d.uhyper()?,
            },
            Tag::EventBatch => {
                let h = BatchHeader::read(&mut d)?;
                let mut records = Vec::with_capacity(h.count.min(4096));
                for _ in 0..h.count {
                    let node = h.record_node(&mut d)?;
                    records.push(decode_record_body(node, &mut d)?);
                }
                Message::EventBatch {
                    node: h.node,
                    seq: h.seq,
                    records,
                }
            }
            Tag::BatchAck => Message::BatchAck {
                seq: d.uhyper()?,
                credit: d.uhyper()?,
            },
            Tag::SyncPoll => Message::SyncPoll {
                round: d.uhyper()?,
                sample: d.uint()?,
                master_send: UtcMicros::from_micros(d.hyper()?),
            },
            Tag::SyncReply => Message::SyncReply {
                round: d.uhyper()?,
                sample: d.uint()?,
                master_send: UtcMicros::from_micros(d.hyper()?),
                slave_time: UtcMicros::from_micros(d.hyper()?),
            },
            Tag::SyncAdjust => Message::SyncAdjust {
                round: d.uhyper()?,
                advance_us: d.hyper()?,
            },
            Tag::Heartbeat => Message::Heartbeat,
            Tag::Shutdown => Message::Shutdown,
        };
        d.finish()?;
        Ok(msg)
    }
}

/// The head of a batch frame after its tag: node, seq, whether each
/// record names its own node, and the checked record count. The one
/// reader of batch headers, shared by [`Message::decode`] and
/// [`BatchView::parse`].
struct BatchHeader {
    node: NodeId,
    seq: u64,
    per_record_nodes: bool,
    count: usize,
}

impl BatchHeader {
    fn read(d: &mut XdrDecoder<'_>) -> Result<BatchHeader, DecodeError> {
        let node = NodeId(d.uint()?);
        let seq = d.uhyper()?;
        let per_record_nodes = d.boolean()?;
        let count = d.uint()? as usize;
        if count > MAX_BATCH_RECORDS {
            return Err(DecodeError::TooManyRecords {
                count,
                max: MAX_BATCH_RECORDS,
            });
        }
        Ok(BatchHeader {
            node,
            seq,
            per_record_nodes,
            count,
        })
    }

    /// The origin of the next record: its own node word, or the header's.
    fn record_node(&self, d: &mut XdrDecoder<'_>) -> Result<NodeId, DecodeError> {
        Ok(if self.per_record_nodes {
            NodeId(d.uint()?)
        } else {
            self.node
        })
    }
}

/// Encode an event batch frame straight from a record slice: the bytes
/// [`Message::encode`] produces for `Message::EventBatch { node, seq,
/// records }`, without building (or cloning records into) a `Message`.
///
/// When every record comes from `node` (an EXS batch) the node id is
/// written once, in the header; a batch that mixes nodes (a relay batch)
/// spends one word per record to keep each origin.
pub fn encode_batch(node: NodeId, seq: u64, records: &[EventRecord]) -> Vec<u8> {
    let per_record_nodes = records.iter().any(|r| r.node != node);
    let per_record = if per_record_nodes { 8 } else { 4 };
    let body: usize = records
        .iter()
        .map(|r| per_record + r.xdr_payload_size())
        .sum();
    let mut e = XdrEncoder::with_capacity(24 + body);
    e.uint(Tag::EventBatch as u32);
    e.uint(node.raw());
    e.uhyper(seq);
    e.boolean(per_record_nodes);
    e.uint(records.len() as u32);
    for r in records {
        if per_record_nodes {
            e.uint(r.node.raw());
        }
        encode_record_body(r, &mut e);
    }
    e.into_bytes()
}

/// Read a frame's wire tag without decoding the body. `None` when the
/// frame is shorter than one XDR word (such a frame can never decode).
///
/// Pair with [`is_batch_tag`] to tell event batches (the hot traffic)
/// from the rare, small control messages without decoding either.
pub fn peek_tag(frame: &[u8]) -> Option<u32> {
    let word: [u8; 4] = frame.get(..4)?.try_into().ok()?;
    Some(u32::from_be_bytes(word))
}

/// Does this wire tag name an event batch? Pair with [`peek_tag`] to
/// route frames.
pub const fn is_batch_tag(tag: u32) -> bool {
    tag == Tag::EventBatch as u32
}

/// A fully-validated *borrowing* view over an `EventBatch` frame.
///
/// Parsing walks every record body with the same validation as
/// [`Message::decode`] (both read the header through one function and the
/// bodies through the single decode implementation in `brisk_xdr::view`),
/// but each record is kept as a [`RecordView`] whose field bytes still
/// point into the arrival buffer — nothing is copied until
/// [`BatchView::materialize`] (or a per-record
/// [`RecordView::materialize`]) is called. It suits readers that inspect
/// a frame without keeping its records (tools, benchmarks, frame
/// classification); the ISM ingest path, which keeps every record,
/// decodes batches once with [`Message::decode`] instead.
#[derive(Debug)]
pub struct BatchView<'a> {
    node: NodeId,
    seq: u64,
    records: Vec<RecordView<'a>>,
    /// Per-record origin nodes, parallel to `records`. `None` when every
    /// record originates from the header node.
    nodes: Option<Vec<NodeId>>,
}

impl<'a> BatchView<'a> {
    /// Parse and validate a batch frame without copying record payloads.
    ///
    /// The frame must be an `EventBatch` (check with [`peek_tag`] /
    /// [`is_batch_tag`] first); any other tag is an
    /// [`DecodeError::UnknownTag`] from this constructor's point of view.
    /// Validation is exhaustive — bounds, descriptor, every field, no
    /// trailing bytes — so a frame this accepts is exactly a frame
    /// [`Message::decode`] accepts.
    pub fn parse(frame: &'a [u8]) -> Result<BatchView<'a>, DecodeError> {
        let mut d = XdrDecoder::new(frame);
        let tag = d.uint()?;
        if !is_batch_tag(tag) {
            return Err(DecodeError::UnknownTag(tag));
        }
        let h = BatchHeader::read(&mut d)?;
        let mut records = Vec::with_capacity(h.count.min(4096));
        let mut nodes = h
            .per_record_nodes
            .then(|| Vec::with_capacity(h.count.min(4096)));
        for _ in 0..h.count {
            let node = h.record_node(&mut d)?;
            if let Some(nodes) = nodes.as_mut() {
                nodes.push(node);
            }
            records.push(decode_record_view(&mut d)?);
        }
        d.finish()?;
        Ok(BatchView {
            node: h.node,
            seq: h.seq,
            records,
            nodes,
        })
    }

    /// Sending node.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Per-sender batch sequence number.
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// Number of records in the batch.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Is the batch empty?
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// The validated record views, still borrowing the frame.
    pub fn records(&self) -> &[RecordView<'a>] {
        &self.records
    }

    /// Copy the records out into owned [`EventRecord`]s. Records that
    /// named their own node keep it; the others get the header node.
    pub fn materialize(&self) -> Result<Vec<EventRecord>, DecodeError> {
        let mut out = Vec::with_capacity(self.records.len());
        for (i, rv) in self.records.iter().enumerate() {
            let node = match &self.nodes {
                Some(nodes) => nodes[i],
                None => self.node,
            };
            out.push(rv.materialize(node)?);
        }
        Ok(out)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use brisk_core::{EventTypeId, SensorId, Value};

    fn rec_at(node: u32, seq: u64, ts: i64) -> EventRecord {
        EventRecord::new(
            NodeId(node),
            SensorId(1),
            EventTypeId(7),
            seq,
            UtcMicros::from_micros(ts),
            vec![Value::I32(seq as i32), Value::Str(format!("r{seq}"))],
        )
        .unwrap()
    }

    fn rec(seq: u64, ts: i64) -> EventRecord {
        rec_at(3, seq, ts)
    }

    fn batch(seq: u64, n: u64) -> Message {
        Message::EventBatch {
            node: NodeId(3),
            seq,
            records: (0..n).map(|i| rec(i, i as i64 * 100)).collect(),
        }
    }

    fn relay_batch(seq: u64) -> Message {
        // Header node is the relay; records keep their subtree ids.
        Message::EventBatch {
            node: NodeId(2),
            seq,
            records: vec![
                rec_at(0x0502, 0, 100),
                rec_at(0x0902, 1, 200),
                rec_at(0x0502, 2, 300),
            ],
        }
    }

    fn hello() -> Message {
        Message::Hello {
            node: NodeId(9),
            version: VERSION,
        }
    }

    #[test]
    fn every_message_round_trips() {
        for m in [
            hello(),
            Message::HelloAck { credit: 0 },
            Message::HelloAck { credit: 10_000 },
            Message::HelloAck {
                credit: UNLIMITED_CREDIT,
            },
            batch(0, 0),
            batch(u64::MAX - 7, 10),
            relay_batch(5),
            Message::BatchAck { seq: 0, credit: 0 },
            Message::BatchAck {
                seq: 42,
                credit: UNLIMITED_CREDIT,
            },
            Message::SyncPoll {
                round: 5,
                sample: 2,
                master_send: UtcMicros::from_micros(123),
            },
            Message::SyncReply {
                round: 5,
                sample: 2,
                master_send: UtcMicros::from_micros(123),
                slave_time: UtcMicros::from_micros(456),
            },
            Message::SyncAdjust {
                round: 5,
                advance_us: -42,
            },
            Message::Heartbeat,
            Message::Shutdown,
        ] {
            assert_eq!(Message::decode(&m.encode()).unwrap(), m, "{m:?}");
        }
    }

    #[test]
    fn the_nine_messages_use_tags_one_to_nine() {
        let tags: Vec<Option<u32>> = [
            hello(),
            Message::HelloAck { credit: 1 },
            batch(1, 1),
            Message::BatchAck { seq: 1, credit: 1 },
            Message::SyncPoll {
                round: 0,
                sample: 0,
                master_send: UtcMicros::ZERO,
            },
            Message::SyncReply {
                round: 0,
                sample: 0,
                master_send: UtcMicros::ZERO,
                slave_time: UtcMicros::ZERO,
            },
            Message::SyncAdjust {
                round: 0,
                advance_us: 0,
            },
            Message::Heartbeat,
            Message::Shutdown,
        ]
        .iter()
        .map(|m| peek_tag(&m.encode()))
        .collect();
        assert_eq!(tags, (1..=9).map(Some).collect::<Vec<_>>());
        assert_eq!(peek_tag(&relay_batch(1).encode()), Some(3));
        assert!(is_batch_tag(3));
        assert!((1..=9).filter(|t| *t != 3).all(|t| !is_batch_tag(t)));
        assert_eq!(peek_tag(&[0, 0, 3]), None);
    }

    #[test]
    fn hello_of_any_other_version_is_rejected() {
        for version in [0, 1, 2, VERSION - 1, VERSION + 1, 99] {
            let mut bytes = hello().encode();
            bytes[8..12].copy_from_slice(&version.to_be_bytes());
            assert_eq!(
                Message::decode(&bytes),
                Err(DecodeError::UnsupportedVersion(version))
            );
        }
        let mut bytes = hello().encode();
        bytes[4] ^= 0xff; // clobber magic
        assert!(matches!(
            Message::decode(&bytes),
            Err(DecodeError::BadMagic(_))
        ));
    }

    #[test]
    fn exs_batch_names_its_node_once_and_relay_batch_per_record() {
        // 256 six-i32 records are 56 bytes each behind a 24-byte header:
        // tag, node, seq (two words), per-record-node flag, count.
        let records: Vec<EventRecord> = (0..256)
            .map(|i| {
                EventRecord::new(
                    NodeId(1),
                    SensorId(0),
                    EventTypeId(1),
                    i,
                    UtcMicros::from_micros(i as i64),
                    vec![Value::I32(0); 6],
                )
                .unwrap()
            })
            .collect();
        assert_eq!(encode_batch(NodeId(1), 7, &records).len(), 24 + 256 * 56);
        // The same records relayed under another header node carry one
        // node word each.
        assert_eq!(
            encode_batch(NodeId(2), 7, &records).len(),
            24 + 256 * (4 + 56)
        );
    }

    #[test]
    fn relay_batch_view_materializes_per_record_nodes() {
        let bytes = relay_batch(5).encode();
        let view = BatchView::parse(&bytes).unwrap();
        assert_eq!((view.node(), view.seq(), view.len()), (NodeId(2), 5, 3));
        let records = view.materialize().unwrap();
        let nodes: Vec<NodeId> = records.iter().map(|r| r.node).collect();
        assert_eq!(nodes, [NodeId(0x0502), NodeId(0x0902), NodeId(0x0502)]);
        match Message::decode(&bytes).unwrap() {
            Message::EventBatch { records: owned, .. } => assert_eq!(owned, records),
            other => panic!("unexpected decode: {other:?}"),
        }
    }

    #[test]
    fn batch_header_bounds_are_enforced() {
        let forged = |flag: u32, count: u32| {
            let mut e = XdrEncoder::new();
            e.uint(Tag::EventBatch as u32);
            e.uint(3); // node
            e.uhyper(1); // seq
            e.uint(flag);
            e.uint(count);
            e.into_bytes()
        };
        let bomb = forged(0, (MAX_BATCH_RECORDS + 1) as u32);
        assert!(matches!(
            Message::decode(&bomb),
            Err(DecodeError::TooManyRecords { .. })
        ));
        assert!(matches!(
            BatchView::parse(&bomb),
            Err(DecodeError::TooManyRecords { .. })
        ));
        // The per-record-node flag is an XDR bool: 0 or 1, nothing else.
        assert!(Message::decode(&forged(0, 0)).is_ok());
        assert!(Message::decode(&forged(1, 0)).is_ok());
        assert_eq!(
            Message::decode(&forged(2, 0)),
            Err(DecodeError::Xdr(brisk_xdr::DecodeError::BadBool(2)))
        );
    }

    #[test]
    fn unknown_tags_rejected() {
        for tag in [0, 10, 13, 77] {
            let mut e = XdrEncoder::new();
            e.uint(tag);
            assert_eq!(
                Message::decode(e.as_bytes()),
                Err(DecodeError::UnknownTag(tag))
            );
        }
    }

    #[test]
    fn decode_errors_convert_by_category() {
        let e: BriskError = DecodeError::UnsupportedVersion(3).into();
        assert!(matches!(e, BriskError::Protocol(_)));
        let e: BriskError = DecodeError::UnknownTag(77).into();
        assert!(matches!(e, BriskError::Protocol(_)));
        let e: BriskError =
            DecodeError::Xdr(brisk_xdr::DecodeError::Trailing { remaining: 4 }).into();
        assert!(matches!(e, BriskError::Codec(_)));
    }

    #[test]
    fn trailing_and_truncated_frames_rejected() {
        let mut bytes = Message::Shutdown.encode();
        bytes.extend_from_slice(&[0, 0, 0, 0]);
        assert!(Message::decode(&bytes).is_err());
        let bytes = batch(5, 1).encode();
        for cut in [0, 3, 8, bytes.len() - 1] {
            assert!(Message::decode(&bytes[..cut]).is_err(), "cut {cut}");
        }
    }

    #[test]
    fn batch_view_rejects_non_batch_frames() {
        assert!(matches!(
            BatchView::parse(&hello().encode()),
            Err(DecodeError::UnknownTag(1))
        ));
        let mut long = batch(1, 2).encode();
        long.extend_from_slice(&[0, 0, 0, 0]);
        assert!(BatchView::parse(&long).is_err());
    }

    #[test]
    fn batch_view_records_borrow_the_frame() {
        let bytes = batch(1, 1).encode();
        let view = BatchView::parse(&bytes).unwrap();
        let range = bytes.as_ptr_range();
        for rv in view.records() {
            let fields = rv.fields_bytes();
            assert!(range.contains(&fields.as_ptr()), "view copied the frame");
        }
    }
}
