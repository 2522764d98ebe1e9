//! # brisk-proto — the BRISK transfer protocol messages
//!
//! The transfer protocol (TP) between an external sensor and the ISM is
//! XDR-based (§3.4). Each transport frame carries exactly one
//! [`Message`]; framing (length prefixes) is the transport's job
//! (`brisk-net`), encoding is this crate's.
//!
//! Message set:
//!
//! * [`Message::Hello`] — sent by the EXS when it connects; carries the
//!   protocol magic/version and the node id, which subsequent batches from
//!   this connection implicitly belong to.
//! * [`Message::HelloAck`] — *v2*: the ISM's reply to a v2 `Hello`,
//!   carrying the negotiated protocol version. Never sent to v1 peers
//!   (they would reject the unknown tag), so its absence is itself the
//!   "fall back to v1" signal.
//! * [`Message::EventBatch`] — a batch of event records. "The external
//!   sensor packages instrumentation data in XDR format with the
//!   meta-information header compressed" — each record body embeds its
//!   packed descriptor, see [`brisk_xdr::values`]. Under v2 the batch
//!   carries a per-node monotonic sequence number (`seq: Some(n)`, a
//!   distinct wire tag) so the ISM can acknowledge and deduplicate;
//!   `seq: None` encodes the v1 wire format.
//! * [`Message::BatchAck`] — *v2*: ISM→EXS cumulative acknowledgement:
//!   every sequenced batch with `seq <= ack.seq` has been handed to the
//!   ISM pipeline and may be dropped from the sender's retransmit window.
//!
//! ## Credit-based flow control (v3)
//!
//! A v3 ISM may grant a *credit budget* — the maximum number of records
//! the EXS may have unacknowledged in flight — in `HelloAck` and
//! re-advertise it on every `BatchAck` (absolute value, not a delta, so a
//! lost ack cannot strand credit). Credit rides on two *new* wire tags
//! (`HelloAckCredit`, `BatchAckCredit`) rather than extra fields on the
//! v2 tags, because decoders reject trailing bytes: a v2 peer keeps
//! receiving the exact v2 encodings (`credit: None`) and is none the
//! wiser. `credit: Some(0)` is valid and means "stop sending new batches
//! until replenished" — the EXS may still retransmit its unacknowledged
//! window.
//! * [`Message::SyncPoll`] / [`Message::SyncReply`] /
//!   [`Message::SyncAdjust`] — the clock-synchronization exchange (§3.3).
//!   The poll carries the master send time so the reply can echo it; the
//!   sample index lets the master average several exchanges per round.
//! * [`Message::Shutdown`] — orderly termination.
//!
//! ## Version negotiation
//!
//! `Hello` advertises the sender's version; the receiver accepts anything
//! in `MIN_VERSION..=VERSION` and the connection runs at
//! [`negotiate`]\(peer\) = `min(peer, VERSION)`. A v1 peer therefore
//! interoperates with a v3 ISM (plain unsequenced batches, no acks), a v2
//! peer gets acknowledged, replayable delivery without credit, and two v3
//! endpoints additionally get credit-based flow control — but only when
//! the ISM chooses to grant credit (`credit: None` on a v3 connection
//! falls back to v2 semantics).

#![deny(missing_docs)]
#![deny(unsafe_code)]
// The decode path is a hostile-input boundary; it must never panic.
#![deny(clippy::unwrap_used, clippy::expect_used)]

pub mod dict;
pub mod namespace;

pub use dict::{DescriptorDict, DictKey};
pub use namespace::{NamespaceError, NodePrefix};

use brisk_core::{BriskError, EventRecord, NodeId, UtcMicros};
use brisk_xdr::values::{decode_record_body, encode_record_body};
use brisk_xdr::{decode_record_view, RecordView, XdrDecoder, XdrEncoder};
use std::fmt;

/// Protocol magic: "BRSK".
pub const MAGIC: u32 = 0x4252_534B;

/// Protocol version implemented by this crate.
pub const VERSION: u32 = 3;

/// Oldest protocol version still accepted from peers.
pub const MIN_VERSION: u32 = 1;

/// The version a connection runs at given the peer's advertised version:
/// the highest both sides implement.
pub const fn negotiate(peer_version: u32) -> u32 {
    if peer_version < VERSION {
        peer_version
    } else {
        VERSION
    }
}

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
    /// A `Hello` advertised a version outside `MIN_VERSION..=VERSION`.
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

/// Message discriminants on the wire. `EventBatchSeq`, `BatchAck` and
/// `HelloAck` are v2 additions; `HelloAckCredit` and `BatchAckCredit` are
/// the v3 credit-carrying variants of the latter two, and `Heartbeat` is
/// the v3 liveness probe. Older decoders reject unknown tags, so each is
/// only sent once the peer is known to speak the matching version.
///
/// `EventBatchMulti` is the relay-tier batch format: `EventBatch` /
/// `EventBatchSeq` compress the per-record node id into the batch header
/// (every record in an EXS batch comes from the one node that said
/// `Hello`), but a relay ISM merges many downstream nodes into a single
/// upstream link, so its batches carry one node id per record. Only
/// emitted on negotiated-v3 ISM→ISM links.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u32)]
enum Tag {
    Hello = 1,
    EventBatch = 2,
    SyncPoll = 3,
    SyncReply = 4,
    SyncAdjust = 5,
    Shutdown = 6,
    EventBatchSeq = 7,
    BatchAck = 8,
    HelloAck = 9,
    HelloAckCredit = 10,
    BatchAckCredit = 11,
    Heartbeat = 12,
    EventBatchMulti = 13,
}

impl Tag {
    fn from_u32(v: u32) -> Result<Tag, DecodeError> {
        Ok(match v {
            1 => Tag::Hello,
            2 => Tag::EventBatch,
            3 => Tag::SyncPoll,
            4 => Tag::SyncReply,
            5 => Tag::SyncAdjust,
            6 => Tag::Shutdown,
            7 => Tag::EventBatchSeq,
            8 => Tag::BatchAck,
            9 => Tag::HelloAck,
            10 => Tag::HelloAckCredit,
            11 => Tag::BatchAckCredit,
            12 => Tag::Heartbeat,
            13 => Tag::EventBatchMulti,
            _ => return Err(DecodeError::UnknownTag(v)),
        })
    }
}

/// One protocol message.
#[derive(Clone, Debug, PartialEq)]
pub enum Message {
    /// Connection preamble from the external sensor.
    Hello {
        /// Node this connection serves.
        node: NodeId,
        /// Protocol version spoken by the sender.
        version: u32,
    },
    /// The ISM's reply to a v2+ `Hello`: the negotiated protocol version
    /// and, on v3 connections with flow control enabled, the initial
    /// credit budget.
    HelloAck {
        /// Version the connection will run at (`negotiate(peer)`).
        version: u32,
        /// v3: maximum records the sender may have unacknowledged in
        /// flight. `None` (the v2 wire encoding) disables flow control.
        credit: Option<u64>,
    },
    /// A batch of event records from one node.
    EventBatch {
        /// Originating node (redundant with Hello; kept so a batch is
        /// self-describing for trace files and debugging).
        node: NodeId,
        /// Per-node monotonic batch sequence number. `Some(n)` encodes the
        /// v2 acknowledged-delivery wire format; `None` encodes the v1
        /// format (no ack expected, no dedup possible).
        seq: Option<u64>,
        /// The records, in per-sensor sequence order.
        records: Vec<EventRecord>,
    },
    /// ISM→EXS cumulative acknowledgement of sequenced batches (v2).
    BatchAck {
        /// Every batch with sequence number `<= seq` has been handed to
        /// the ISM pipeline.
        seq: u64,
        /// v3: replenished credit budget (absolute, replaces the previous
        /// grant). `None` (the v2 wire encoding) leaves flow control off.
        credit: Option<u64>,
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
    /// Orderly shutdown notice (either direction).
    Shutdown,
    /// EXS→ISM liveness probe (v3): sent when the connection has been idle
    /// past the heartbeat interval, so the ISM can tell a quiet node from a
    /// silently dead one (a half-open TCP connection never reports). Pure
    /// liveness — no payload, no reply.
    Heartbeat,
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
            Message::HelloAck { version, credit } => match credit {
                Some(credit) => {
                    e.uint(Tag::HelloAckCredit as u32);
                    e.uint(*version);
                    e.uhyper(*credit);
                }
                None => {
                    e.uint(Tag::HelloAck as u32);
                    e.uint(*version);
                }
            },
            Message::EventBatch { node, seq, records } => {
                return encode_batch(*node, *seq, records);
            }
            Message::BatchAck { seq, credit } => match credit {
                Some(credit) => {
                    e.uint(Tag::BatchAckCredit as u32);
                    e.uhyper(*seq);
                    e.uhyper(*credit);
                }
                None => {
                    e.uint(Tag::BatchAck as u32);
                    e.uhyper(*seq);
                }
            },
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
            Message::Shutdown => {
                e.uint(Tag::Shutdown as u32);
            }
            Message::Heartbeat => {
                e.uint(Tag::Heartbeat as u32);
            }
        }
        e.into_bytes()
    }

    /// Decode a transport frame.
    ///
    /// Never panics: arbitrary input yields a typed [`DecodeError`] (which
    /// converts into [`BriskError`] via `?` where the kernel-wide error
    /// type is wanted), and allocation is bounded by the frame length plus
    /// the declared-and-checked record count.
    pub fn decode(frame: &[u8]) -> Result<Message, DecodeError> {
        let mut d = XdrDecoder::new(frame);
        let tag = Tag::from_u32(d.uint()?)?;
        let msg = match tag {
            Tag::Hello => {
                let magic = d.uint()?;
                if magic != MAGIC {
                    return Err(DecodeError::BadMagic(magic));
                }
                let version = d.uint()?;
                if !(MIN_VERSION..=VERSION).contains(&version) {
                    return Err(DecodeError::UnsupportedVersion(version));
                }
                Message::Hello {
                    node: NodeId(d.uint()?),
                    version,
                }
            }
            Tag::HelloAck => Message::HelloAck {
                version: d.uint()?,
                credit: None,
            },
            Tag::HelloAckCredit => Message::HelloAck {
                version: d.uint()?,
                credit: Some(d.uhyper()?),
            },
            Tag::EventBatch | Tag::EventBatchSeq => {
                let node = NodeId(d.uint()?);
                let seq = match tag {
                    Tag::EventBatchSeq => Some(d.uhyper()?),
                    _ => None,
                };
                let count = d.uint()? as usize;
                if count > MAX_BATCH_RECORDS {
                    return Err(DecodeError::TooManyRecords {
                        count,
                        max: MAX_BATCH_RECORDS,
                    });
                }
                let mut records = Vec::with_capacity(count.min(4096));
                for _ in 0..count {
                    records.push(decode_record_body(node, &mut d)?);
                }
                Message::EventBatch { node, seq, records }
            }
            Tag::EventBatchMulti => {
                let node = NodeId(d.uint()?);
                let seq = match d.uint()? {
                    0 => None,
                    _ => Some(d.uhyper()?),
                };
                let count = d.uint()? as usize;
                if count > MAX_BATCH_RECORDS {
                    return Err(DecodeError::TooManyRecords {
                        count,
                        max: MAX_BATCH_RECORDS,
                    });
                }
                let mut records = Vec::with_capacity(count.min(4096));
                for _ in 0..count {
                    let rec_node = NodeId(d.uint()?);
                    records.push(decode_record_body(rec_node, &mut d)?);
                }
                Message::EventBatch { node, seq, records }
            }
            Tag::BatchAck => Message::BatchAck {
                seq: d.uhyper()?,
                credit: None,
            },
            Tag::BatchAckCredit => Message::BatchAck {
                seq: d.uhyper()?,
                credit: Some(d.uhyper()?),
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
            Tag::Shutdown => Message::Shutdown,
            Tag::Heartbeat => Message::Heartbeat,
        };
        d.finish()?;
        Ok(msg)
    }
}

/// Encode an event batch frame straight from a record slice: the bytes
/// [`Message::encode`] produces for `Message::EventBatch { node, seq,
/// records }`, without building (or cloning records into) a `Message`.
///
/// The EXS wire formats compress the node id into the batch header; only
/// a batch whose records all share the header node survives that round
/// trip. A relay batch mixes nodes, so it takes the Multi format, which
/// spends one word per record to keep each origin.
pub fn encode_batch(node: NodeId, seq: Option<u64>, records: &[EventRecord]) -> Vec<u8> {
    let body: usize = records.iter().map(|r| 4 + r.xdr_payload_size()).sum();
    let mut e = XdrEncoder::with_capacity(24 + body);
    if records.iter().any(|r| r.node != node) {
        e.uint(Tag::EventBatchMulti as u32);
        e.uint(node.raw());
        match seq {
            Some(seq) => {
                e.uint(1);
                e.uhyper(seq);
            }
            None => {
                e.uint(0);
            }
        }
        e.uint(records.len() as u32);
        for r in records {
            e.uint(r.node.raw());
            encode_record_body(r, &mut e);
        }
    } else {
        match seq {
            Some(seq) => {
                e.uint(Tag::EventBatchSeq as u32);
                e.uint(node.raw());
                e.uhyper(seq);
            }
            None => {
                e.uint(Tag::EventBatch as u32);
                e.uint(node.raw());
            }
        }
        e.uint(records.len() as u32);
        for r in records {
            encode_record_body(r, &mut e);
        }
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

/// Does this wire tag name an event batch (`EventBatch`, `EventBatchSeq`
/// or `EventBatchMulti`)? Pair with [`peek_tag`] to route frames.
pub const fn is_batch_tag(tag: u32) -> bool {
    tag == Tag::EventBatch as u32
        || tag == Tag::EventBatchSeq as u32
        || tag == Tag::EventBatchMulti as u32
}

/// A fully-validated *borrowing* view over an `EventBatch` /
/// `EventBatchSeq` frame.
///
/// Parsing walks every record body with the same validation as
/// [`Message::decode`] (it shares the single decode implementation in
/// `brisk_xdr::view`), but each record is kept as a [`RecordView`] whose
/// field bytes still point into the arrival buffer — nothing is copied
/// until [`BatchView::materialize`] (or a per-record
/// [`RecordView::materialize`]) is called. It suits readers that inspect
/// a frame without keeping its records (tools, benchmarks, frame
/// classification); the ISM ingest path, which keeps every record,
/// decodes batches once with [`Message::decode`] instead.
#[derive(Debug)]
pub struct BatchView<'a> {
    node: NodeId,
    seq: Option<u64>,
    records: Vec<RecordView<'a>>,
    /// Per-record origin nodes, parallel to `records`. `None` for the
    /// single-node `EventBatch` / `EventBatchSeq` formats, where every
    /// record originates from the header node.
    nodes: Option<Vec<NodeId>>,
}

impl<'a> BatchView<'a> {
    /// Parse and validate a batch frame without copying record payloads.
    ///
    /// The frame must be an `EventBatch` or `EventBatchSeq` (check with
    /// [`peek_tag`] / [`is_batch_tag`] first); any other tag is an
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
        let multi = tag == Tag::EventBatchMulti as u32;
        let node = NodeId(d.uint()?);
        let seq = if tag == Tag::EventBatchSeq as u32 {
            Some(d.uhyper()?)
        } else if multi {
            match d.uint()? {
                0 => None,
                _ => Some(d.uhyper()?),
            }
        } else {
            None
        };
        let count = d.uint()? as usize;
        if count > MAX_BATCH_RECORDS {
            return Err(DecodeError::TooManyRecords {
                count,
                max: MAX_BATCH_RECORDS,
            });
        }
        let mut records = Vec::with_capacity(count.min(4096));
        let mut nodes = multi.then(|| Vec::with_capacity(count.min(4096)));
        for _ in 0..count {
            if let Some(nodes) = nodes.as_mut() {
                nodes.push(NodeId(d.uint()?));
            }
            records.push(decode_record_view(&mut d)?);
        }
        d.finish()?;
        Ok(BatchView {
            node,
            seq,
            records,
            nodes,
        })
    }

    /// Originating node.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Per-node batch sequence number (`None` on the v1 wire format).
    pub fn seq(&self) -> Option<u64> {
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

    /// Copy the records out into owned [`EventRecord`]s — the single
    /// copy the ingest path pays. Records from a Multi-format batch keep
    /// their own origin node; the single-node formats stamp the header
    /// node onto every record.
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

    fn rec(seq: u64, ts: i64) -> EventRecord {
        EventRecord::new(
            NodeId(3),
            SensorId(1),
            EventTypeId(7),
            seq,
            UtcMicros::from_micros(ts),
            vec![Value::I32(seq as i32), Value::Str(format!("r{seq}"))],
        )
        .unwrap()
    }

    #[test]
    fn hello_round_trip() {
        let m = Message::Hello {
            node: NodeId(9),
            version: VERSION,
        };
        assert_eq!(Message::decode(&m.encode()).unwrap(), m);
    }

    #[test]
    fn hello_rejects_bad_magic_and_version() {
        let m = Message::Hello {
            node: NodeId(9),
            version: VERSION,
        };
        let mut bytes = m.encode();
        bytes[4] ^= 0xff; // clobber magic
        assert!(Message::decode(&bytes).is_err());

        let mut bytes = m.encode();
        bytes[11] = 99; // version -> 99
        assert!(Message::decode(&bytes).is_err());
    }

    #[test]
    fn batch_round_trip() {
        let m = Message::EventBatch {
            node: NodeId(3),
            seq: None,
            records: (0..10).map(|i| rec(i, i as i64 * 100)).collect(),
        };
        assert_eq!(Message::decode(&m.encode()).unwrap(), m);
    }

    #[test]
    fn sequenced_batch_round_trip() {
        let m = Message::EventBatch {
            node: NodeId(3),
            seq: Some(u64::MAX - 7),
            records: (0..10).map(|i| rec(i, i as i64 * 100)).collect(),
        };
        assert_eq!(Message::decode(&m.encode()).unwrap(), m);
    }

    fn rec_at(node: u32, seq: u64, ts: i64) -> EventRecord {
        EventRecord::new(
            NodeId(node),
            SensorId(1),
            EventTypeId(7),
            seq,
            UtcMicros::from_micros(ts),
            vec![Value::I32(seq as i32)],
        )
        .unwrap()
    }

    #[test]
    fn multi_node_batch_round_trips() {
        // A relay batch: header node is the relay, records keep their
        // rewritten subtree ids. Both seq variants must survive.
        for seq in [None, Some(0), Some(u64::MAX - 7)] {
            let m = Message::EventBatch {
                node: NodeId(2),
                seq,
                records: vec![
                    rec_at(0x0502, 0, 100),
                    rec_at(0x0902, 1, 200),
                    rec_at(0x0502, 2, 300),
                ],
            };
            let bytes = m.encode();
            assert_eq!(peek_tag(&bytes), Some(13), "{seq:?}");
            assert!(is_batch_tag(13));
            assert_eq!(Message::decode(&bytes).unwrap(), m, "{seq:?}");
        }
    }

    #[test]
    fn single_node_batch_stays_on_the_compact_wire_format() {
        // When every record shares the header node (the EXS case) the
        // encoder must keep emitting the v1/v2 formats old peers accept.
        let m = Message::EventBatch {
            node: NodeId(3),
            seq: Some(9),
            records: (0..4).map(|i| rec(i, i as i64 * 100)).collect(),
        };
        assert_eq!(peek_tag(&m.encode()), Some(7));
        let m = Message::EventBatch {
            node: NodeId(3),
            seq: None,
            records: (0..4).map(|i| rec(i, i as i64 * 100)).collect(),
        };
        assert_eq!(peek_tag(&m.encode()), Some(2));
    }

    #[test]
    fn multi_node_batch_view_materializes_per_record_nodes() {
        let m = Message::EventBatch {
            node: NodeId(2),
            seq: Some(5),
            records: vec![rec_at(0x0502, 0, 100), rec_at(0x0902, 1, 200)],
        };
        let bytes = m.encode();
        let view = BatchView::parse(&bytes).unwrap();
        assert_eq!(view.node(), NodeId(2));
        assert_eq!(view.seq(), Some(5));
        assert_eq!(view.len(), 2);
        let records = view.materialize().unwrap();
        assert_eq!(records[0].node, NodeId(0x0502));
        assert_eq!(records[1].node, NodeId(0x0902));
        match Message::decode(&bytes).unwrap() {
            Message::EventBatch { records: owned, .. } => assert_eq!(owned, records),
            other => panic!("unexpected decode: {other:?}"),
        }
    }

    #[test]
    fn v2_control_messages_round_trip() {
        for m in [
            Message::HelloAck {
                version: VERSION,
                credit: None,
            },
            Message::BatchAck {
                seq: 42,
                credit: None,
            },
            Message::BatchAck {
                seq: 0,
                credit: None,
            },
        ] {
            assert_eq!(Message::decode(&m.encode()).unwrap(), m, "{m:?}");
        }
    }

    #[test]
    fn v3_credit_messages_round_trip() {
        for m in [
            Message::HelloAck {
                version: VERSION,
                credit: Some(10_000),
            },
            Message::HelloAck {
                version: VERSION,
                credit: Some(0),
            },
            Message::BatchAck {
                seq: 42,
                credit: Some(u64::MAX),
            },
            Message::BatchAck {
                seq: 0,
                credit: Some(0),
            },
        ] {
            assert_eq!(Message::decode(&m.encode()).unwrap(), m, "{m:?}");
        }
    }

    #[test]
    fn creditless_acks_use_the_v2_wire_tags() {
        // A credit-less ack must be byte-identical to what a v2 build
        // emits, or v2 peers would reject the frame as an unknown tag.
        let ack = Message::BatchAck {
            seq: 7,
            credit: None,
        };
        assert_eq!(&ack.encode()[..4], &[0, 0, 0, 8], "BatchAck tag");
        let hello_ack = Message::HelloAck {
            version: 2,
            credit: None,
        };
        assert_eq!(&hello_ack.encode()[..4], &[0, 0, 0, 9], "HelloAck tag");
        // And the credit-carrying forms use the new tags.
        let ack = Message::BatchAck {
            seq: 7,
            credit: Some(1),
        };
        assert_eq!(&ack.encode()[..4], &[0, 0, 0, 11], "BatchAckCredit tag");
        let hello_ack = Message::HelloAck {
            version: 3,
            credit: Some(1),
        };
        assert_eq!(
            &hello_ack.encode()[..4],
            &[0, 0, 0, 10],
            "HelloAckCredit tag"
        );
    }

    #[test]
    fn v1_hello_still_accepted() {
        let m = Message::Hello {
            node: NodeId(4),
            version: MIN_VERSION,
        };
        assert_eq!(Message::decode(&m.encode()).unwrap(), m);
    }

    #[test]
    fn negotiate_picks_highest_common_version() {
        assert_eq!(negotiate(1), 1);
        assert_eq!(negotiate(VERSION), VERSION);
        assert_eq!(negotiate(VERSION + 5), VERSION);
    }

    #[test]
    fn empty_batch_round_trip() {
        let m = Message::EventBatch {
            node: NodeId(3),
            seq: None,
            records: vec![],
        };
        assert_eq!(Message::decode(&m.encode()).unwrap(), m);
    }

    #[test]
    fn batch_count_bound_enforced() {
        // Forge a batch header claiming too many records.
        let mut e = XdrEncoder::new();
        e.uint(2); // EventBatch tag
        e.uint(3); // node
        e.uint((MAX_BATCH_RECORDS + 1) as u32);
        assert!(Message::decode(e.as_bytes()).is_err());
    }

    #[test]
    fn sync_messages_round_trip() {
        for m in [
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
            Message::Shutdown,
        ] {
            assert_eq!(Message::decode(&m.encode()).unwrap(), m, "{m:?}");
        }
    }

    #[test]
    fn unknown_tag_rejected() {
        let mut e = XdrEncoder::new();
        e.uint(77);
        assert_eq!(
            Message::decode(e.as_bytes()),
            Err(DecodeError::UnknownTag(77))
        );
    }

    #[test]
    fn heartbeat_round_trip_and_tag() {
        let m = Message::Heartbeat;
        assert_eq!(Message::decode(&m.encode()).unwrap(), m);
        // Tag 12 on the wire: v1/v2 decoders reject it, so heartbeats are
        // only sent once the connection has negotiated v3.
        assert_eq!(&m.encode()[..4], &[0, 0, 0, 12]);
    }

    #[test]
    fn decode_errors_are_typed() {
        let m = Message::Hello {
            node: NodeId(9),
            version: VERSION,
        };
        let mut bytes = m.encode();
        bytes[4] ^= 0xff;
        assert!(matches!(
            Message::decode(&bytes),
            Err(DecodeError::BadMagic(_))
        ));
        let mut bytes = m.encode();
        bytes[11] = 99;
        assert_eq!(
            Message::decode(&bytes),
            Err(DecodeError::UnsupportedVersion(99))
        );
        // And the conversion into the kernel-wide error type categorizes.
        let e: BriskError = DecodeError::UnknownTag(5).into();
        assert!(matches!(e, BriskError::Protocol(_)));
        let e: BriskError =
            DecodeError::Xdr(brisk_xdr::DecodeError::Trailing { remaining: 4 }).into();
        assert!(matches!(e, BriskError::Codec(_)));
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = Message::Shutdown.encode();
        bytes.extend_from_slice(&[0, 0, 0, 0]);
        assert!(Message::decode(&bytes).is_err());
    }

    #[test]
    fn truncated_frames_rejected() {
        let m = Message::EventBatch {
            node: NodeId(3),
            seq: Some(5),
            records: vec![rec(0, 1)],
        };
        let bytes = m.encode();
        for cut in [0, 3, 8, bytes.len() - 1] {
            assert!(Message::decode(&bytes[..cut]).is_err(), "cut {cut}");
        }
    }

    #[test]
    fn batch_wire_size_is_modest() {
        // 256 six-i32 records must stay near 256 * 56 bytes + small header.
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
        let m = Message::EventBatch {
            node: NodeId(1),
            seq: None,
            records,
        };
        let bytes = m.encode();
        assert_eq!(bytes.len(), 12 + 256 * 56);
    }

    #[test]
    fn peek_tag_reads_the_wire_tag() {
        let m = Message::EventBatch {
            node: NodeId(3),
            seq: Some(5),
            records: vec![rec(0, 1)],
        };
        let bytes = m.encode();
        assert_eq!(peek_tag(&bytes), Some(7));
        assert!(is_batch_tag(7) && is_batch_tag(2));
        assert!(!is_batch_tag(1) && !is_batch_tag(8));
        assert_eq!(peek_tag(&bytes[..3]), None);
        assert_eq!(peek_tag(&Message::Heartbeat.encode()), Some(12));
    }

    #[test]
    fn batch_view_matches_owned_decode() {
        for seq in [None, Some(u64::MAX - 7)] {
            let m = Message::EventBatch {
                node: NodeId(3),
                seq,
                records: (0..10).map(|i| rec(i, i as i64 * 100)).collect(),
            };
            let bytes = m.encode();
            let view = BatchView::parse(&bytes).unwrap();
            assert_eq!(view.node(), NodeId(3));
            assert_eq!(view.seq(), seq);
            assert_eq!(view.len(), 10);
            let Message::EventBatch { records, .. } = Message::decode(&bytes).unwrap() else {
                panic!("not a batch");
            };
            assert_eq!(view.materialize().unwrap(), records);
        }
    }

    #[test]
    fn batch_view_rejects_exactly_what_owned_decode_rejects() {
        let m = Message::EventBatch {
            node: NodeId(3),
            seq: Some(9),
            records: (0..4).map(|i| rec(i, i as i64)).collect(),
        };
        let bytes = m.encode();
        // Truncations.
        for cut in 0..bytes.len() {
            let owned = Message::decode(&bytes[..cut]).is_ok();
            let view = BatchView::parse(&bytes[..cut]).is_ok();
            assert_eq!(owned, view, "truncated at {cut}");
        }
        // Trailing bytes.
        let mut long = bytes.clone();
        long.extend_from_slice(&[0, 0, 0, 0]);
        assert!(BatchView::parse(&long).is_err());
        // Single-byte corruptions must agree bit-for-bit with the owned
        // path — the two decoders share one implementation and this pins
        // that property at the frame level.
        for i in 0..bytes.len() {
            for flip in [0x01, 0x80] {
                let mut b = bytes.clone();
                b[i] ^= flip;
                let owned = Message::decode(&b).is_ok();
                let view = BatchView::parse(&b).is_ok();
                assert_eq!(owned, view, "byte {i} flipped by {flip:#x}");
            }
        }
    }

    #[test]
    fn batch_view_rejects_non_batch_frames_and_bounds() {
        let hello = Message::Hello {
            node: NodeId(1),
            version: VERSION,
        }
        .encode();
        assert!(matches!(
            BatchView::parse(&hello),
            Err(DecodeError::UnknownTag(1))
        ));
        let mut e = XdrEncoder::new();
        e.uint(2);
        e.uint(3);
        e.uint((MAX_BATCH_RECORDS + 1) as u32);
        assert!(matches!(
            BatchView::parse(e.as_bytes()),
            Err(DecodeError::TooManyRecords { .. })
        ));
    }

    #[test]
    fn batch_view_records_borrow_the_frame() {
        let m = Message::EventBatch {
            node: NodeId(3),
            seq: None,
            records: vec![rec(1, 10)],
        };
        let bytes = m.encode();
        let view = BatchView::parse(&bytes).unwrap();
        let range = bytes.as_ptr_range();
        for rv in view.records() {
            let fields = rv.fields_bytes();
            assert!(range.contains(&fields.as_ptr()), "view copied the frame");
        }
    }
}
