//! An event batch frame built in place from native ring records.
//!
//! The EXS does not gather records and then encode them: each record it
//! scoops is transcoded straight from its native ring bytes into the
//! frame of the batch being filled ([`brisk_xdr::transcode_record`]).
//! What is only known when the batch leaves is written then: the record
//! count and each traced record's `BatchSend` stamp here, the sequence
//! number by the send window ([`set_batch_seq`]).

use crate::{is_batch_tag, peek_tag, Tag};
use brisk_core::{NodeId, Result, UtcMicros};
use brisk_xdr::{patch_send_stamp, transcode_record, Scoop, Transcoded};

/// Header bytes of a batch frame: tag, node, seq (two words), the
/// per-record-node flag and the record count.
const HEADER_LEN: usize = 24;
const SEQ_AT: usize = 8;
const FLAG_AT: usize = 16;
const COUNT_AT: usize = 20;

/// Overwrite the sequence number in an encoded batch frame's header. The
/// send window numbers each batch this way as it takes it, so a frame
/// can be built before its number is known.
pub fn set_batch_seq(frame: &mut [u8], seq: u64) {
    debug_assert!(peek_tag(frame).is_some_and(is_batch_tag));
    frame[SEQ_AT..SEQ_AT + 8].copy_from_slice(&seq.to_be_bytes());
}

/// A batch frame for one sending node, filled record by record. When the
/// batch leaves, [`BatchBuilder::finish`] returns the bytes
/// [`crate::encode_batch`] writes for the same records after the EXS's
/// scoop and send stamps; like it, the builder names the node once in the
/// header unless a record from another node joins, in which case every
/// record carries its own node word.
#[derive(Debug)]
pub struct BatchBuilder {
    node: NodeId,
    frame: Vec<u8>,
    count: u32,
    per_record_nodes: bool,
    /// Frame offset where each record begins (at its node word once the
    /// frame names nodes per record).
    starts: Vec<usize>,
    /// Frame offsets of the traced records' send-stamp timestamps.
    send_slots: Vec<usize>,
}

impl BatchBuilder {
    /// An empty batch of `node`'s.
    pub fn new(node: NodeId) -> Self {
        let mut b = BatchBuilder {
            node,
            frame: Vec::new(),
            count: 0,
            per_record_nodes: false,
            starts: Vec::new(),
            send_slots: Vec::new(),
        };
        b.begin();
        b
    }

    fn begin(&mut self) {
        self.frame
            .extend_from_slice(&(Tag::EventBatch as u32).to_be_bytes());
        self.frame.extend_from_slice(&self.node.raw().to_be_bytes());
        self.frame.resize(HEADER_LEN, 0); // seq, flag and count come later
        self.count = 0;
        self.per_record_nodes = false;
        self.starts.clear();
        self.send_slots.clear();
    }

    /// Records in the batch so far.
    pub fn len(&self) -> usize {
        self.count as usize
    }

    /// Is the batch empty?
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Transcode the native record at the front of `native` onto the
    /// batch, applying `scoop`. A record that fails to decode leaves the
    /// batch as it was.
    pub fn push_native(&mut self, native: &[u8], scoop: &Scoop) -> Result<Transcoded> {
        let start = self.frame.len();
        if self.per_record_nodes {
            // A record shorter than its node word fails in the transcoder.
            if let Some(word) = native.get(..4) {
                self.frame
                    .extend_from_slice(&[word[3], word[2], word[1], word[0]]);
            }
        }
        let t = match transcode_record(native, scoop, &mut self.frame) {
            Ok(t) => t,
            Err(e) => {
                self.frame.truncate(start);
                return Err(e);
            }
        };
        self.starts.push(start);
        self.send_slots.extend(t.send_slot);
        self.count += 1;
        if t.node != self.node && !self.per_record_nodes {
            self.name_nodes_per_record(t.node);
        }
        Ok(t)
    }

    /// Switch the frame to one node word per record: every record so far
    /// came from the header node except the last, from `last`.
    fn name_nodes_per_record(&mut self, last: NodeId) {
        let mut frame = Vec::with_capacity(self.frame.len() + 4 * self.starts.len());
        frame.extend_from_slice(&self.frame[..HEADER_LEN]);
        frame[FLAG_AT..FLAG_AT + 4].copy_from_slice(&1u32.to_be_bytes());
        let mut slots = self.send_slots.iter_mut().peekable();
        let n = self.starts.len();
        for i in 0..n {
            let (from, to) = (
                self.starts[i],
                self.starts.get(i + 1).copied().unwrap_or(self.frame.len()),
            );
            let node = if i + 1 == n { last } else { self.node };
            frame.extend_from_slice(&node.raw().to_be_bytes());
            // Each record moves by the node words written up to here.
            let shift = 4 * (i + 1);
            while let Some(slot) = slots.next_if(|s| **s < to) {
                *slot += shift;
            }
            self.starts[i] = from + 4 * i;
            frame.extend_from_slice(&self.frame[from..to]);
        }
        self.frame = frame;
        self.per_record_nodes = true;
    }

    /// Close the batch: stamp `BatchSend` at `send_at` on its traced
    /// records, write the record count and return the frame (its sequence
    /// number is left to the send window). The builder starts the next
    /// batch with room for one of the same size.
    pub fn finish(&mut self, send_at: UtcMicros) -> Vec<u8> {
        for &slot in &self.send_slots {
            patch_send_stamp(&mut self.frame, slot, send_at);
        }
        self.frame[COUNT_AT..COUNT_AT + 4].copy_from_slice(&self.count.to_be_bytes());
        let len = self.frame.len();
        let frame = std::mem::replace(&mut self.frame, Vec::with_capacity(len + len / 8));
        self.begin();
        frame
    }
}
