//! ISM output stage (§3.5, Fig. 1 right side).
//!
//! "Each instrumentation data record, after being extracted from the ISM's
//! heap, is written to a memory buffer using the same binary structure used
//! by the NOTICE macros. Optionally, a PICL trace record can be generated
//! … or it may pass instrumentation data to a list of CORBA-enabled visual
//! objects." The visual-object path is the [`EventSink`] trait; its
//! concrete implementations (and the memory-buffer consumer utilities)
//! live in `brisk-consumers`.

use brisk_core::{binenc, BriskError, EventRecord, Result};
use brisk_picl::{PiclWriter, TsMode};
use brisk_telemetry::{Counter, Registry};
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::io::Write;
use std::path::Path;
use std::sync::Arc;

pub use brisk_core::sink::EventSink;

/// Size of one memory-buffer chunk. Records are packed back to back into
/// chunks of this size (a record larger than a chunk gets a chunk of its
/// own), so the buffer allocates per chunk, not per record.
const CHUNK_BYTES: usize = 64 * 1024;

/// Where one held record's bytes live.
#[derive(Clone, Copy)]
struct Span {
    /// Sequence number of the chunk holding the record (see
    /// [`MemoryBufferInner::first_chunk`]).
    chunk: u64,
    /// Byte offset of the record within its chunk.
    offset: u32,
    /// Encoded length of the record.
    len: u32,
}

struct MemoryBufferInner {
    /// Chunks of back-to-back encoded records, oldest first; records are
    /// appended to the last one.
    chunks: VecDeque<Vec<u8>>,
    /// Sequence number of `chunks.front()`.
    first_chunk: u64,
    /// One emptied chunk kept for reuse, so a buffer at its byte bound
    /// evicts and refills without allocating.
    spare: Option<Vec<u8>>,
    /// Offset table: one span per held record, oldest first.
    spans: VecDeque<Span>,
    /// Total encoded bytes currently held (the sum of the spans' lengths;
    /// chunk slack does not count against the bound).
    bytes: usize,
    /// Global index of `spans.front()` (grows monotonically as old
    /// records are evicted).
    first_index: u64,
    evicted: u64,
    written: u64,
}

impl MemoryBufferInner {
    /// Append one record, encoded by `encode` into the tail of the current
    /// chunk, which has at least `size` spare bytes reserved for it.
    fn append(&mut self, size: usize, encode: impl FnOnce(&mut Vec<u8>)) {
        let fits = self
            .chunks
            .back()
            .is_some_and(|c| c.capacity() - c.len() >= size);
        if !fits {
            let chunk = match self.spare.take() {
                Some(chunk) if chunk.capacity() >= size => chunk,
                _ => Vec::with_capacity(size.max(CHUNK_BYTES)),
            };
            self.chunks.push_back(chunk);
        }
        let chunk_seq = self.first_chunk + self.chunks.len() as u64 - 1;
        let chunk = self.chunks.back_mut().expect("a chunk was ensured above");
        let offset = chunk.len();
        encode(chunk);
        let len = chunk.len() - offset;
        self.spans.push_back(Span {
            chunk: chunk_seq,
            offset: u32::try_from(offset).expect("chunk offsets fit in u32"),
            len: u32::try_from(len).expect("record lengths fit in u32"),
        });
        self.bytes += len;
        self.written += 1;
    }

    /// Evict the oldest records until the held bytes fit `capacity`
    /// (always keeping the newest record), recycling emptied chunks.
    fn evict_to(&mut self, capacity: usize) {
        while self.bytes > capacity && self.spans.len() > 1 {
            let old = self.spans.pop_front().expect("more than one span");
            self.bytes -= old.len as usize;
            self.first_index += 1;
            self.evicted += 1;
        }
        let live = self.spans.front().map_or(u64::MAX, |s| s.chunk);
        while self.first_chunk < live && self.chunks.len() > 1 {
            let mut chunk = self.chunks.pop_front().expect("more than one chunk");
            self.first_chunk += 1;
            if chunk.capacity() == CHUNK_BYTES {
                chunk.clear();
                self.spare = Some(chunk);
            }
        }
    }

    /// The encoded bytes of the held record at `span`.
    fn bytes_of(&self, span: Span) -> &[u8] {
        let chunk = &self.chunks[(span.chunk - self.first_chunk) as usize];
        let start = span.offset as usize;
        &chunk[start..start + span.len as usize]
    }
}

/// The ISM's default output: a bounded in-memory log of encoded records
/// that any number of consumer tools read at their own pace.
///
/// Records are stored in the *native* binary encoding ("the same binary
/// structure used by the NOTICE macros"), back to back in recycled
/// 64 KiB chunks with an offset table, so writing a record costs no
/// allocation of its own. When the byte bound is exceeded the oldest
/// records are evicted; a slow reader observes the eviction as an
/// explicit `missed` count rather than silently corrupted data.
pub struct MemoryBuffer {
    capacity_bytes: usize,
    inner: Mutex<MemoryBufferInner>,
}

impl MemoryBuffer {
    /// New buffer bounded to roughly `capacity_bytes` of encoded records.
    pub fn new(capacity_bytes: usize) -> Arc<Self> {
        Arc::new(MemoryBuffer {
            capacity_bytes: capacity_bytes.max(1024),
            inner: Mutex::new(MemoryBufferInner {
                chunks: VecDeque::new(),
                first_chunk: 0,
                spare: None,
                spans: VecDeque::new(),
                bytes: 0,
                first_index: 0,
                evicted: 0,
                written: 0,
            }),
        })
    }

    /// Append one record, encoding it in place.
    pub fn write(&self, rec: &EventRecord) {
        let mut inner = self.inner.lock();
        inner.append(rec.native_size(), |chunk| {
            binenc::encode_record(rec, chunk);
        });
        inner.evict_to(self.capacity_bytes);
    }

    /// Append one record the caller already `binenc`-encoded. The delivery
    /// path encodes each record exactly once and shares the bytes between
    /// this buffer and the durable store.
    pub fn write_encoded(&self, encoded: &[u8]) {
        let mut inner = self.inner.lock();
        inner.append(encoded.len(), |chunk| chunk.extend_from_slice(encoded));
        inner.evict_to(self.capacity_bytes);
    }

    /// Records currently held.
    pub fn len(&self) -> usize {
        self.inner.lock().spans.len()
    }

    /// True if no record is held.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total records ever written.
    pub fn written(&self) -> u64 {
        self.inner.lock().written
    }

    /// Records evicted to stay within the byte bound.
    pub fn evicted(&self) -> u64 {
        self.inner.lock().evicted
    }

    /// Create a reader starting at the oldest available record.
    pub fn reader(self: &Arc<Self>) -> MemoryBufferReader {
        MemoryBufferReader {
            buffer: Arc::clone(self),
            next_index: self.inner.lock().first_index,
            missed_counter: None,
        }
    }

    /// Create a reader that only sees records written from now on.
    pub fn reader_from_now(self: &Arc<Self>) -> MemoryBufferReader {
        let inner = self.inner.lock();
        MemoryBufferReader {
            buffer: Arc::clone(self),
            next_index: inner.first_index + inner.spans.len() as u64,
            missed_counter: None,
        }
    }
}

/// A cursor over a [`MemoryBuffer`]; many can coexist.
pub struct MemoryBufferReader {
    buffer: Arc<MemoryBuffer>,
    next_index: u64,
    missed_counter: Option<Arc<Counter>>,
}

impl MemoryBufferReader {
    /// Export this reader's cumulative eviction loss as the labeled series
    /// `brisk_ism_reader_missed_total{reader="<label>"}`, so a lagging
    /// consumer's silent in-memory loss shows up on `--stats-addr`.
    pub fn bind_telemetry(&mut self, registry: &Registry, label: &str) {
        self.missed_counter = Some(registry.counter_with(
            "brisk_ism_reader_missed_total",
            "Records this memory-buffer reader missed due to eviction",
            &[("reader", label)],
        ));
    }

    /// Read all records available since the last poll. Returns the decoded
    /// records and the number missed due to eviction (0 for a reader that
    /// keeps up).
    pub fn poll(&mut self) -> Result<(Vec<EventRecord>, u64)> {
        let inner = self.buffer.inner.lock();
        let mut missed = 0;
        if self.next_index < inner.first_index {
            missed = inner.first_index - self.next_index;
            self.next_index = inner.first_index;
            if let Some(c) = &self.missed_counter {
                c.add(missed);
            }
        }
        let skip = (self.next_index - inner.first_index) as usize;
        let mut out = Vec::with_capacity(inner.spans.len().saturating_sub(skip));
        for &span in inner.spans.iter().skip(skip) {
            let encoded = inner.bytes_of(span);
            let (rec, used) = binenc::decode_record(encoded)?;
            if used != encoded.len() {
                return Err(BriskError::Codec("trailing bytes in memory buffer".into()));
            }
            out.push(rec);
        }
        self.next_index += out.len() as u64;
        Ok((out, missed))
    }
}

/// Sink adapter writing into a [`MemoryBuffer`].
pub struct MemoryBufferSink(pub Arc<MemoryBuffer>);

impl EventSink for MemoryBufferSink {
    fn on_record(&mut self, rec: &EventRecord) -> Result<()> {
        self.0.write(rec);
        Ok(())
    }
}

/// Sink writing PICL ASCII trace records to any `Write` target ("it may
/// log instrumentation data to trace files in the PICL ASCII format").
///
/// Dropping the sink flushes buffered records, so a trace file opened via
/// [`PiclFileSink::from_path`] is complete even when the ISM exits without
/// an explicit [`EventSink::flush`] call.
pub struct PiclFileSink {
    writer: PiclWriter<Box<dyn Write + Send>>,
    /// Duplicate handle to the backing file (when there is one), kept so
    /// `flush()` can `sync_all` the written bytes to stable storage.
    sync_handle: Option<std::fs::File>,
}

impl PiclFileSink {
    /// New sink over `target` (typically a `File`) with the given timestamp
    /// mode.
    pub fn new(target: Box<dyn Write + Send>, mode: TsMode) -> Result<Self> {
        Ok(PiclFileSink {
            writer: PiclWriter::new(target, mode)?,
            sync_handle: None,
        })
    }

    /// New sink writing to the file at `path` (created/truncated). Unlike
    /// [`PiclFileSink::new`], this keeps a handle to the file so `flush()`
    /// also forces the trace to stable storage with `sync_all`.
    pub fn from_path(path: impl AsRef<Path>, mode: TsMode) -> Result<Self> {
        let file = std::fs::File::create(path)?;
        let sync_handle = file.try_clone().ok();
        let target: Box<dyn Write + Send> = Box::new(file);
        Ok(PiclFileSink {
            writer: PiclWriter::new(target, mode)?,
            sync_handle,
        })
    }

    /// Records written so far.
    pub fn records_written(&self) -> u64 {
        self.writer.records_written()
    }
}

impl EventSink for PiclFileSink {
    fn on_record(&mut self, rec: &EventRecord) -> Result<()> {
        self.writer.write_event(rec)
    }

    fn flush(&mut self) -> Result<()> {
        self.writer.flush()?;
        if let Some(f) = &self.sync_handle {
            f.sync_all()?;
        }
        Ok(())
    }
}

impl Drop for PiclFileSink {
    fn drop(&mut self) {
        // Best effort: never panic in drop, but do not leave buffered
        // records behind when a sink is dropped without an explicit flush.
        let _ = self.flush();
    }
}

/// Test/diagnostic sink collecting records into a shared vector.
#[derive(Clone, Default)]
pub struct VecSink(pub Arc<Mutex<Vec<EventRecord>>>);

impl VecSink {
    /// New empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Snapshot of everything collected.
    pub fn snapshot(&self) -> Vec<EventRecord> {
        self.0.lock().clone()
    }

    /// Number of records collected.
    pub fn len(&self) -> usize {
        self.0.lock().len()
    }

    /// True if nothing was collected.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl EventSink for VecSink {
    fn on_record(&mut self, rec: &EventRecord) -> Result<()> {
        self.0.lock().push(rec.clone());
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use brisk_core::{EventTypeId, NodeId, SensorId, UtcMicros, Value};

    fn rec(seq: u64) -> EventRecord {
        EventRecord::new(
            NodeId(1),
            SensorId(0),
            EventTypeId(1),
            seq,
            UtcMicros::from_micros(seq as i64),
            vec![Value::U64(seq)],
        )
        .unwrap()
    }

    #[test]
    fn reader_sees_records_in_order() {
        let buf = MemoryBuffer::new(1 << 20);
        let mut reader = buf.reader();
        for i in 0..10 {
            buf.write(&rec(i));
        }
        let (got, missed) = reader.poll().unwrap();
        assert_eq!(missed, 0);
        assert_eq!(got.len(), 10);
        assert_eq!(got[4].seq, 4);
        // Second poll: nothing new.
        let (got, missed) = reader.poll().unwrap();
        assert!(got.is_empty());
        assert_eq!(missed, 0);
    }

    #[test]
    fn incremental_reads() {
        let buf = MemoryBuffer::new(1 << 20);
        let mut reader = buf.reader();
        buf.write(&rec(0));
        assert_eq!(reader.poll().unwrap().0.len(), 1);
        buf.write(&rec(1));
        buf.write(&rec(2));
        let (got, _) = reader.poll().unwrap();
        assert_eq!(got.iter().map(|r| r.seq).collect::<Vec<_>>(), vec![1, 2]);
    }

    #[test]
    fn eviction_reports_missed() {
        // Tiny buffer: each encoded record is ~38 bytes, cap floor is 1024.
        let buf = MemoryBuffer::new(1024);
        let mut reader = buf.reader();
        for i in 0..100 {
            buf.write(&rec(i));
        }
        assert!(buf.evicted() > 0);
        let (got, missed) = reader.poll().unwrap();
        assert_eq!(missed, buf.evicted());
        assert_eq!(got.len() as u64 + missed, 100);
        // The survivors are the newest, contiguous.
        assert_eq!(got.last().unwrap().seq, 99);
        let seqs: Vec<u64> = got.iter().map(|r| r.seq).collect();
        assert!(seqs.windows(2).all(|w| w[1] == w[0] + 1));
    }

    /// The per-record reference model of the byte bound: the same
    /// eviction rule over a queue of record lengths.
    struct Model {
        held: VecDeque<(u64, usize)>,
        bytes: usize,
        next: u64,
        evicted: u64,
    }

    impl Model {
        fn write(&mut self, len: usize, cap: usize) {
            self.held.push_back((self.next, len));
            self.next += 1;
            self.bytes += len;
            while self.bytes > cap && self.held.len() > 1 {
                let (_, old) = self.held.pop_front().unwrap();
                self.bytes -= old;
                self.evicted += 1;
            }
        }
    }

    #[test]
    fn chunked_eviction_and_missed_match_the_per_record_model() {
        // Records from ~40 B to several KiB, plus a few larger than a
        // whole chunk, through a bound of a few chunks: eviction crosses
        // chunk boundaries constantly.
        let cap = 3 * CHUNK_BYTES + 777;
        let buf = MemoryBuffer::new(cap);
        let mut model = Model {
            held: VecDeque::new(),
            bytes: 0,
            next: 0,
            evicted: 0,
        };
        let mut reader = buf.reader();
        let mut model_next = 0u64; // next index the model reader expects
        let mut rng = 0x9e37_79b9_7f4a_7c15u64;
        for i in 0..20_000u64 {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            let blob = match i % 997 {
                0 => 2 * CHUNK_BYTES,
                _ => (rng % 3_000) as usize,
            };
            let r = EventRecord::new(
                NodeId(1),
                SensorId(0),
                EventTypeId(1),
                i,
                UtcMicros::from_micros(i as i64),
                vec![Value::U64(i), Value::Bytes(vec![i as u8; blob])],
            )
            .unwrap();
            model.write(r.native_size(), cap);
            if i.is_multiple_of(3) {
                buf.write(&r);
            } else {
                let mut enc = Vec::new();
                binenc::encode_record(&r, &mut enc);
                buf.write_encoded(&enc);
            }
            assert_eq!(buf.len(), model.held.len(), "after record {i}");
            assert_eq!(buf.evicted(), model.evicted, "after record {i}");
            if rng.is_multiple_of(7) {
                let (got, missed) = reader.poll().unwrap();
                let first = model.held.front().unwrap().0;
                let want_missed = first.saturating_sub(model_next);
                assert_eq!(missed, want_missed, "missed after record {i}");
                let start = model_next.max(first);
                let want: Vec<u64> = (start..model.next).collect();
                let seqs: Vec<u64> = got.iter().map(|r| r.seq).collect();
                assert_eq!(seqs, want, "records read after record {i}");
                for r in &got {
                    assert_eq!(r.fields[0], Value::U64(r.seq), "payload intact");
                }
                model_next = model.next;
            }
        }
        assert_eq!(buf.written(), 20_000);
    }

    #[test]
    fn multiple_independent_readers() {
        let buf = MemoryBuffer::new(1 << 20);
        let mut r1 = buf.reader();
        buf.write(&rec(0));
        let mut r2 = buf.reader();
        buf.write(&rec(1));
        assert_eq!(r1.poll().unwrap().0.len(), 2);
        assert_eq!(
            r2.poll().unwrap().0.len(),
            2,
            "r2 starts at oldest available"
        );
        let mut r3 = buf.reader_from_now();
        buf.write(&rec(2));
        assert_eq!(r3.poll().unwrap().0.len(), 1, "r3 sees only new records");
    }

    #[test]
    fn memory_buffer_sink_writes_through() {
        let buf = MemoryBuffer::new(1 << 20);
        let mut sink = MemoryBufferSink(Arc::clone(&buf));
        sink.on_record(&rec(7)).unwrap();
        assert_eq!(buf.written(), 1);
        assert_eq!(buf.reader().poll().unwrap().0[0].seq, 7);
    }

    #[test]
    fn picl_sink_produces_parseable_trace() {
        use brisk_picl::read_trace;
        let shared: Arc<Mutex<Vec<u8>>> = Arc::new(Mutex::new(Vec::new()));
        struct SharedWriter(Arc<Mutex<Vec<u8>>>);
        impl Write for SharedWriter {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.0.lock().extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let mut sink =
            PiclFileSink::new(Box::new(SharedWriter(Arc::clone(&shared))), TsMode::Utc).unwrap();
        for i in 0..5 {
            sink.on_record(&rec(i)).unwrap();
        }
        sink.flush().unwrap();
        assert_eq!(sink.records_written(), 5);
        let text = String::from_utf8(shared.lock().clone()).unwrap();
        let parsed = read_trace(text.as_bytes()).unwrap();
        assert_eq!(parsed.len(), 5);
    }

    #[test]
    fn picl_sink_drop_flushes_file() {
        use brisk_picl::read_trace;
        let path = std::env::temp_dir().join(format!("brisk-picl-drop-{}.trc", std::process::id()));
        {
            let mut sink = PiclFileSink::from_path(&path, TsMode::Utc).unwrap();
            for i in 0..7 {
                sink.on_record(&rec(i)).unwrap();
            }
            // No explicit flush: Drop must do it.
        }
        let bytes = std::fs::read(&path).unwrap();
        let parsed = read_trace(&bytes[..]).unwrap();
        assert_eq!(parsed.len(), 7);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn reader_missed_counter_is_exported() {
        let registry = Registry::new();
        let buf = MemoryBuffer::new(1024);
        let mut reader = buf.reader();
        reader.bind_telemetry(&registry, "test");
        for i in 0..100 {
            buf.write(&rec(i));
        }
        let (_, missed) = reader.poll().unwrap();
        assert!(missed > 0);
        let snap = registry.snapshot();
        assert_eq!(
            snap.counter_labeled("brisk_ism_reader_missed_total", &[("reader", "test")]),
            Some(missed)
        );
    }

    #[test]
    fn closure_sink_works() {
        let mut count = 0;
        {
            let mut sink = |_rec: &EventRecord| -> Result<()> {
                count += 1;
                Ok(())
            };
            sink.on_record(&rec(0)).unwrap();
            sink.on_record(&rec(1)).unwrap();
        }
        assert_eq!(count, 2);
    }

    #[test]
    fn vec_sink_collects() {
        let sink = VecSink::new();
        let mut s2 = sink.clone();
        s2.on_record(&rec(3)).unwrap();
        assert_eq!(sink.snapshot()[0].seq, 3);
        assert_eq!(sink.len(), 1);
    }
}
