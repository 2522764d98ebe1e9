//! The transport-free ISM composition: CRE switch → on-line sorter →
//! output stage (Fig. 1).
//!
//! [`IsmCore`] is deliberately free of threads, sockets and wall clocks:
//! the caller feeds it batches and drives `tick` with the current
//! (synchronized) time. The threaded [`crate::server::IsmServer`] drives it
//! in real deployments; the deterministic simulator in `brisk-sim` drives
//! it in experiments E5–E7.
//!
//! Since PR 8 the core is a thin composition of two planes: the
//! [`MergePlane`] (CRE + sorter + dedup, see [`crate::merge`]) and an
//! output implementing [`MergeOutput`] — either the [`LocalOutputs`]
//! stage below (memory buffer, durable store, sinks; leaf/root mode) or
//! an [`UpstreamExporter`] (relay mode, see [`crate::relay`]).

use crate::cre::CreStats;
use crate::merge::{MergeOutput, MergePlane, MergeStats};
use crate::output::{EventSink, MemoryBuffer};
use crate::relay::UpstreamExporter;
use crate::sorter::SorterStats;
use brisk_core::{binenc, EventRecord, IsmConfig, NodeId, Result, TraceStage, UtcMicros};
use brisk_store::StoreWriter;
use brisk_telemetry::{Histogram, Registry, StageLatencies};
use std::sync::Arc;

/// Aggregate counters of one core (an alias of the merge plane's stats,
/// kept under the historical name for existing callers).
pub type IsmCoreStats = MergeStats;

/// Default capacity of the output memory buffer (bytes).
pub const DEFAULT_MEMORY_BYTES: usize = 8 << 20;

/// The local output stage: one encode feeding the durable store, the
/// shared memory buffer, and any attached sinks; delivery-side trace
/// stamping and latency histograms live here too.
pub struct LocalOutputs {
    memory: Arc<MemoryBuffer>,
    sinks: Vec<Box<dyn EventSink>>,
    /// The durable trace store, opened when `IsmConfig.store.dir` is set.
    /// Kept separate from `sinks` so the server can expose its stats and
    /// bind its telemetry after construction.
    store: Option<StoreWriter>,
    /// Per-stage span histograms with exemplar trace ids, fed by traced
    /// records at delivery time. Present once telemetry is bound.
    stages: Option<Arc<StageLatencies>>,
    /// Record creation → delivery latency on synchronized time.
    e2e_latency_us: Option<Arc<Histogram>>,
    /// Memory-buffer eviction total already reported to the flight
    /// recorder.
    flight_last_evicted: u64,
    /// Reused encode buffer: each delivered record is encoded into it
    /// once and the bytes shared by the store and the memory buffer.
    scratch: Vec<u8>,
}

impl MergeOutput for LocalOutputs {
    /// `now == UtcMicros::MAX` marks the shutdown drain, where "now" is
    /// meaningless and latency samples would be garbage.
    fn on_record(&mut self, mut rec: EventRecord, now: UtcMicros) -> Result<()> {
        if now != UtcMicros::MAX {
            rec.stamp_trace(TraceStage::Deliver, now);
            if let (Some(stages), Some(ctx)) = (&self.stages, rec.trace()) {
                for pair in ctx.stamps().windows(2) {
                    let (from, t0) = pair[0];
                    let (to, t1) = pair[1];
                    stages.observe(
                        (from.code(), from.name()),
                        (to.code(), to.name()),
                        t1.micros_since(t0).max(0) as u64,
                        ctx.trace_id,
                    );
                }
            }
            if let Some(h) = &self.e2e_latency_us {
                h.record(now.micros_since(rec.ts).max(0) as u64);
            }
        }
        // One encode serves both byte-oriented consumers.
        self.scratch.clear();
        binenc::encode_record(&rec, &mut self.scratch);
        if let Some(store) = &mut self.store {
            store.append_encoded(&rec, &self.scratch)?;
        }
        self.memory.write_encoded(&self.scratch);
        for sink in &mut self.sinks {
            sink.on_record(&rec)?;
        }
        Ok(())
    }

    fn pump(&mut self, _now: UtcMicros) -> Result<()> {
        let evicted_total = self.memory.evicted();
        if evicted_total > self.flight_last_evicted {
            brisk_telemetry::flight_log!(
                Info,
                "ism.memory",
                "evict",
                "{} records evicted from the output memory buffer ({evicted_total} total)",
                evicted_total - self.flight_last_evicted
            );
            self.flight_last_evicted = evicted_total;
        }
        Ok(())
    }

    fn flush(&mut self) -> Result<()> {
        for sink in &mut self.sinks {
            sink.flush()?;
        }
        if let Some(store) = &mut self.store {
            store.flush()?;
        }
        Ok(())
    }
}

/// The ISM pipeline core.
pub struct IsmCore {
    plane: MergePlane,
    local: LocalOutputs,
    /// Relay mode: when set, merged records go upstream instead of to the
    /// local outputs.
    upstream: Option<UpstreamExporter>,
    /// Remembered so an exporter attached after [`Self::bind_telemetry`]
    /// still gets its series registered.
    registry: Option<Arc<Registry>>,
}

impl IsmCore {
    /// New core with the default-sized memory buffer.
    pub fn new(cfg: IsmConfig) -> Result<Self> {
        Self::with_memory(cfg, DEFAULT_MEMORY_BYTES)
    }

    /// New core with an explicit memory-buffer capacity.
    pub fn with_memory(cfg: IsmConfig, memory_bytes: usize) -> Result<Self> {
        cfg.validate()?;
        let store = match cfg.store.dir {
            Some(_) => Some(StoreWriter::open(&cfg.store)?),
            None => None,
        };
        Ok(IsmCore {
            plane: MergePlane::new(&cfg)?,
            local: LocalOutputs {
                memory: MemoryBuffer::new(memory_bytes),
                sinks: Vec::new(),
                store,
                stages: None,
                e2e_latency_us: None,
                flight_last_evicted: 0,
                scratch: Vec::new(),
            },
            upstream: None,
            registry: None,
        })
    }

    /// Switch the core into relay mode: merged, repaired records are
    /// re-exported upstream instead of delivered to the local outputs.
    /// May be called before or after [`Self::bind_telemetry`].
    pub fn set_upstream(&mut self, exporter: UpstreamExporter) {
        if let Some(registry) = &self.registry {
            exporter.bind_telemetry(registry);
        }
        self.upstream = Some(exporter);
    }

    /// The upstream exporter, when the core runs in relay mode.
    pub fn upstream(&self) -> Option<&UpstreamExporter> {
        self.upstream.as_ref()
    }

    /// Bind this core's counters, gauges and the end-to-end latency
    /// histogram to `registry`. Gauges for the sorter window and CRE hold
    /// queue refresh on every `tick`; the memory buffer is exported
    /// through computed sources so no extra bookkeeping runs per record.
    pub fn bind_telemetry(&mut self, registry: &Arc<Registry>) {
        self.plane.bind_telemetry(registry);
        self.local.stages = Some(Arc::new(StageLatencies::new(Arc::clone(registry))));
        let e2e_latency_us = Arc::new(Histogram::default());
        registry.register_histogram(
            "brisk_ism_e2e_latency_us",
            "Record creation to output delivery latency (synchronized time)",
            &[],
            &e2e_latency_us,
        );
        self.local.e2e_latency_us = Some(e2e_latency_us);
        let mem = Arc::clone(&self.local.memory);
        registry.gauge_fn(
            "brisk_ism_memory_records",
            "Records currently resident in the output memory buffer",
            &[],
            move || mem.len() as i64,
        );
        let mem = Arc::clone(&self.local.memory);
        registry.counter_fn(
            "brisk_ism_memory_written_total",
            "Records ever written to the output memory buffer",
            &[],
            move || mem.written(),
        );
        let mem = Arc::clone(&self.local.memory);
        registry.counter_fn(
            "brisk_ism_memory_evicted_total",
            "Records evicted from the output memory buffer",
            &[],
            move || mem.evicted(),
        );
        if let Some(store) = &mut self.local.store {
            store.bind_telemetry(registry);
        }
        registry.counter_fn(
            "brisk_trace_stamps_dropped_total",
            "Trace stamps discarded because a record's context was full",
            &[],
            brisk_core::trace_stamps_dropped_total,
        );
        if let Some(up) = &mut self.upstream {
            up.bind_telemetry(registry);
        }
        self.registry = Some(Arc::clone(registry));
    }

    /// The default output: the shared memory buffer consumers read.
    pub fn memory(&self) -> &Arc<MemoryBuffer> {
        &self.local.memory
    }

    /// Per-stage trace latency histograms (present once telemetry is
    /// bound); clone the `Arc` to serve exemplars from another thread.
    pub fn stage_latencies(&self) -> Option<&Arc<StageLatencies>> {
        self.local.stages.as_ref()
    }

    /// Attach an additional output sink (PICL file, visual object, …).
    pub fn add_sink(&mut self, sink: Box<dyn EventSink>) {
        self.local.sinks.push(sink);
    }

    /// The durable trace store, when one is configured.
    pub fn store(&self) -> Option<&StoreWriter> {
        self.local.store.as_ref()
    }

    /// Aggregate counters.
    pub fn stats(&self) -> IsmCoreStats {
        self.plane.stats()
    }

    /// Sorter counters (time frame, inversions, …).
    pub fn sorter_stats(&self) -> SorterStats {
        self.plane.sorter_stats()
    }

    /// Current adaptive time frame `T` (µs).
    pub fn frame_us(&self) -> i64 {
        self.plane.frame_us()
    }

    /// CRE counters (tachyons repaired, held, …).
    pub fn cre_stats(&self) -> CreStats {
        self.plane.cre_stats()
    }

    /// Accept one *sequenced* batch (protocol v2); see
    /// [`MergePlane::push_batch_seq`].
    pub fn push_batch_seq(
        &mut self,
        node: NodeId,
        seq: Option<u64>,
        records: Vec<EventRecord>,
        now: UtcMicros,
    ) -> Result<bool> {
        self.plane.push_batch_seq(node, seq, records, now)
    }

    /// Accept one batch of records (already correction-adjusted by the
    /// EXS). `now` is the ISM's current time.
    pub fn push_batch(
        &mut self,
        records: impl IntoIterator<Item = EventRecord>,
        now: UtcMicros,
    ) -> Result<()> {
        self.plane.push_batch(records, now)
    }

    /// Advance the pipeline: expire held CRE records, release everything
    /// whose delay elapsed, and deliver it to the active output (local
    /// sinks, or the upstream exporter in relay mode). Returns the number
    /// of records delivered.
    pub fn tick(&mut self, now: UtcMicros) -> Result<usize> {
        match &mut self.upstream {
            Some(up) => self.plane.tick(now, up),
            None => self.plane.tick(now, &mut self.local),
        }
    }

    /// True exactly once after a tachyon repair requested an extra clock
    /// synchronization round (§3.6); the caller (server or simulator)
    /// translates this into an immediate round.
    pub fn take_extra_sync_request(&mut self) -> bool {
        self.plane.take_extra_sync_request()
    }

    /// Shutdown path: flush every held and delayed record to the active
    /// output in merged order, then flush that output (sinks/store — or
    /// the final upstream batch plus an orderly goodbye in relay mode).
    pub fn drain_all(&mut self) -> Result<usize> {
        match &mut self.upstream {
            Some(up) => self.plane.drain_all(up),
            None => self.plane.drain_all(&mut self.local),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::output::VecSink;
    use brisk_core::{CorrelationId, EventTypeId, NodeId, SensorId, SorterConfig, Value};

    fn rec(node: u32, seq: u64, ts: i64, fields: Vec<Value>) -> EventRecord {
        EventRecord::new(
            NodeId(node),
            SensorId(0),
            EventTypeId(1),
            seq,
            UtcMicros::from_micros(ts),
            fields,
        )
        .unwrap()
    }

    fn core_with_frame(frame_us: i64) -> IsmCore {
        let cfg = IsmConfig {
            sorter: SorterConfig {
                initial_frame_us: frame_us,
                min_frame_us: 0,
                ..SorterConfig::default()
            },
            ..IsmConfig::default()
        };
        IsmCore::new(cfg).unwrap()
    }

    #[test]
    fn end_to_end_sorted_delivery() {
        let mut core = core_with_frame(100);
        let sink = VecSink::new();
        core.add_sink(Box::new(sink.clone()));
        core.push_batch(
            vec![rec(0, 0, 300, vec![]), rec(0, 1, 500, vec![])],
            UtcMicros::from_micros(500),
        )
        .unwrap();
        core.push_batch(vec![rec(1, 0, 400, vec![])], UtcMicros::from_micros(500))
            .unwrap();
        let n = core.tick(UtcMicros::from_micros(1_000)).unwrap();
        assert_eq!(n, 3);
        let ts: Vec<i64> = sink.snapshot().iter().map(|r| r.ts.as_micros()).collect();
        assert_eq!(ts, vec![300, 400, 500]);
        assert_eq!(core.stats().records_in, 3);
        assert_eq!(core.stats().records_out, 3);
        assert_eq!(core.stats().batches_in, 2);
    }

    #[test]
    fn memory_buffer_receives_everything() {
        let mut core = core_with_frame(0);
        let mut reader = core.memory().reader();
        core.push_batch(
            (0..20).map(|i| rec(0, i, i as i64, vec![Value::U64(i)])),
            UtcMicros::ZERO,
        )
        .unwrap();
        core.tick(UtcMicros::from_micros(100)).unwrap();
        let (got, missed) = reader.poll().unwrap();
        assert_eq!(missed, 0);
        assert_eq!(got.len(), 20);
    }

    #[test]
    fn tachyon_repair_flows_through_and_requests_sync() {
        let mut core = core_with_frame(0);
        let sink = VecSink::new();
        core.add_sink(Box::new(sink.clone()));
        let reason = rec(0, 0, 1_000, vec![Value::Reason(CorrelationId(5))]);
        let conseq = rec(1, 0, 900, vec![Value::Conseq(CorrelationId(5))]);
        core.push_batch(vec![reason], UtcMicros::from_micros(1_000))
            .unwrap();
        core.push_batch(vec![conseq], UtcMicros::from_micros(1_000))
            .unwrap();
        assert!(core.take_extra_sync_request());
        assert!(!core.take_extra_sync_request(), "request is one-shot");
        core.tick(UtcMicros::from_micros(10_000)).unwrap();
        let got = sink.snapshot();
        assert_eq!(got.len(), 2);
        assert!(got[0].ts < got[1].ts, "causality restored in output order");
        assert_eq!(core.cre_stats().tachyons_repaired, 1);
    }

    #[test]
    fn held_conseq_expires_through_tick() {
        let mut core = core_with_frame(0);
        let conseq = rec(1, 0, 900, vec![Value::Conseq(CorrelationId(9))]);
        core.push_batch(vec![conseq], UtcMicros::ZERO).unwrap();
        // Before the hold timeout: nothing comes out.
        assert_eq!(core.tick(UtcMicros::from_millis(100)).unwrap(), 0);
        // After (default hold timeout 2 s): the orphan is released.
        let n = core.tick(UtcMicros::from_secs(3)).unwrap();
        assert_eq!(n, 1);
    }

    #[test]
    fn drain_all_flushes_held_and_delayed() {
        let mut core = core_with_frame(1_000_000);
        let sink = VecSink::new();
        core.add_sink(Box::new(sink.clone()));
        core.push_batch(
            vec![
                rec(0, 0, 100, vec![]),
                rec(1, 0, 50, vec![Value::Conseq(CorrelationId(1))]),
            ],
            UtcMicros::from_micros(100),
        )
        .unwrap();
        assert_eq!(core.tick(UtcMicros::from_micros(200)).unwrap(), 0);
        let n = core.drain_all().unwrap();
        assert_eq!(n, 2);
        assert_eq!(sink.len(), 2);
    }

    #[test]
    fn bind_telemetry_tracks_core_flow() {
        let mut core = core_with_frame(100);
        let registry = brisk_telemetry::Registry::new();
        core.bind_telemetry(&registry);
        core.push_batch(
            vec![rec(0, 0, 300, vec![]), rec(0, 1, 500, vec![])],
            UtcMicros::from_micros(500),
        )
        .unwrap();
        core.tick(UtcMicros::from_micros(1_000)).unwrap();
        let snap = registry.snapshot();
        assert_eq!(snap.counter_total("brisk_ism_records_in_total"), 2);
        assert_eq!(snap.counter_total("brisk_ism_batches_in_total"), 1);
        assert_eq!(snap.counter_total("brisk_ism_records_out_total"), 2);
        assert_eq!(snap.counter_total("brisk_ism_memory_written_total"), 2);
        assert_eq!(snap.gauge("brisk_ism_memory_records"), Some(2));
        let hist = snap
            .histogram("brisk_ism_e2e_latency_us")
            .expect("latency histogram exported");
        assert_eq!(hist.count(), 2);
        // Delivered at now=1000 for ts 300/500 → latencies 700 and 500.
        assert_eq!(hist.max, 700);
        assert!(hist.p50() <= hist.p99());
        // Shutdown drain must not pollute the latency histogram.
        core.push_batch(
            vec![rec(0, 2, 2_000, vec![])],
            UtcMicros::from_micros(2_000),
        )
        .unwrap();
        core.drain_all().unwrap();
        let snap = registry.snapshot();
        assert_eq!(snap.counter_total("brisk_ism_records_out_total"), 3);
        let hist = snap.histogram("brisk_ism_e2e_latency_us").unwrap();
        assert_eq!(hist.count(), 2, "drain_all records no latency samples");
        // The trace-stamp drop counter is exported and tracks the
        // process-wide total (other tests may bump it concurrently, so
        // compare against the source rather than an absolute value).
        let ctx = brisk_core::TraceContext::origin(7, UtcMicros::from_micros(1));
        let mut full = rec(0, 3, 3_000, vec![brisk_core::Value::Trace(ctx)]);
        for _ in 0..=brisk_core::MAX_TRACE_STAMPS {
            full.stamp_trace(brisk_core::TraceStage::PumpRecv, UtcMicros::from_micros(1));
        }
        let snap = registry.snapshot();
        let exported = snap.counter_total("brisk_trace_stamps_dropped_total");
        assert!(exported >= 1, "overflow stamp must surface in the metric");
        assert!(exported <= brisk_core::trace_stamps_dropped_total());
    }

    #[test]
    fn sequenced_replay_is_dropped_per_node() {
        let mut core = core_with_frame(0);
        let registry = brisk_telemetry::Registry::new();
        core.bind_telemetry(&registry);
        let now = UtcMicros::from_micros(100);
        assert!(core
            .push_batch_seq(NodeId(1), Some(1), vec![rec(1, 0, 10, vec![])], now)
            .unwrap());
        assert!(core
            .push_batch_seq(NodeId(1), Some(2), vec![rec(1, 1, 11, vec![])], now)
            .unwrap());
        // Replay of seq 2 from node 1: dropped.
        assert!(!core
            .push_batch_seq(NodeId(1), Some(2), vec![rec(1, 1, 11, vec![])], now)
            .unwrap());
        // Same seq from a *different* node: accepted (per-node streams).
        assert!(core
            .push_batch_seq(NodeId(2), Some(2), vec![rec(2, 0, 12, vec![])], now)
            .unwrap());
        // Unsequenced (v1) batches are never deduplicated.
        assert!(core
            .push_batch_seq(NodeId(1), None, vec![rec(1, 2, 13, vec![])], now)
            .unwrap());
        let stats = core.stats();
        assert_eq!(stats.batches_in, 4);
        assert_eq!(stats.records_in, 4);
        assert_eq!(stats.duplicate_batches, 1);
        assert_eq!(stats.duplicate_records, 1);
        let snap = registry.snapshot();
        assert_eq!(snap.counter_total("brisk_ism_duplicate_batches_total"), 1);
        assert_eq!(snap.counter_total("brisk_ism_duplicate_records_total"), 1);
    }

    #[test]
    fn store_receives_delivered_records() {
        use brisk_core::StoreConfig;
        use brisk_store::StoreReader;
        let dir = std::env::temp_dir().join(format!("brisk-core-store-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = IsmConfig {
            store: StoreConfig::at(dir.clone()),
            ..IsmConfig::default()
        };
        let registry = brisk_telemetry::Registry::new();
        {
            let mut core = IsmCore::new(cfg).unwrap();
            core.bind_telemetry(&registry);
            assert!(core.store().is_some());
            core.push_batch(
                (0..50).map(|i| rec(0, i, i as i64 * 10, vec![Value::U64(i)])),
                UtcMicros::ZERO,
            )
            .unwrap();
            core.tick(UtcMicros::from_secs(1)).unwrap();
            core.drain_all().unwrap();
        } // core drop seals the store
        let (recs, report) = StoreReader::open(&dir).unwrap().read_all().unwrap();
        assert_eq!(recs.len(), 50);
        assert_eq!(report.corrupt_frames, 0);
        let ts: Vec<i64> = recs.iter().map(|r| r.ts.as_micros()).collect();
        assert!(
            ts.windows(2).all(|w| w[0] <= w[1]),
            "stored in sorted order"
        );
        let snap = registry.snapshot();
        assert_eq!(snap.counter_total("brisk_store_records_total"), 50);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn trace_stamps_accumulate_through_the_core() {
        use brisk_core::{TraceContext, TraceStage};
        let mut core = core_with_frame(0);
        let registry = brisk_telemetry::Registry::new();
        core.bind_telemetry(&registry);
        let sink = VecSink::new();
        core.add_sink(Box::new(sink.clone()));
        // A record as the wire would deliver it: Notice→ExsScoop→
        // BatchSend→PumpRecv already stamped upstream.
        let mut ctx = TraceContext::origin(42, UtcMicros::from_micros(100));
        ctx.stamp(TraceStage::ExsScoop, UtcMicros::from_micros(110));
        ctx.stamp(TraceStage::BatchSend, UtcMicros::from_micros(120));
        ctx.stamp(TraceStage::PumpRecv, UtcMicros::from_micros(140));
        let traced = rec(0, 0, 100, vec![Value::Trace(ctx)]);
        core.push_batch(vec![traced], UtcMicros::from_micros(150))
            .unwrap();
        assert_eq!(core.tick(UtcMicros::from_micros(200)).unwrap(), 1);
        let got = sink.snapshot();
        let ctx = got[0].trace().expect("trace survives the core");
        let stages: Vec<TraceStage> = ctx.stamps().iter().map(|&(s, _)| s).collect();
        assert_eq!(
            stages,
            vec![
                TraceStage::Notice,
                TraceStage::ExsScoop,
                TraceStage::BatchSend,
                TraceStage::PumpRecv,
                TraceStage::SorterAdmit,
                TraceStage::SorterRelease,
                TraceStage::Deliver,
            ]
        );
        assert!(
            ctx.stamps().windows(2).all(|w| w[0].1 <= w[1].1),
            "stamps must be monotonic: {ctx}"
        );
        // Every consecutive pair fed the stage histograms with this
        // record's id as the exemplar.
        let (_, exemplar) = core
            .stage_latencies()
            .expect("bound core exposes stage latencies")
            .slowest_exemplar()
            .expect("spans observed");
        assert_eq!(exemplar, 42);
    }

    #[test]
    fn cre_repair_and_hold_are_stamped() {
        use brisk_core::{TraceContext, TraceStage};
        let mut core = core_with_frame(0);
        let sink = VecSink::new();
        core.add_sink(Box::new(sink.clone()));
        let now = UtcMicros::from_micros(1_000);
        // Consequence first (held), its trace sampled at origin.
        let conseq = EventRecord::new(
            NodeId(1),
            SensorId(0),
            EventTypeId(2),
            0,
            UtcMicros::from_micros(900),
            vec![
                Value::Conseq(CorrelationId(5)),
                Value::Trace(TraceContext::origin(7, UtcMicros::from_micros(900))),
            ],
        )
        .unwrap();
        core.push_batch(vec![conseq], now).unwrap();
        // Reason arrives later with a later ts: the held conseq is a
        // tachyon — released, repaired, and both hops stamped.
        let reason = rec(0, 0, 950, vec![Value::Reason(CorrelationId(5))]);
        core.push_batch(vec![reason], now).unwrap();
        core.tick(UtcMicros::from_micros(10_000)).unwrap();
        let got = sink.snapshot();
        assert_eq!(got.len(), 2);
        let ctx = got
            .iter()
            .find_map(|r| r.trace())
            .expect("traced conseq delivered");
        assert_eq!(ctx.stamp_at(TraceStage::CreHold), Some(now));
        assert_eq!(ctx.stamp_at(TraceStage::CreRepair), Some(now));
    }

    #[test]
    fn invalid_config_rejected() {
        let mut cfg = IsmConfig::default();
        cfg.sorter.decay_factor = 7.0;
        assert!(IsmCore::new(cfg).is_err());
    }
}
