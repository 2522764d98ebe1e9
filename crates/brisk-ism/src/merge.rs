//! The merge plane: CRE switch → adaptive sorter → an output behind a
//! trait.
//!
//! PR 8 splits the old monolithic `IsmCore` in two. The *session plane*
//! (connections, protocol, credit, quarantine) already lives in the
//! reactor/server; what remained entangled was the *merge plane* — the
//! causality switch and the on-line sorter — with its delivery targets.
//! [`MergePlane`] owns the former and knows the latter only as a
//! `&mut dyn` [`MergeOutput`], so the very same merging/repairing logic
//! can feed
//!
//! * local sinks (memory buffer, durable store, PICL files) when the ISM
//!   is a leaf or the tree root, or
//! * an upstream exporter (`crate::relay::UpstreamExporter`) when the ISM
//!   is a *relay* re-exporting its merged subtree to a parent ISM.
//!
//! Backpressure composes through the trait: when an output reports
//! `!ready()` (upstream credit exhausted, link down), the plane stops
//! polling the sorter, records accumulate against the sorter's bounded
//! window, the session plane's queue bound fills, downstream reads defer,
//! and downstream credit dries up — tier by tier, with no unbounded
//! buffer anywhere.

use crate::cre::{CreMatcher, CreStats};
use crate::sorter::{OnlineSorter, OverloadPolicy, SorterStats};
use brisk_clock::Hlc;
use brisk_core::{
    EventRecord, HlcStamp, IsmConfig, NodeId, OrderMode, Result, TraceStage, UtcMicros,
};
use brisk_telemetry::{Counter, Gauge, Histogram, Registry};
use std::collections::HashMap;
use std::sync::Arc;

/// Where merged, repaired records go. Implemented by the local output
/// stage (leaf/root mode) and by the upstream exporter (relay mode).
pub trait MergeOutput: Send {
    /// Deliver one record released by the sorter. `now` is the pipeline's
    /// current synchronized time, or [`UtcMicros::MAX`] during the
    /// shutdown drain (when "now" is meaningless and latency samples
    /// would be garbage).
    fn on_record(&mut self, rec: EventRecord, now: UtcMicros) -> Result<()>;

    /// May the plane release more records right now? A relay returns
    /// `false` while its upstream link is down or out of credit, which
    /// parks released-eligible records in the sorter instead of growing
    /// an unbounded queue here.
    fn ready(&self) -> bool {
        true
    }

    /// Housekeeping hook driven once per plane tick *before* release:
    /// reconnects, ack processing, timed flushes, heartbeats.
    fn pump(&mut self, _now: UtcMicros) -> Result<()> {
        Ok(())
    }

    /// Flush everything buffered (shutdown path).
    fn flush(&mut self) -> Result<()> {
        Ok(())
    }
}

/// Aggregate counters of one merge plane.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MergeStats {
    /// Records received in batches.
    pub records_in: u64,
    /// Records delivered to the output stage.
    pub records_out: u64,
    /// Batches received.
    pub batches_in: u64,
    /// Sequenced batches dropped as replays (seq ≤ last seen for the node).
    pub duplicate_batches: u64,
    /// Records inside those dropped replay batches.
    pub duplicate_records: u64,
}

/// Plane-owned telemetry. The plane runs on one thread (the manager), so
/// plain counters updated inline suffice; sorter and CRE internals are
/// exported by publishing stat deltas each tick rather than by threading
/// atomics through those components.
struct MergeTelemetry {
    records_in: Arc<Counter>,
    records_out: Arc<Counter>,
    batches_in: Arc<Counter>,
    duplicate_batches: Arc<Counter>,
    duplicate_records: Arc<Counter>,
    sorter_depth: Arc<Gauge>,
    sorter_frame_us: Arc<Gauge>,
    cre_held: Arc<Gauge>,
    tachyons_repaired: Arc<Counter>,
    last_tachyons: u64,
    shed: Arc<Counter>,
    last_shed: u64,
    ts_clamped: Arc<Counter>,
    last_ts_clamped: u64,
    extra_sync_suppressed: Arc<Counter>,
    last_suppressed: u64,
    causal_reorders: Arc<Counter>,
    hlc_divergence_us: Arc<Histogram>,
}

/// CRE switch + adaptive sorter + per-node dedup, decoupled from any
/// particular output.
pub struct MergePlane {
    cre: CreMatcher,
    sorter: OnlineSorter,
    order: OrderMode,
    /// The plane's own hybrid logical clock: merged with every received
    /// stamp (so downstream stamps dominate the whole subtree) and the
    /// source of stamps for records that arrive without one in causal
    /// mode.
    hlc: Arc<Hlc>,
    stats: MergeStats,
    extra_sync_pending: bool,
    /// Records delivered out of physical-timestamp order because the HLC
    /// order demanded it — the visible work causal mode does.
    causal_reorders: u64,
    /// Last delivered physical ts (causal-reorder detection).
    last_out_ts: Option<UtcMicros>,
    /// |HLC physical − ISM now| already above the flight-recorder alert
    /// threshold?
    flight_divergence_alerted: bool,
    /// Highest batch sequence number accepted per node (protocol v2).
    /// Replayed batches (seq ≤ the entry) are dropped here, which is what
    /// turns the wire's at-least-once delivery into exactly-once at the
    /// output. Lives in the plane — not the pump — so the memory survives
    /// the connection teardown/reconnect that triggers replays.
    last_seq: HashMap<NodeId, u64>,
    telemetry: Option<MergeTelemetry>,
    /// Sorter shed total already reported to the flight recorder.
    flight_last_shed: u64,
    /// Reused per-record buffer for what the CRE lets through.
    pass: Vec<EventRecord>,
    /// Reused per-tick buffer for what the sorter releases.
    released: Vec<EventRecord>,
}

impl MergePlane {
    /// New plane from the sorter/CRE/flow sections of an [`IsmConfig`]
    /// (the config must already be validated by the caller).
    pub fn new(cfg: &IsmConfig) -> Result<Self> {
        let mut sorter = OnlineSorter::new(cfg.sorter.clone(), cfg.max_buffered_records)?;
        if cfg.flow.shed_unmarked {
            sorter.set_overload_policy(OverloadPolicy::ShedUnmarked);
        }
        sorter.set_order_mode(cfg.order_mode);
        let mut cre = CreMatcher::new(cfg.cre.clone())?;
        cre.set_order_mode(cfg.order_mode);
        Ok(MergePlane {
            cre,
            sorter,
            order: cfg.order_mode,
            hlc: Hlc::new(),
            stats: MergeStats::default(),
            extra_sync_pending: false,
            causal_reorders: 0,
            last_out_ts: None,
            flight_divergence_alerted: false,
            last_seq: HashMap::new(),
            telemetry: None,
            flight_last_shed: 0,
            pass: Vec::new(),
            released: Vec::new(),
        })
    }

    /// Bind the plane's counters and gauges to `registry`. Gauges for the
    /// sorter window and CRE hold queue refresh on every [`Self::tick`].
    pub fn bind_telemetry(&mut self, registry: &Arc<Registry>) {
        self.hlc.bind_telemetry(registry, "ism");
        self.telemetry = Some(MergeTelemetry {
            records_in: registry.counter(
                "brisk_ism_records_in_total",
                "Records received by the ISM core",
            ),
            records_out: registry.counter(
                "brisk_ism_records_out_total",
                "Records delivered to the output stage",
            ),
            batches_in: registry.counter(
                "brisk_ism_batches_in_total",
                "Batches received by the ISM core",
            ),
            duplicate_batches: registry.counter(
                "brisk_ism_duplicate_batches_total",
                "Replayed batches dropped by sequence-number dedup",
            ),
            duplicate_records: registry.counter(
                "brisk_ism_duplicate_records_total",
                "Records inside replayed batches dropped by dedup",
            ),
            sorter_depth: registry.gauge(
                "brisk_ism_sorter_depth",
                "Records buffered in the on-line sorter window",
            ),
            sorter_frame_us: registry.gauge(
                "brisk_ism_sorter_frame_us",
                "Current adaptive sorter time frame T (us)",
            ),
            cre_held: registry.gauge(
                "brisk_ism_cre_held",
                "Consequence records currently held by the CRE switch",
            ),
            tachyons_repaired: registry.counter(
                "brisk_ism_tachyons_repaired_total",
                "Causality violations repaired by the CRE switch",
            ),
            last_tachyons: self.cre.stats().tachyons_repaired,
            shed: registry.counter(
                "brisk_ism_shed_total",
                "Unmarked records dropped by the overload-shedding policy",
            ),
            last_shed: self.sorter.stats().shed,
            ts_clamped: registry.counter(
                "brisk_ism_ts_clamped_total",
                "Non-monotone same-source records whose timestamp was clamped",
            ),
            last_ts_clamped: self.sorter.stats().ts_clamped,
            extra_sync_suppressed: registry.counter(
                "brisk_sync_extra_suppressed_total",
                "Extra sync requests suppressed by the token-bucket rate limit",
            ),
            last_suppressed: self.cre.stats().extra_syncs_suppressed,
            causal_reorders: registry.counter(
                "brisk_hlc_causal_reorders_total",
                "Records delivered out of physical-ts order because HLC order demanded it",
            ),
            hlc_divergence_us: registry.histogram(
                "brisk_hlc_divergence_us",
                "|X_HLC physical - ISM clock| at batch receive (us)",
            ),
        });
    }

    /// The plane's hybrid logical clock (merged with every received stamp).
    pub fn hlc(&self) -> &Arc<Hlc> {
        &self.hlc
    }

    /// Records delivered out of physical-ts order under causal ordering.
    pub fn causal_reorders(&self) -> u64 {
        self.causal_reorders
    }

    /// Aggregate counters.
    pub fn stats(&self) -> MergeStats {
        self.stats
    }

    /// Sorter counters (time frame, inversions, …).
    pub fn sorter_stats(&self) -> SorterStats {
        self.sorter.stats()
    }

    /// Current adaptive time frame `T` (µs).
    pub fn frame_us(&self) -> i64 {
        self.sorter.frame_us()
    }

    /// Records currently buffered in the sorter window.
    pub fn buffered(&self) -> usize {
        self.sorter.buffered()
    }

    /// CRE counters (tachyons repaired, held, …).
    pub fn cre_stats(&self) -> CreStats {
        self.cre.stats()
    }

    /// True exactly once after a tachyon repair requested an extra clock
    /// synchronization round (§3.6); the caller (server or simulator)
    /// translates this into an immediate round.
    pub fn take_extra_sync_request(&mut self) -> bool {
        std::mem::take(&mut self.extra_sync_pending)
    }

    /// Accept one *sequenced* batch (protocol v2), deduplicating by
    /// `(node, seq)`: a batch whose sequence number is not above the
    /// highest already accepted from `node` is a replay and is dropped
    /// (counted, not processed). Returns `true` if the batch was accepted,
    /// `false` if it was dropped as a duplicate — the caller should ack
    /// either way (a replay means our previous ack was lost with the old
    /// connection).
    ///
    /// `seq == None` is a v1 (unsequenced) batch: always accepted.
    pub fn push_batch_seq(
        &mut self,
        node: NodeId,
        seq: Option<u64>,
        records: Vec<EventRecord>,
        now: UtcMicros,
    ) -> Result<bool> {
        if let Some(seq) = seq {
            let last = self.last_seq.entry(node).or_insert(0);
            if seq <= *last {
                self.stats.duplicate_batches += 1;
                self.stats.duplicate_records += records.len() as u64;
                if let Some(t) = &self.telemetry {
                    t.duplicate_batches.inc();
                    t.duplicate_records.add(records.len() as u64);
                }
                return Ok(false);
            }
            *last = seq;
        }
        self.push_batch(records, now)?;
        Ok(true)
    }

    /// Accept one batch of records (already correction-adjusted by the
    /// EXS). `now` is the ISM's current time.
    pub fn push_batch(
        &mut self,
        records: impl IntoIterator<Item = EventRecord>,
        now: UtcMicros,
    ) -> Result<()> {
        self.stats.batches_in += 1;
        if let Some(t) = &self.telemetry {
            t.batches_in.inc();
        }
        // Observing a stamp is a set-max, which is associative: folding the
        // batch down to its max stamp and observing that once is equivalent
        // to observing every record, without taking the HLC lock per record.
        let mut batch_max: Option<HlcStamp> = None;
        let mut batch_max_logical = 0u32;
        for mut rec in records {
            self.stats.records_in += 1;
            if let Some(t) = &self.telemetry {
                t.records_in.inc();
            }
            if self.order == OrderMode::Causal {
                let stamp = self.merge_hlc(&mut rec, now);
                batch_max = Some(batch_max.map_or(stamp, |m| m.max(stamp)));
                batch_max_logical = batch_max_logical.max(stamp.logical);
            }
            if self.cre.process(rec, now, &mut self.pass) {
                self.extra_sync_pending = true;
            }
            for mut passed in self.pass.drain(..) {
                passed.stamp_trace(TraceStage::SorterAdmit, now);
                self.sorter.push(passed);
            }
        }
        if let Some(max) = batch_max {
            self.hlc.observe(max);
            self.hlc.note_logical(batch_max_logical);
        }
        Ok(())
    }

    /// Causal-mode receive step: read the record's `X_HLC` (stamping
    /// records that arrived without one — the stamp materializes the
    /// physical-ts fallback so it survives re-export through relay tiers)
    /// and return it for the caller's batch-max fold into the plane's
    /// clock, so everything stamped downstream dominates the whole
    /// subtree.
    fn merge_hlc(&mut self, rec: &mut EventRecord, now: UtcMicros) -> HlcStamp {
        let stamp = match rec.hlc() {
            Some(s) => s,
            None => {
                let s = HlcStamp::new(rec.ts, 0);
                rec.set_hlc(s);
                s
            }
        };
        let divergence = stamp.divergence_us(now).unsigned_abs();
        if let Some(t) = &self.telemetry {
            t.hlc_divergence_us.record(divergence);
        }
        // One flight-recorder alert per plane once physical clocks have
        // visibly diverged from causal time — the breadcrumb that says
        // "trust HLC order, not the timestamps" when debugging a capture.
        if divergence > 1_000_000 && !self.flight_divergence_alerted {
            self.flight_divergence_alerted = true;
            brisk_telemetry::flight_log!(
                Warn,
                "ism.hlc",
                "divergence",
                "X_HLC physical diverges from ISM clock by {divergence} us (node {})",
                rec.node
            );
        }
        stamp
    }

    /// Advance the pipeline: pump the output, expire held CRE records,
    /// release everything whose delay elapsed (if the output is ready for
    /// it), and deliver. Returns the number of records delivered.
    pub fn tick(&mut self, now: UtcMicros, out: &mut dyn MergeOutput) -> Result<usize> {
        out.pump(now)?;
        for expired in self.cre.expire(now) {
            self.sorter.push(expired);
        }
        let n = if out.ready() {
            let mut released = std::mem::take(&mut self.released);
            self.sorter.poll_into(now, &mut released);
            for rec in released.iter_mut() {
                rec.stamp_trace(TraceStage::SorterRelease, now);
            }
            let delivered = self.deliver(&mut released, now, out);
            self.released = released;
            delivered?
        } else {
            0
        };
        let shed_total = self.sorter.stats().shed;
        if shed_total > self.flight_last_shed {
            brisk_telemetry::flight_log!(
                Warn,
                "ism.sorter",
                "shed",
                "{} unmarked records shed under overload ({shed_total} total)",
                shed_total - self.flight_last_shed
            );
            self.flight_last_shed = shed_total;
        }
        if let Some(t) = &mut self.telemetry {
            t.sorter_depth.set(self.sorter.buffered() as i64);
            t.sorter_frame_us.set(self.sorter.frame_us());
            t.cre_held.set(self.cre.held_count() as i64);
            let repaired = self.cre.stats().tachyons_repaired;
            t.tachyons_repaired.add(repaired - t.last_tachyons);
            t.last_tachyons = repaired;
            let shed = self.sorter.stats().shed;
            t.shed.add(shed - t.last_shed);
            t.last_shed = shed;
            let clamped = self.sorter.stats().ts_clamped;
            t.ts_clamped.add(clamped - t.last_ts_clamped);
            t.last_ts_clamped = clamped;
            let suppressed = self.cre.stats().extra_syncs_suppressed;
            t.extra_sync_suppressed.add(suppressed - t.last_suppressed);
            t.last_suppressed = suppressed;
        }
        Ok(n)
    }

    /// Shutdown path: flush every held and delayed record to the output
    /// in merged order (ignoring `ready()` — the data must leave), then
    /// flush the output itself.
    pub fn drain_all(&mut self, out: &mut dyn MergeOutput) -> Result<usize> {
        for expired in self.cre.expire(UtcMicros::MAX) {
            self.sorter.push(expired);
        }
        let mut released = self.sorter.drain_all();
        let n = self.deliver(&mut released, UtcMicros::MAX, out)?;
        out.flush()?;
        Ok(n)
    }

    /// Deliver `records` in order, leaving the buffer empty for reuse.
    fn deliver(
        &mut self,
        records: &mut Vec<EventRecord>,
        now: UtcMicros,
        out: &mut dyn MergeOutput,
    ) -> Result<usize> {
        let n = records.len();
        for rec in records.drain(..) {
            if self.order == OrderMode::Causal {
                if let Some(last) = self.last_out_ts {
                    if rec.ts < last {
                        self.causal_reorders += 1;
                        if let Some(t) = &self.telemetry {
                            t.causal_reorders.inc();
                        }
                    }
                }
                self.last_out_ts = Some(rec.ts.max(self.last_out_ts.unwrap_or(rec.ts)));
            }
            out.on_record(rec, now)?;
            self.stats.records_out += 1;
            if let Some(t) = &self.telemetry {
                t.records_out.inc();
            }
        }
        Ok(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use brisk_core::{EventTypeId, SensorId, SorterConfig};

    fn rec(node: u32, seq: u64, ts: i64) -> EventRecord {
        EventRecord::new(
            NodeId(node),
            SensorId(0),
            EventTypeId(1),
            seq,
            UtcMicros::from_micros(ts),
            vec![],
        )
        .unwrap()
    }

    fn plane(frame_us: i64) -> MergePlane {
        let cfg = IsmConfig {
            sorter: SorterConfig {
                initial_frame_us: frame_us,
                min_frame_us: 0,
                ..SorterConfig::default()
            },
            ..IsmConfig::default()
        };
        MergePlane::new(&cfg).unwrap()
    }

    /// Collects records; `ready` flips to model a stalled upstream.
    struct TestOut {
        got: Vec<EventRecord>,
        ready: bool,
        pumps: usize,
    }

    impl TestOut {
        fn new() -> Self {
            TestOut {
                got: Vec::new(),
                ready: true,
                pumps: 0,
            }
        }
    }

    impl MergeOutput for TestOut {
        fn on_record(&mut self, rec: EventRecord, _now: UtcMicros) -> Result<()> {
            self.got.push(rec);
            Ok(())
        }
        fn ready(&self) -> bool {
            self.ready
        }
        fn pump(&mut self, _now: UtcMicros) -> Result<()> {
            self.pumps += 1;
            Ok(())
        }
    }

    #[test]
    fn a_stalled_output_parks_records_in_the_sorter() {
        let mut p = plane(0);
        let mut out = TestOut::new();
        out.ready = false;
        p.push_batch(
            vec![rec(1, 0, 100), rec(1, 1, 200)],
            UtcMicros::from_micros(200),
        )
        .unwrap();
        // Output not ready: nothing released, records parked in the window.
        assert_eq!(p.tick(UtcMicros::from_micros(10_000), &mut out).unwrap(), 0);
        assert!(out.got.is_empty());
        assert_eq!(p.buffered(), 2);
        assert_eq!(out.pumps, 1, "pump still runs while stalled");
        // Output recovers: everything flows, in order.
        out.ready = true;
        assert_eq!(p.tick(UtcMicros::from_micros(20_000), &mut out).unwrap(), 2);
        let ts: Vec<i64> = out.got.iter().map(|r| r.ts.as_micros()).collect();
        assert_eq!(ts, vec![100, 200]);
        assert_eq!(p.stats().records_out, 2);
    }

    #[test]
    fn causal_plane_stamps_unstamped_records_and_counts_reorders() {
        let cfg = IsmConfig {
            sorter: SorterConfig {
                initial_frame_us: 0,
                min_frame_us: 0,
                ..SorterConfig::default()
            },
            order_mode: brisk_core::OrderMode::Causal,
            ..IsmConfig::default()
        };
        let mut p = MergePlane::new(&cfg).unwrap();
        let mut out = TestOut::new();
        // Node 1's clock is 2 s fast: its record's header ts looks far
        // later than node 2's, but its HLC stamp is causally earlier.
        let mut fast = rec(1, 0, 2_000_300);
        fast.set_hlc(brisk_core::HlcStamp::new(UtcMicros::from_micros(300), 0));
        let slow = rec(2, 0, 400); // unstamped: falls back to ts 400
        let now = UtcMicros::from_micros(500);
        p.push_batch(vec![fast, slow], now).unwrap();
        p.tick(UtcMicros::from_micros(10_000_000), &mut out)
            .unwrap();
        assert_eq!(out.got.len(), 2);
        assert!(
            out.got.iter().all(|r| r.hlc().is_some()),
            "every delivered record carries a stamp in causal mode"
        );
        assert_eq!(out.got[0].node, NodeId(1), "hlc 300 first");
        assert_eq!(out.got[1].node, NodeId(2));
        assert_eq!(
            p.causal_reorders(),
            1,
            "node 2's record was delivered after a (physically) later one"
        );
        assert!(p.hlc().last().physical >= UtcMicros::from_micros(300));
    }

    #[test]
    fn drain_ignores_readiness() {
        let mut p = plane(1_000_000);
        let mut out = TestOut::new();
        out.ready = false;
        p.push_batch(vec![rec(1, 0, 100)], UtcMicros::from_micros(100))
            .unwrap();
        assert_eq!(p.drain_all(&mut out).unwrap(), 1);
        assert_eq!(out.got.len(), 1);
    }
}
