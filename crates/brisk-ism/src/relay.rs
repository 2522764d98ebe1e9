//! The upstream export plane: what makes an ISM a *relay*.
//!
//! A relay ISM accepts N downstream EXS (or relay) connections through
//! the ordinary session plane, merges and repairs their streams through
//! the [`crate::merge::MergePlane`], and then — instead of delivering to
//! local sinks — re-exports the merged stream to a parent ISM *as if it
//! were a single EXS*. The [`UpstreamExporter`] here is that synthetic
//! EXS: it rewrites and batches the merged records and hands each batch
//! to the same [`Uplink`] an EXS ships through, which keeps the send
//! window, replays it across reconnects, follows the parent's credit,
//! answers its sync polls and heartbeats on idle links so the parent's
//! liveness sweep never falsely evicts a quiet subtree. Unlike an EXS, a
//! relay redials after an upstream `Shutdown`.
//!
//! Namespacing: every record is rewritten through the relay's
//! [`NodePrefix`] before it leaves (node id plus CRE reason/conseq
//! correlation ids, see [`brisk_proto::namespace`]), and the relay
//! introduces itself upstream as [`NodePrefix::relay_node`] — the bare
//! prefix value, which is disjoint from every rewritten subtree id. The
//! parent therefore sees one EXS-like peer whose batches happen to carry
//! many (namespaced) node ids, which the protocol permits: the batch
//! *header* node is what the spoof check validates, per-record ids are
//! the payload.
//!
//! Backpressure composes across tiers through [`MergeOutput::ready`]:
//! with the upstream link down or its credit spent, the exporter reports
//! not-ready, the merge plane parks records in the sorter's bounded
//! window, the session plane's queue bound fills, downstream reads
//! defer, and downstream credit dries up.

use crate::merge::MergeOutput;
use brisk_clock::{Clock, CorrectedClock};
use brisk_core::{EventRecord, Result, UtcMicros};
use brisk_lis::batch::Batcher;
use brisk_lis::uplink::{Backoff, ConnectFn, LinkEvent, Uplink, UplinkTelemetry};
use brisk_proto::NodePrefix;
use brisk_telemetry::Registry;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Knobs of one relay's upstream link.
#[derive(Clone, Debug)]
pub struct RelayConfig {
    /// This relay's namespace prefix; also its upstream identity
    /// ([`NodePrefix::relay_node`]).
    pub prefix: NodePrefix,
    /// Flush an upstream batch once it holds this many records.
    pub max_batch_records: usize,
    /// Flush once the encoded size reaches this many bytes.
    pub max_batch_bytes: usize,
    /// Flush a non-empty partial batch after this long (latency knob —
    /// every relay tier adds at most this much batching delay).
    pub flush_timeout: Duration,
    /// Sent-but-unacked batches kept for replay across reconnects. A
    /// full window evicts the oldest unacked batch (counted) rather than
    /// blocking the relay.
    pub window_batches: usize,
    /// Heartbeat the upstream once the link has been send-idle this long
    /// (zero disables). This is also what keeps the
    /// parent's `--node-timeout` sweep from evicting a subtree that is
    /// merely quiet: the relay synthesizes its subtree's liveness.
    pub heartbeat_interval: Duration,
    /// Delay between reconnect attempts after a link failure.
    pub reconnect: Backoff,
}

impl RelayConfig {
    /// Defaults for the given prefix.
    pub fn new(prefix: NodePrefix) -> Self {
        RelayConfig {
            prefix,
            max_batch_records: 256,
            max_batch_bytes: 60 * 1024,
            flush_timeout: Duration::from_millis(5),
            window_batches: 1024,
            heartbeat_interval: Duration::from_millis(500),
            reconnect: Backoff {
                initial: Duration::from_millis(20),
                max: Duration::from_secs(2),
            },
        }
    }
}

/// Counters of one upstream exporter.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RelayStats {
    /// Upstream connections established (including reconnects).
    pub connects: u64,
    /// `HelloAck`s received (connections the parent actually answered).
    pub hello_acks: u64,
    /// Batches shipped upstream (counted once, on entering the window).
    pub batches_exported: u64,
    /// Records shipped upstream (counted once, on entering the window).
    pub records_exported: u64,
    /// Batches replayed from the window after a reconnect.
    pub batches_retransmitted: u64,
    /// Cumulative `BatchAck`s received.
    pub acks_received: u64,
    /// Heartbeats sent on idle links.
    pub heartbeats_sent: u64,
    /// Unacked batches evicted from a full window (lost to replay).
    pub window_evicted: u64,
    /// Records dropped because the prefix rewrite overflowed (tree too
    /// deep for the id width).
    pub rewrite_errors: u64,
    /// Inbound control frames that failed to decode and were skipped.
    pub decode_errors: u64,
    /// Clock adjustments applied from upstream `SyncAdjust`s.
    pub adjustments: u64,
    /// Release pauses because the upstream credit budget was spent
    /// (stall leading edges, not per-tick).
    pub credit_stalls: u64,
}

/// Shared atomic backing for [`RelayStats`] plus the link gauges, so a
/// telemetry registry (and tests) can observe a live exporter from
/// another thread without locking. The link counters live in the
/// [`UplinkTelemetry`] the exporter's uplink bumps.
#[derive(Debug, Default)]
pub struct RelayTelemetry {
    link: Arc<UplinkTelemetry>,
    rewrite_errors: AtomicU64,
    credit_stalls: AtomicU64,
}

impl RelayTelemetry {
    /// Materialize the plain [`RelayStats`] view.
    pub fn stats(&self) -> RelayStats {
        let l = self.link.stats();
        RelayStats {
            connects: l.connects,
            hello_acks: l.hello_acks,
            batches_exported: l.batches_sent,
            records_exported: l.records_sent,
            batches_retransmitted: l.batches_retransmitted,
            acks_received: l.acks_received,
            heartbeats_sent: l.heartbeats_sent,
            window_evicted: l.window_evicted,
            rewrite_errors: self.rewrite_errors.load(Ordering::Relaxed),
            decode_errors: l.decode_errors,
            adjustments: l.adjustments,
            credit_stalls: self.credit_stalls.load(Ordering::Relaxed),
        }
    }

    /// Register every relay series with `registry`, labeled by prefix.
    pub fn bind(self: &Arc<Self>, prefix: NodePrefix, registry: &Registry) {
        type Field = fn(&RelayStats) -> u64;
        let p = prefix.raw().to_string();
        let counters: [(&str, &str, Field); 12] = [
            (
                "brisk_relay_connects_total",
                "Upstream connections established (including reconnects)",
                |s| s.connects,
            ),
            (
                "brisk_relay_hello_acks_total",
                "HelloAcks received from the upstream ISM",
                |s| s.hello_acks,
            ),
            (
                "brisk_relay_exported_batches_total",
                "Merged batches shipped upstream (counted once, on entering the retransmit window)",
                |s| s.batches_exported,
            ),
            (
                "brisk_relay_exported_records_total",
                "Merged records shipped upstream (counted once, on entering the retransmit window)",
                |s| s.records_exported,
            ),
            (
                "brisk_relay_retransmitted_batches_total",
                "Batches replayed from the retransmit window after reconnect",
                |s| s.batches_retransmitted,
            ),
            (
                "brisk_relay_acks_total",
                "Batch acknowledgements received from the upstream ISM",
                |s| s.acks_received,
            ),
            (
                "brisk_relay_heartbeats_total",
                "Liveness heartbeats sent upstream on idle links",
                |s| s.heartbeats_sent,
            ),
            (
                "brisk_relay_window_evicted_total",
                "Unacked batches evicted from a full retransmit window",
                |s| s.window_evicted,
            ),
            (
                "brisk_relay_rewrite_errors_total",
                "Records dropped because the namespace rewrite overflowed",
                |s| s.rewrite_errors,
            ),
            (
                "brisk_relay_decode_errors_total",
                "Inbound upstream control frames that failed to decode",
                |s| s.decode_errors,
            ),
            (
                "brisk_relay_adjustments_total",
                "Clock adjustments applied from upstream sync rounds",
                |s| s.adjustments,
            ),
            (
                "brisk_relay_credit_stalls_total",
                "Release pauses because the upstream credit budget was spent",
                |s| s.credit_stalls,
            ),
        ];
        for (name, help, get) in counters {
            let me = Arc::clone(self);
            registry.counter_fn(name, help, &[("prefix", &p)], move || get(&me.stats()));
        }
        let link = Arc::clone(&self.link);
        registry.gauge_fn(
            "brisk_relay_upstream_connected",
            "1 while the upstream link is established",
            &[("prefix", &p)],
            move || link.connected() as i64,
        );
        let link = Arc::clone(&self.link);
        registry.gauge_fn(
            "brisk_relay_window_depth",
            "Sent-but-unacked upstream batches held for replay",
            &[("prefix", &p)],
            move || link.window_depth() as i64,
        );
        let link = Arc::clone(&self.link);
        registry.gauge_fn(
            "brisk_relay_upstream_credit",
            "Granted upstream credit minus unacked in-flight records",
            &[("prefix", &p)],
            move || link.credit_balance(),
        );
        registry.register_histogram(
            "brisk_relay_ack_latency_us",
            "Upstream batch ship to cumulative ack latency",
            &[("prefix", &p)],
            self.link.ack_latency_us(),
        );
    }
}

/// The relay's synthetic EXS: rewrites and batches the merged stream and
/// ships it to the parent ISM over an [`Uplink`] under the relay's own
/// node id, which keeps delivery exactly-once (send window + replay + the
/// parent's `(node, seq)` dedup) across link failures.
pub struct UpstreamExporter {
    cfg: RelayConfig,
    link: Uplink,
    batcher: Batcher,
    /// The records of the batch being filled.
    pending: Vec<EventRecord>,
    shared: Arc<RelayTelemetry>,
}

impl UpstreamExporter {
    /// New exporter. Nothing is connected yet; the first
    /// [`MergeOutput::pump`] dials upstream.
    pub fn new(cfg: RelayConfig, connect: ConnectFn) -> Self {
        let synth = brisk_core::ExsConfig {
            max_batch_records: cfg.max_batch_records,
            max_batch_bytes: cfg.max_batch_bytes,
            flush_timeout: cfg.flush_timeout,
            ..brisk_core::ExsConfig::default()
        };
        let shared = Arc::new(RelayTelemetry::default());
        let link = Uplink::new(
            cfg.prefix.relay_node(),
            cfg.window_batches,
            cfg.heartbeat_interval,
            Arc::clone(&shared.link),
        )
        .redial(connect, cfg.reconnect, None);
        UpstreamExporter {
            cfg,
            link,
            batcher: Batcher::new(synth),
            pending: Vec::new(),
            shared,
        }
    }

    /// Encode the pending records as one batch under the relay's node id
    /// and hand the frame to the link (which numbers it).
    fn ship(&mut self) {
        let node = self.cfg.prefix.relay_node();
        let frame = brisk_proto::encode_batch(node, 0, &self.pending);
        self.link.send_frame(frame, self.pending.len() as u64);
        self.pending.clear();
    }

    /// Let the parent's sync rounds steer this relay's correction clock:
    /// `SyncPoll`s answer with this clock's corrected time, and
    /// `SyncAdjust`s shift its correction value. Without this the
    /// exporter answers polls with the time the merge plane hands it and
    /// drops adjustments.
    pub fn with_sync_clock(mut self, clock: Arc<CorrectedClock<Arc<dyn Clock>>>) -> Self {
        self.link = self.link.with_sync_clock(clock, true);
        self
    }

    /// Counters so far.
    pub fn stats(&self) -> RelayStats {
        self.shared.stats()
    }

    /// Register this exporter's series with a telemetry registry.
    pub fn bind_telemetry(&self, registry: &Registry) {
        self.shared.bind(self.cfg.prefix, registry);
    }

    /// True while the upstream link is established.
    pub fn connected(&self) -> bool {
        self.link.connected()
    }

    /// Sent-but-unacked batches currently held for replay.
    pub fn window_depth(&self) -> usize {
        self.link.window_depth()
    }
}

impl MergeOutput for UpstreamExporter {
    /// Rewrite one merged record into this relay's namespace and batch
    /// it for upstream shipment. A record whose ids cannot be rewritten
    /// (tree deeper than the id width) is counted and dropped rather
    /// than poisoning the pipeline.
    fn on_record(&mut self, mut rec: EventRecord, now: UtcMicros) -> Result<()> {
        if self.cfg.prefix.rewrite_record(&mut rec).is_err() {
            self.shared.rewrite_errors.fetch_add(1, Ordering::Relaxed);
            brisk_telemetry::flight_log!(
                Warn,
                "relay.upstream",
                "rewrite_overflow",
                "prefix {} dropped a record whose ids overflow the namespace (node {})",
                self.cfg.prefix.raw(),
                rec.node
            );
            return Ok(());
        }
        let bytes = rec.xdr_payload_size();
        self.pending.push(rec);
        if self.batcher.push(bytes, now).is_some() {
            self.ship();
        }
        Ok(())
    }

    /// Ready while the link is up and credit permits more in-flight
    /// records. Not-ready parks releases in the merge plane's sorter —
    /// tier-by-tier backpressure instead of an unbounded queue here.
    fn ready(&self) -> bool {
        self.link.ready()
    }

    /// Per-tick housekeeping: (re)dial, answer every pending control
    /// frame, heartbeat, flush the latency knob.
    fn pump(&mut self, now: UtcMicros) -> Result<()> {
        loop {
            match self.link.poll(now, Duration::ZERO)? {
                LinkEvent::Busy => {}
                // The parent is retiring this link (eviction, restart):
                // redial like after any other loss.
                LinkEvent::Shutdown { .. } => self.link.drop_connection("upstream sent Shutdown"),
                LinkEvent::Idle | LinkEvent::Lost => break,
            }
        }
        if self.batcher.poll_timeout(now).is_some() {
            self.ship();
        }
        if self.link.credit_stall() == Some(true) {
            self.shared.credit_stalls.fetch_add(1, Ordering::Relaxed);
        }
        Ok(())
    }

    /// Shutdown path: ship the final partial batch, then wait briefly
    /// for the parent's acks to drain the window so an orderly stop
    /// leaves nothing only-locally-buffered.
    fn flush(&mut self) -> Result<()> {
        if self.batcher.flush().is_some() {
            self.ship();
        }
        let deadline = Instant::now() + Duration::from_secs(2);
        while self.link.window_depth() > 0 && self.link.connected() && Instant::now() < deadline {
            // A real clock reading, never the drain's `UtcMicros::MAX`: a
            // sync poll answered here must carry a usable slave time.
            let polled = self.link.poll(UtcMicros::now(), Duration::from_millis(20));
            if !matches!(polled, Ok(LinkEvent::Idle | LinkEvent::Busy)) {
                break;
            }
        }
        if self.link.window_depth() > 0 {
            brisk_telemetry::flight_log!(
                Warn,
                "relay.upstream",
                "unacked_at_stop",
                "prefix {} stopping with {} unacked upstream batches",
                self.cfg.prefix.raw(),
                self.link.window_depth()
            );
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use brisk_core::{EventTypeId, NodeId, SensorId, Value};
    use brisk_net::{Connection, Listener, MemTransport, Transport};
    use brisk_proto::{Message, UNLIMITED_CREDIT, VERSION};

    fn rec(node: u32, seq: u64, ts: i64) -> EventRecord {
        EventRecord::new(
            NodeId(node),
            SensorId(0),
            EventTypeId(1),
            seq,
            UtcMicros::from_micros(ts),
            vec![Value::U64(seq)],
        )
        .unwrap()
    }

    fn exporter(t: &Arc<MemTransport>, name: &'static str, cfg: RelayConfig) -> UpstreamExporter {
        let t = Arc::clone(t);
        UpstreamExporter::new(cfg, Box::new(move || t.connect(name)))
    }

    fn accept(l: &mut Box<dyn Listener>) -> Box<dyn Connection> {
        l.accept(Some(Duration::from_secs(1)))
            .unwrap()
            .expect("exporter must dial")
    }

    fn recv_msg(c: &mut Box<dyn Connection>) -> Message {
        let frame = c
            .recv(Some(Duration::from_secs(1)))
            .unwrap()
            .expect("frame expected");
        Message::decode(&frame).unwrap()
    }

    #[test]
    fn ships_rewritten_batches_and_replays_across_reconnect() {
        let t = MemTransport::new();
        let mut listener = t.listen("up").unwrap();
        let mut cfg = RelayConfig::new(NodePrefix::new(7).unwrap());
        cfg.max_batch_records = 2;
        let mut ex = exporter(&t, "up", cfg);
        let now = UtcMicros::from_micros(1_000);

        assert!(!ex.ready(), "no link yet");
        ex.pump(now).unwrap();
        let mut server = accept(&mut listener);
        match recv_msg(&mut server) {
            Message::Hello { node, version } => {
                assert_eq!(node, NodeId(7), "relay introduces itself as its prefix");
                assert_eq!(version, VERSION);
            }
            other => panic!("expected Hello, got {other:?}"),
        }
        server
            .send(
                &Message::HelloAck {
                    credit: UNLIMITED_CREDIT,
                }
                .encode(),
            )
            .unwrap();
        ex.pump(now).unwrap();
        assert!(ex.ready());

        // Two records trip the record knob: one batch ships, rewritten.
        ex.on_record(rec(3, 0, 100), now).unwrap();
        ex.on_record(rec(4, 1, 200), now).unwrap();
        match recv_msg(&mut server) {
            Message::EventBatch { node, seq, records } => {
                assert_eq!(node, NodeId(7), "header node is the relay itself");
                assert_eq!(seq, 1);
                assert_eq!(records[0].node, NodeId((3 << 8) | 7));
                assert_eq!(records[1].node, NodeId((4 << 8) | 7));
            }
            other => panic!("expected EventBatch, got {other:?}"),
        }
        assert_eq!(ex.window_depth(), 1, "unacked batch stays windowed");

        // Kill the link without acking: the exporter must notice, redial
        // (at once: the parent had served the dead link) and replay the
        // unacked batch.
        drop(server);
        ex.pump(now).unwrap();
        let mut server = accept(&mut listener);
        match recv_msg(&mut server) {
            Message::Hello { node, .. } => assert_eq!(node, NodeId(7)),
            other => panic!("expected Hello, got {other:?}"),
        }
        match recv_msg(&mut server) {
            Message::EventBatch { seq, records, .. } => {
                assert_eq!(seq, 1, "same sequence number on replay");
                assert_eq!(records.len(), 2);
            }
            other => panic!("expected replayed EventBatch, got {other:?}"),
        }
        server
            .send(
                &Message::BatchAck {
                    seq: 1,
                    credit: UNLIMITED_CREDIT,
                }
                .encode(),
            )
            .unwrap();
        ex.pump(now).unwrap();
        assert_eq!(ex.window_depth(), 0, "cumulative ack releases the window");
        let stats = ex.stats();
        assert_eq!(stats.connects, 2);
        assert_eq!(stats.batches_exported, 1);
        assert_eq!(stats.records_exported, 2);
        assert_eq!(stats.batches_retransmitted, 1);
        assert_eq!(stats.acks_received, 1);
    }

    #[test]
    fn credit_exhaustion_gates_ready_until_acked() {
        let t = MemTransport::new();
        let mut listener = t.listen("credit").unwrap();
        let mut cfg = RelayConfig::new(NodePrefix::new(9).unwrap());
        cfg.max_batch_records = 1;
        let mut ex = exporter(&t, "credit", cfg);
        let now = UtcMicros::from_micros(1_000);
        ex.pump(now).unwrap();
        let mut server = accept(&mut listener);
        let _hello = recv_msg(&mut server);
        server
            .send(&Message::HelloAck { credit: 1 }.encode())
            .unwrap();
        ex.pump(now).unwrap();
        assert!(ex.ready(), "an empty window always passes");
        ex.on_record(rec(1, 0, 100), now).unwrap();
        let _batch = recv_msg(&mut server);
        ex.pump(now).unwrap();
        assert!(!ex.ready(), "budget of 1 spent by the in-flight record");
        assert!(ex.stats().credit_stalls >= 1);
        server
            .send(&Message::BatchAck { seq: 1, credit: 1 }.encode())
            .unwrap();
        ex.pump(now).unwrap();
        assert!(ex.ready(), "ack replenishes the budget");
    }

    #[test]
    fn idle_link_heartbeats_once_acknowledged() {
        let t = MemTransport::new();
        let mut listener = t.listen("hb").unwrap();
        let mut cfg = RelayConfig::new(NodePrefix::new(2).unwrap());
        cfg.heartbeat_interval = Duration::from_millis(10);
        let mut ex = exporter(&t, "hb", cfg);
        let at = |ms: i64| UtcMicros::from_micros(1_000 + ms * 1_000);
        ex.pump(at(0)).unwrap();
        let mut server = accept(&mut listener);
        let _hello = recv_msg(&mut server);
        // No HelloAck yet: idle time passes, no heartbeat (nothing has
        // served the link yet).
        ex.pump(at(15)).unwrap();
        assert_eq!(ex.stats().heartbeats_sent, 0);
        server
            .send(
                &Message::HelloAck {
                    credit: UNLIMITED_CREDIT,
                }
                .encode(),
            )
            .unwrap();
        ex.pump(at(15)).unwrap();
        ex.pump(at(30)).unwrap();
        assert_eq!(ex.stats().heartbeats_sent, 1);
        match recv_msg(&mut server) {
            Message::Heartbeat => {}
            other => panic!("expected Heartbeat, got {other:?}"),
        }
        // Pacing follows the caller's clock: a backward step adds no idle
        // time, so it cannot trigger a heartbeat early.
        ex.pump(at(-5_000)).unwrap();
        ex.pump(at(-4_995)).unwrap();
        assert_eq!(ex.stats().heartbeats_sent, 1);
        ex.pump(at(-4_985)).unwrap();
        assert_eq!(ex.stats().heartbeats_sent, 2);
    }

    #[test]
    fn flush_waits_for_the_final_ack() {
        let t = MemTransport::new();
        let mut listener = t.listen("flush").unwrap();
        let cfg = RelayConfig::new(NodePrefix::new(5).unwrap());
        let mut ex = exporter(&t, "flush", cfg);
        let now = UtcMicros::from_micros(1_000);
        ex.pump(now).unwrap();
        let mut server = accept(&mut listener);
        let _hello = recv_msg(&mut server);
        server
            .send(
                &Message::HelloAck {
                    credit: UNLIMITED_CREDIT,
                }
                .encode(),
            )
            .unwrap();
        ex.pump(now).unwrap();
        // A partial batch sits in the batcher; flush must ship it and
        // wait for the ack.
        ex.on_record(rec(1, 0, 100), now).unwrap();
        assert_eq!(ex.window_depth(), 0, "partial batch not yet shipped");
        let acker = std::thread::spawn(move || {
            match recv_msg(&mut server) {
                Message::EventBatch { seq, records, .. } => {
                    assert_eq!(seq, 1);
                    assert_eq!(records[0].node, NodeId((1 << 8) | 5));
                }
                other => panic!("expected final batch, got {other:?}"),
            }
            server
                .send(
                    &Message::BatchAck {
                        seq: 1,
                        credit: UNLIMITED_CREDIT,
                    }
                    .encode(),
                )
                .unwrap();
        });
        ex.flush().unwrap();
        assert_eq!(ex.window_depth(), 0, "final batch acked before stop");
        acker.join().unwrap();
    }

    #[test]
    fn sync_poll_is_answered_and_adjust_steers_the_clock() {
        use brisk_clock::SystemClock;
        let t = MemTransport::new();
        let mut listener = t.listen("sync").unwrap();
        let cfg = RelayConfig::new(NodePrefix::new(4).unwrap());
        let raw: Arc<dyn Clock> = Arc::new(SystemClock);
        let clock = CorrectedClock::new(raw);
        let mut ex = exporter(&t, "sync", cfg).with_sync_clock(Arc::clone(&clock));
        let now = UtcMicros::from_micros(1_000);
        ex.pump(now).unwrap();
        let mut server = accept(&mut listener);
        let _hello = recv_msg(&mut server);
        server
            .send(
                &Message::SyncPoll {
                    round: 1,
                    sample: 0,
                    master_send: UtcMicros::from_micros(500),
                }
                .encode(),
            )
            .unwrap();
        ex.pump(now).unwrap();
        match recv_msg(&mut server) {
            Message::SyncReply { round, sample, .. } => {
                assert_eq!((round, sample), (1, 0));
            }
            other => panic!("expected SyncReply, got {other:?}"),
        }
        server
            .send(
                &Message::SyncAdjust {
                    round: 1,
                    advance_us: 250,
                }
                .encode(),
            )
            .unwrap();
        ex.pump(now).unwrap();
        assert_eq!(clock.correction_us(), 250);
        assert_eq!(ex.stats().adjustments, 1);
    }

    #[test]
    fn sync_poll_during_flush_gets_a_real_clock_reading() {
        // An exporter without a sync clock answers polls with the time it
        // is handed. The shutdown drain has no pipeline time (the merge
        // plane passes `UtcMicros::MAX`), so a poll answered there must
        // still carry a wall-clock reading, or the parent would take this
        // relay as its most-ahead reference.
        let t = MemTransport::new();
        let mut listener = t.listen("drain").unwrap();
        let mut ex = exporter(&t, "drain", RelayConfig::new(NodePrefix::new(6).unwrap()));
        let now = UtcMicros::now();
        ex.pump(now).unwrap();
        let mut server = accept(&mut listener);
        let _hello = recv_msg(&mut server);
        server
            .send(
                &Message::HelloAck {
                    credit: UNLIMITED_CREDIT,
                }
                .encode(),
            )
            .unwrap();
        ex.pump(now).unwrap();
        ex.on_record(rec(1, 0, 100), now).unwrap();
        let parent = std::thread::spawn(move || {
            assert!(matches!(recv_msg(&mut server), Message::EventBatch { .. }));
            server
                .send(
                    &Message::SyncPoll {
                        round: 1,
                        sample: 0,
                        master_send: UtcMicros::now(),
                    }
                    .encode(),
                )
                .unwrap();
            let slave_time = loop {
                if let Message::SyncReply { slave_time, .. } = recv_msg(&mut server) {
                    break slave_time;
                }
            };
            server
                .send(
                    &Message::BatchAck {
                        seq: 1,
                        credit: UNLIMITED_CREDIT,
                    }
                    .encode(),
                )
                .unwrap();
            slave_time
        });
        ex.flush().unwrap();
        let slave_time = parent.join().unwrap();
        let off = slave_time.micros_since(UtcMicros::now()).abs();
        assert!(
            off < 1_000_000,
            "reply {slave_time:?} is {off} µs off the wall clock"
        );
    }

    #[test]
    fn records_windowed_while_the_link_is_down_count_once() {
        let t = MemTransport::new();
        let mut listener = t.listen("down").unwrap();
        let mut cfg = RelayConfig::new(NodePrefix::new(3).unwrap());
        cfg.max_batch_records = 1;
        let mut ex = exporter(&t, "down", cfg);
        let at = |ms: i64| UtcMicros::from_micros(ms * 1_000);
        ex.pump(at(0)).unwrap();
        let mut server = accept(&mut listener);
        let _hello = recv_msg(&mut server);
        server
            .send(
                &Message::HelloAck {
                    credit: UNLIMITED_CREDIT,
                }
                .encode(),
            )
            .unwrap();
        ex.pump(at(0)).unwrap();
        ex.on_record(rec(1, 0, 100), at(0)).unwrap();
        let _batch = recv_msg(&mut server);
        // The parent goes away entirely: the link drops and redials fail.
        drop(server);
        drop(listener);
        ex.pump(at(1)).unwrap();
        assert!(!ex.connected());
        // Shipped while down: windowed, counted now, replayed later. One
        // record's ids overflow the namespace and never reach the window.
        for seq in 1..4 {
            ex.on_record(rec(1, seq, 100 + seq as i64), at(1)).unwrap();
        }
        ex.on_record(rec(1 << 24, 9, 200), at(1)).unwrap();
        let mut listener = t.listen("down").unwrap();
        ex.pump(at(10_000)).unwrap();
        let mut server = accept(&mut listener);
        let _hello = recv_msg(&mut server);
        let mut replayed = Vec::new();
        for _ in 0..4 {
            match recv_msg(&mut server) {
                Message::EventBatch { seq, .. } => replayed.push(seq),
                other => panic!("expected a replayed batch, got {other:?}"),
            }
        }
        assert_eq!(replayed, vec![1, 2, 3, 4]);
        server
            .send(
                &Message::BatchAck {
                    seq: 4,
                    credit: UNLIMITED_CREDIT,
                }
                .encode(),
            )
            .unwrap();
        ex.pump(at(10_001)).unwrap();
        let stats = ex.stats();
        assert_eq!(ex.window_depth(), 0);
        assert_eq!(stats.rewrite_errors, 1);
        assert_eq!(stats.records_exported, 5 - stats.rewrite_errors);
        assert_eq!(stats.batches_exported, 4);
        assert_eq!(stats.batches_retransmitted, 4);
    }
}
