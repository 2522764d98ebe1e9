//! The upstream export plane: what makes an ISM a *relay*.
//!
//! A relay ISM accepts N downstream EXS (or relay) connections through
//! the ordinary session plane, merges and repairs their streams through
//! the [`crate::merge::MergePlane`], and then — instead of delivering to
//! local sinks — re-exports the merged stream to a parent ISM *as if it
//! were a single EXS*. The [`UpstreamExporter`] here is that synthetic
//! EXS: it speaks the same v3 Hello/EventBatch/BatchAck/credit protocol,
//! keeps its own bounded retransmit window, replays unacked batches
//! across reconnects, answers the parent's sync polls, and heartbeats on
//! idle links so the parent's liveness sweep never falsely evicts a
//! quiet subtree.
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
use brisk_lis::batch::{Batcher, SendWindow};
use brisk_net::Connection;
use brisk_proto::{Message, NodePrefix};
use brisk_telemetry::{Histogram, Registry};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Factory for upstream connections, invoked on every (re)connect.
pub type ConnectFn = Box<dyn Fn() -> Result<Box<dyn Connection>> + Send>;

/// Undecodable inbound control frames tolerated per connection before it
/// is declared broken (mirrors the EXS-side budget).
const CONTROL_ERROR_BUDGET: u32 = 8;

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
    /// (v3 links only; zero disables). This is also what keeps the
    /// parent's `--node-timeout` sweep from evicting a subtree that is
    /// merely quiet: the relay synthesizes its subtree's liveness.
    pub heartbeat_interval: Duration,
    /// First reconnect delay after a link failure.
    pub reconnect_initial: Duration,
    /// Reconnect delay cap (doubling backoff in between).
    pub reconnect_max: Duration,
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
            reconnect_initial: Duration::from_millis(20),
            reconnect_max: Duration::from_secs(2),
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
    /// Batches shipped upstream (first transmissions).
    pub batches_exported: u64,
    /// Records shipped upstream (first transmissions).
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
/// another thread without locking.
#[derive(Debug, Default)]
pub struct RelayTelemetry {
    connects: AtomicU64,
    hello_acks: AtomicU64,
    batches_exported: AtomicU64,
    records_exported: AtomicU64,
    batches_retransmitted: AtomicU64,
    acks_received: AtomicU64,
    heartbeats_sent: AtomicU64,
    window_evicted: AtomicU64,
    rewrite_errors: AtomicU64,
    decode_errors: AtomicU64,
    adjustments: AtomicU64,
    credit_stalls: AtomicU64,
    /// 1 while the upstream link is connected.
    connected: AtomicU64,
    /// Current retransmit-window occupancy (batches).
    window_depth: AtomicU64,
    /// Granted credit minus unacked in-flight records (0 while credit is
    /// off).
    credit_balance: AtomicI64,
    /// Batch ship → cumulative ack covering it, in µs (the per-tier
    /// relay delivery latency).
    ack_latency_us: Arc<Histogram>,
}

impl RelayTelemetry {
    /// Materialize the plain [`RelayStats`] view.
    pub fn stats(&self) -> RelayStats {
        let ld = |a: &AtomicU64| a.load(Ordering::Relaxed);
        RelayStats {
            connects: ld(&self.connects),
            hello_acks: ld(&self.hello_acks),
            batches_exported: ld(&self.batches_exported),
            records_exported: ld(&self.records_exported),
            batches_retransmitted: ld(&self.batches_retransmitted),
            acks_received: ld(&self.acks_received),
            heartbeats_sent: ld(&self.heartbeats_sent),
            window_evicted: ld(&self.window_evicted),
            rewrite_errors: ld(&self.rewrite_errors),
            decode_errors: ld(&self.decode_errors),
            adjustments: ld(&self.adjustments),
            credit_stalls: ld(&self.credit_stalls),
        }
    }

    /// True while the upstream link is up.
    pub fn connected(&self) -> bool {
        self.connected.load(Ordering::Relaxed) == 1
    }

    /// The ship→ack latency histogram.
    pub fn ack_latency_us(&self) -> &Histogram {
        &self.ack_latency_us
    }

    /// Register every relay series with `registry`, labeled by prefix.
    pub fn bind(self: &Arc<Self>, prefix: NodePrefix, registry: &Registry) {
        type Field = fn(&RelayTelemetry) -> &AtomicU64;
        let p = prefix.raw().to_string();
        let counters: [(&str, &str, Field); 12] = [
            (
                "brisk_relay_connects_total",
                "Upstream connections established (including reconnects)",
                |t| &t.connects,
            ),
            (
                "brisk_relay_hello_acks_total",
                "HelloAcks received from the upstream ISM",
                |t| &t.hello_acks,
            ),
            (
                "brisk_relay_exported_batches_total",
                "Merged batches shipped upstream (first transmissions)",
                |t| &t.batches_exported,
            ),
            (
                "brisk_relay_exported_records_total",
                "Merged records shipped upstream (first transmissions)",
                |t| &t.records_exported,
            ),
            (
                "brisk_relay_retransmitted_batches_total",
                "Batches replayed from the retransmit window after reconnect",
                |t| &t.batches_retransmitted,
            ),
            (
                "brisk_relay_acks_total",
                "Batch acknowledgements received from the upstream ISM",
                |t| &t.acks_received,
            ),
            (
                "brisk_relay_heartbeats_total",
                "Liveness heartbeats sent upstream on idle links",
                |t| &t.heartbeats_sent,
            ),
            (
                "brisk_relay_window_evicted_total",
                "Unacked batches evicted from a full retransmit window",
                |t| &t.window_evicted,
            ),
            (
                "brisk_relay_rewrite_errors_total",
                "Records dropped because the namespace rewrite overflowed",
                |t| &t.rewrite_errors,
            ),
            (
                "brisk_relay_decode_errors_total",
                "Inbound upstream control frames that failed to decode",
                |t| &t.decode_errors,
            ),
            (
                "brisk_relay_adjustments_total",
                "Clock adjustments applied from upstream sync rounds",
                |t| &t.adjustments,
            ),
            (
                "brisk_relay_credit_stalls_total",
                "Release pauses because the upstream credit budget was spent",
                |t| &t.credit_stalls,
            ),
        ];
        for (name, help, get) in counters {
            let me = Arc::clone(self);
            registry.counter_fn(name, help, &[("prefix", &p)], move || {
                get(&me).load(Ordering::Relaxed)
            });
        }
        let me = Arc::clone(self);
        registry.gauge_fn(
            "brisk_relay_upstream_connected",
            "1 while the upstream link is established",
            &[("prefix", &p)],
            move || me.connected.load(Ordering::Relaxed) as i64,
        );
        let me = Arc::clone(self);
        registry.gauge_fn(
            "brisk_relay_window_depth",
            "Sent-but-unacked upstream batches held for replay",
            &[("prefix", &p)],
            move || me.window_depth.load(Ordering::Relaxed) as i64,
        );
        let me = Arc::clone(self);
        registry.gauge_fn(
            "brisk_relay_upstream_credit",
            "Granted upstream credit minus unacked in-flight records",
            &[("prefix", &p)],
            move || me.credit_balance.load(Ordering::Relaxed),
        );
        registry.register_histogram(
            "brisk_relay_ack_latency_us",
            "Upstream batch ship to cumulative ack latency",
            &[("prefix", &p)],
            &self.ack_latency_us,
        );
    }
}

/// The relay's synthetic EXS: batches the merged stream, ships it to the
/// parent ISM under the relay's own node id, and maintains exactly-once
/// delivery (send window + replay + the parent's `(node, seq)` dedup)
/// across link failures.
pub struct UpstreamExporter {
    cfg: RelayConfig,
    connect: ConnectFn,
    conn: Option<Box<dyn Connection>>,
    batcher: Batcher,
    /// Survives reconnects: unacked batches replay on the next link.
    window: SendWindow,
    /// Absolute in-flight budget the parent re-advertises on every ack;
    /// `None` = no flow control.
    credit: Option<u64>,
    /// Version from the parent's `HelloAck`; gates heartbeats (v3 tag).
    negotiated: Option<u32>,
    /// The relay's correction clock, when the parent's sync rounds
    /// should steer this tier (SyncPoll/SyncAdjust handling).
    sync_clock: Option<Arc<CorrectedClock<Arc<dyn Clock>>>>,
    /// Reconnect pacing.
    backoff: Duration,
    next_attempt: Instant,
    /// Heartbeat pacing: wall time of the last frame sent upstream.
    last_send: Instant,
    /// Ship time per windowed seq, for the ack-latency histogram.
    inflight: VecDeque<(u64, Instant)>,
    control_errors: u32,
    credit_stalled: bool,
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
        UpstreamExporter {
            conn: None,
            batcher: Batcher::new(synth),
            window: SendWindow::new(cfg.window_batches),
            credit: None,
            negotiated: None,
            sync_clock: None,
            backoff: cfg.reconnect_initial,
            next_attempt: Instant::now(),
            last_send: Instant::now(),
            inflight: VecDeque::new(),
            control_errors: 0,
            credit_stalled: false,
            shared: Arc::default(),
            cfg,
            connect,
        }
    }

    /// Let the parent's sync rounds steer this relay's correction clock:
    /// `SyncPoll`s answer with this clock's corrected time, and
    /// `SyncAdjust`s shift its correction value. Without this the
    /// exporter answers polls with the time the merge plane hands it and
    /// drops adjustments.
    pub fn with_sync_clock(mut self, clock: Arc<CorrectedClock<Arc<dyn Clock>>>) -> Self {
        self.sync_clock = Some(clock);
        self
    }

    /// This relay's namespace prefix.
    pub fn prefix(&self) -> NodePrefix {
        self.cfg.prefix
    }

    /// Counters so far.
    pub fn stats(&self) -> RelayStats {
        self.shared.stats()
    }

    /// The shared telemetry backing (clone the `Arc` to observe from
    /// another thread).
    pub fn telemetry(&self) -> &Arc<RelayTelemetry> {
        &self.shared
    }

    /// Register this exporter's series with a telemetry registry.
    pub fn bind_telemetry(&self, registry: &Registry) {
        self.shared.bind(self.cfg.prefix, registry);
    }

    /// True while the upstream link is established.
    pub fn connected(&self) -> bool {
        self.conn.is_some()
    }

    /// The credit budget currently granted by the parent, if any.
    pub fn credit(&self) -> Option<u64> {
        self.credit
    }

    /// Sent-but-unacked batches currently held for replay.
    pub fn window_depth(&self) -> usize {
        self.window.depth()
    }

    /// True when flow control permits putting more records in flight:
    /// credit off, or unacked records under budget. An empty window
    /// always passes (progress guarantee — a zero grant can never
    /// deadlock the tier).
    fn credit_open(&self) -> bool {
        match self.credit {
            Some(c) => self.window.depth() == 0 || self.window.unacked_records() < c,
            None => true,
        }
    }

    fn mirror_gauges(&self) {
        self.shared
            .window_depth
            .store(self.window.depth() as u64, Ordering::Relaxed);
        let bal = match self.credit {
            Some(c) => c as i64 - self.window.unacked_records() as i64,
            None => 0,
        };
        self.shared.credit_balance.store(bal, Ordering::Relaxed);
        self.shared
            .connected
            .store(self.conn.is_some() as u64, Ordering::Relaxed);
    }

    /// Drop the link and schedule a retry (doubling backoff). The window
    /// keeps every unacked batch for replay on the next incarnation.
    fn mark_disconnected(&mut self, why: &str) {
        if self.conn.take().is_some() {
            brisk_telemetry::flight_log!(
                Warn,
                "relay.upstream",
                "disconnect",
                "prefix {} lost its upstream link ({why}); {} unacked batches held for replay",
                self.cfg.prefix.raw(),
                self.window.depth()
            );
        }
        self.negotiated = None;
        self.control_errors = 0;
        self.next_attempt = Instant::now() + self.backoff;
        self.backoff = (self.backoff * 2).min(self.cfg.reconnect_max);
    }

    /// Dial upstream if the link is down and the backoff has elapsed:
    /// send `Hello` as the relay's own node and immediately replay every
    /// unacked batch (the parent deduplicates, so replaying batches it
    /// already processed is harmless).
    fn ensure_connected(&mut self) {
        if self.conn.is_some() || Instant::now() < self.next_attempt {
            return;
        }
        let mut conn = match (self.connect)() {
            Ok(conn) => conn,
            Err(_) => {
                self.next_attempt = Instant::now() + self.backoff;
                self.backoff = (self.backoff * 2).min(self.cfg.reconnect_max);
                return;
            }
        };
        let hello = Message::Hello {
            node: self.cfg.prefix.relay_node(),
            version: brisk_proto::VERSION,
        };
        if conn.send(&hello.encode()).is_err() {
            self.next_attempt = Instant::now() + self.backoff;
            self.backoff = (self.backoff * 2).min(self.cfg.reconnect_max);
            return;
        }
        self.conn = Some(conn);
        self.last_send = Instant::now();
        self.shared.connects.fetch_add(1, Ordering::Relaxed);
        brisk_telemetry::flight_log!(
            Info,
            "relay.upstream",
            "connect",
            "prefix {} connected upstream; replaying {} unacked batches",
            self.cfg.prefix.raw(),
            self.window.depth()
        );
        self.replay_unacked();
    }

    /// Replay every unacked batch in sequence order, ahead of new
    /// traffic. Replay deliberately ignores credit: those records were
    /// already granted in flight by the previous connection.
    fn replay_unacked(&mut self) {
        let Some(conn) = &mut self.conn else { return };
        let failed = self
            .window
            .iter_unacked()
            .any(|(_, frame)| conn.send(frame).is_err());
        if failed {
            self.mark_disconnected("send failed during replay");
            return;
        }
        self.shared
            .batches_retransmitted
            .fetch_add(self.window.depth() as u64, Ordering::Relaxed);
        self.last_send = Instant::now();
    }

    /// Window a fresh batch and ship it. On a dead link the batch simply
    /// stays windowed; the next reconnect's replay delivers it.
    fn ship(&mut self, records: Vec<EventRecord>) {
        let n = records.len() as u64;
        let pushed = self.window.push(self.cfg.prefix.relay_node(), &records);
        if pushed.evicted.is_some() {
            self.shared.window_evicted.fetch_add(1, Ordering::Relaxed);
            brisk_telemetry::flight_log!(
                Warn,
                "relay.upstream",
                "window_evict",
                "prefix {} evicted an unacked batch from a full window (size {})",
                self.cfg.prefix.raw(),
                self.cfg.window_batches
            );
        }
        self.inflight.push_back((pushed.seq, Instant::now()));
        if let Some(conn) = &mut self.conn {
            if conn.send(pushed.frame).is_err() {
                self.mark_disconnected("send failed");
            } else {
                self.last_send = Instant::now();
                self.shared.batches_exported.fetch_add(1, Ordering::Relaxed);
                self.shared.records_exported.fetch_add(n, Ordering::Relaxed);
            }
        }
    }

    /// Drain and answer the parent's control traffic without blocking.
    fn poll_control(&mut self, now: UtcMicros) {
        loop {
            let Some(conn) = &mut self.conn else { return };
            match conn.recv(Some(Duration::ZERO)) {
                Ok(Some(frame)) => match Message::decode(&frame) {
                    Ok(msg) => {
                        if !self.handle_control(msg, now) {
                            return;
                        }
                    }
                    Err(_) => {
                        self.shared.decode_errors.fetch_add(1, Ordering::Relaxed);
                        self.control_errors += 1;
                        if self.control_errors > CONTROL_ERROR_BUDGET {
                            self.mark_disconnected("control decode budget exhausted");
                            return;
                        }
                    }
                },
                Ok(None) => return,
                Err(_) => {
                    self.mark_disconnected("recv failed");
                    return;
                }
            }
        }
    }

    /// Handle one decoded upstream message. Returns `false` when the
    /// link died while handling it.
    fn handle_control(&mut self, msg: Message, now: UtcMicros) -> bool {
        match msg {
            Message::HelloAck { version, credit } => {
                self.negotiated = Some(version);
                // Authoritative for the connection's flow control.
                self.credit = credit;
                self.backoff = self.cfg.reconnect_initial;
                // Idle time before negotiation completed doesn't count
                // toward the heartbeat deadline — the parent only expects
                // heartbeats once it has granted v3.
                self.last_send = Instant::now();
                self.shared.hello_acks.fetch_add(1, Ordering::Relaxed);
                brisk_telemetry::flight_log!(
                    Info,
                    "relay.upstream",
                    "hello_ack",
                    "prefix {} upstream negotiated v{version}, credit {credit:?}",
                    self.cfg.prefix.raw()
                );
                if version < 2 {
                    // The parent will never ack: the window would hold
                    // batches forever and exactly-once degrades to
                    // fire-and-forget. Surface it loudly.
                    brisk_telemetry::flight_log!(
                        Warn,
                        "relay.upstream",
                        "v1_upstream",
                        "prefix {} upstream speaks v1: no acks, relay delivery degrades to at-most-once",
                        self.cfg.prefix.raw()
                    );
                }
                true
            }
            Message::BatchAck { seq, credit } => {
                self.window.ack(seq);
                while let Some(&(s, sent)) = self.inflight.front() {
                    if s > seq {
                        break;
                    }
                    self.shared
                        .ack_latency_us
                        .record(sent.elapsed().as_micros() as u64);
                    self.inflight.pop_front();
                }
                if credit.is_some() {
                    self.credit = credit;
                }
                self.shared.acks_received.fetch_add(1, Ordering::Relaxed);
                true
            }
            Message::SyncPoll {
                round,
                sample,
                master_send,
            } => {
                let slave_time = match &self.sync_clock {
                    Some(c) => c.now(),
                    None => now,
                };
                let reply = Message::SyncReply {
                    round,
                    sample,
                    master_send,
                    slave_time,
                };
                if let Some(conn) = &mut self.conn {
                    if conn.send(&reply.encode()).is_err() {
                        self.mark_disconnected("send failed answering sync poll");
                        return false;
                    }
                    self.last_send = Instant::now();
                }
                true
            }
            Message::SyncAdjust { advance_us, .. } => {
                if let Some(c) = &self.sync_clock {
                    c.adjust(advance_us);
                    self.shared.adjustments.fetch_add(1, Ordering::Relaxed);
                }
                true
            }
            Message::Shutdown => {
                // The parent is retiring this link (eviction, restart).
                // Treat it like any disconnect: back off and redial.
                self.mark_disconnected("upstream sent Shutdown");
                false
            }
            // Anything else (a Hello, a batch) is nonsense on an
            // upstream link; count it against the error budget.
            _ => {
                self.shared.decode_errors.fetch_add(1, Ordering::Relaxed);
                self.control_errors += 1;
                if self.control_errors > CONTROL_ERROR_BUDGET {
                    self.mark_disconnected("unexpected upstream traffic");
                    return false;
                }
                true
            }
        }
    }

    /// Heartbeat an idle v3 link so the parent's liveness sweep sees the
    /// subtree as alive even when no records flow.
    fn maybe_heartbeat(&mut self) {
        if self.cfg.heartbeat_interval.is_zero()
            || self.negotiated.is_none_or(|v| v < 3)
            || self.conn.is_none()
        {
            return;
        }
        if self.last_send.elapsed() >= self.cfg.heartbeat_interval {
            if let Some(conn) = &mut self.conn {
                if conn.send(&Message::Heartbeat.encode()).is_err() {
                    self.mark_disconnected("send failed on heartbeat");
                    return;
                }
            }
            self.last_send = Instant::now();
            self.shared.heartbeats_sent.fetch_add(1, Ordering::Relaxed);
        }
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
        if let Some((batch, _reason)) = self.batcher.push(rec, now) {
            self.ship(batch);
        }
        Ok(())
    }

    /// Ready while the link is up and credit permits more in-flight
    /// records. Not-ready parks releases in the merge plane's sorter —
    /// tier-by-tier backpressure instead of an unbounded queue here.
    fn ready(&self) -> bool {
        self.conn.is_some() && self.credit_open()
    }

    /// Per-tick housekeeping: reconnect, answer control traffic, flush
    /// the latency knob, heartbeat, refresh gauges.
    fn pump(&mut self, now: UtcMicros) -> Result<()> {
        self.ensure_connected();
        self.poll_control(now);
        if let Some((batch, _reason)) = self.batcher.poll_timeout(now) {
            self.ship(batch);
        }
        self.maybe_heartbeat();
        let open = self.credit_open();
        if !open && !self.credit_stalled {
            self.credit_stalled = true;
            self.shared.credit_stalls.fetch_add(1, Ordering::Relaxed);
            brisk_telemetry::flight_log!(
                Warn,
                "relay.upstream",
                "credit_stall",
                "prefix {} pausing releases: upstream credit budget {:?} spent",
                self.cfg.prefix.raw(),
                self.credit
            );
        } else if open {
            self.credit_stalled = false;
        }
        self.mirror_gauges();
        Ok(())
    }

    /// Shutdown path: ship the final partial batch, then wait briefly
    /// for the parent's acks to drain the window so an orderly stop
    /// leaves nothing only-locally-buffered.
    fn flush(&mut self) -> Result<()> {
        if let Some((batch, _reason)) = self.batcher.flush() {
            self.ship(batch);
        }
        let deadline = Instant::now() + Duration::from_secs(2);
        while self.window.depth() > 0 && self.conn.is_some() && Instant::now() < deadline {
            let Some(conn) = &mut self.conn else { break };
            match conn.recv(Some(Duration::from_millis(20))) {
                Ok(Some(frame)) => {
                    if let Ok(msg) = Message::decode(&frame) {
                        self.handle_control(msg, UtcMicros::MAX);
                    }
                }
                Ok(None) => {}
                Err(_) => {
                    self.mark_disconnected("recv failed during final drain");
                    break;
                }
            }
        }
        if self.window.depth() > 0 {
            brisk_telemetry::flight_log!(
                Warn,
                "relay.upstream",
                "unacked_at_stop",
                "prefix {} stopping with {} unacked upstream batches",
                self.cfg.prefix.raw(),
                self.window.depth()
            );
        }
        self.mirror_gauges();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use brisk_core::{EventTypeId, NodeId, SensorId, Value};
    use brisk_net::{Listener, MemTransport, Transport};
    use brisk_proto::VERSION;

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
        cfg.reconnect_initial = Duration::from_millis(1);
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
                    version: VERSION,
                    credit: None,
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
                assert_eq!(seq, Some(1));
                assert_eq!(records[0].node, NodeId((3 << 8) | 7));
                assert_eq!(records[1].node, NodeId((4 << 8) | 7));
            }
            other => panic!("expected EventBatch, got {other:?}"),
        }
        assert_eq!(ex.window_depth(), 1, "unacked batch stays windowed");

        // Kill the link without acking: the exporter must notice, back
        // off, redial, and replay the unacked batch.
        drop(server);
        ex.pump(now).unwrap();
        assert!(!ex.connected(), "dead link detected");
        std::thread::sleep(Duration::from_millis(5));
        ex.pump(now).unwrap();
        let mut server = accept(&mut listener);
        match recv_msg(&mut server) {
            Message::Hello { node, .. } => assert_eq!(node, NodeId(7)),
            other => panic!("expected Hello, got {other:?}"),
        }
        match recv_msg(&mut server) {
            Message::EventBatch { seq, records, .. } => {
                assert_eq!(seq, Some(1), "same sequence number on replay");
                assert_eq!(records.len(), 2);
            }
            other => panic!("expected replayed EventBatch, got {other:?}"),
        }
        server
            .send(
                &Message::BatchAck {
                    seq: 1,
                    credit: None,
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
            .send(
                &Message::HelloAck {
                    version: VERSION,
                    credit: Some(1),
                }
                .encode(),
            )
            .unwrap();
        ex.pump(now).unwrap();
        assert!(ex.ready(), "an empty window always passes");
        ex.on_record(rec(1, 0, 100), now).unwrap();
        let _batch = recv_msg(&mut server);
        ex.pump(now).unwrap();
        assert!(!ex.ready(), "budget of 1 spent by the in-flight record");
        assert!(ex.stats().credit_stalls >= 1);
        server
            .send(
                &Message::BatchAck {
                    seq: 1,
                    credit: Some(1),
                }
                .encode(),
            )
            .unwrap();
        ex.pump(now).unwrap();
        assert!(ex.ready(), "ack replenishes the budget");
    }

    #[test]
    fn idle_v3_link_heartbeats() {
        let t = MemTransport::new();
        let mut listener = t.listen("hb").unwrap();
        let mut cfg = RelayConfig::new(NodePrefix::new(2).unwrap());
        cfg.heartbeat_interval = Duration::from_millis(10);
        let mut ex = exporter(&t, "hb", cfg);
        let now = UtcMicros::from_micros(1_000);
        ex.pump(now).unwrap();
        let mut server = accept(&mut listener);
        let _hello = recv_msg(&mut server);
        // No HelloAck yet: idle time passes, no heartbeat (the peer may
        // not speak v3).
        std::thread::sleep(Duration::from_millis(15));
        ex.pump(now).unwrap();
        assert_eq!(ex.stats().heartbeats_sent, 0);
        server
            .send(
                &Message::HelloAck {
                    version: 3,
                    credit: None,
                }
                .encode(),
            )
            .unwrap();
        ex.pump(now).unwrap();
        std::thread::sleep(Duration::from_millis(15));
        ex.pump(now).unwrap();
        assert_eq!(ex.stats().heartbeats_sent, 1);
        match recv_msg(&mut server) {
            Message::Heartbeat => {}
            other => panic!("expected Heartbeat, got {other:?}"),
        }
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
                    version: VERSION,
                    credit: None,
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
                    assert_eq!(seq, Some(1));
                    assert_eq!(records[0].node, NodeId((1 << 8) | 5));
                }
                other => panic!("expected final batch, got {other:?}"),
            }
            server
                .send(
                    &Message::BatchAck {
                        seq: 1,
                        credit: None,
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
}
