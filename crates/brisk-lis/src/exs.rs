//! The external sensor (EXS).
//!
//! "The memory is read by an external sensor, which runs as another process
//! on the same node and may be assigned a lower priority" (§3.1). The EXS:
//!
//! 1. drains the node's sensor rings,
//! 2. adds the clock-sync *correction value* to every timestamp (§3.2),
//! 3. batches records under the latency-control knobs and ships batches to
//!    the ISM over the transfer protocol (§3.4),
//! 4. acts as the clock-sync *slave*: answers `SyncPoll`s with its corrected
//!    time and applies `SyncAdjust`s to the correction value (§3.3).
//!
//! When there is nothing to do, the EXS parks in a short timed `recv` on
//! its ISM connection — the "waiting select system call" the paper
//! identifies as the worst-case latency contributor (§4): an event arriving
//! right after the EXS goes to sleep waits out the poll interval, and a
//! partial batch waits out the flush timeout.
//!
//! All EXS *deadlines* (the flush timeout in particular) are measured on
//! the node's clock, not on wall time, so the whole component is
//! deterministic under a simulated clock. The flip side: a simulated clock
//! that stops advancing freezes those deadlines — tests and examples that
//! drive a `SimClock` must keep advancing it (or call the handle's `stop`,
//! which force-flushes) for timeout flushes to fire.

use crate::batch::{Batcher, FlushReason, SendWindow};
use brisk_clock::{Clock, CorrectedClock, Hlc};
use brisk_core::{BriskError, EventRecord, ExsConfig, NodeId, Result, TraceStage};
use brisk_net::Connection;
use brisk_proto::Message;
use brisk_ringbuf::RingSet;
use brisk_telemetry::{Histogram, Registry, StageTimer};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Counters the EXS maintains while running.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ExsStats {
    /// Records drained from sensor rings.
    pub records_drained: u64,
    /// Records sent to the ISM.
    pub records_sent: u64,
    /// Batches sent.
    pub batches_sent: u64,
    /// Batches flushed by the record-count knob.
    pub flush_records: u64,
    /// Batches flushed by the byte-size knob.
    pub flush_bytes: u64,
    /// Batches flushed by the latency timeout.
    pub flush_timeout: u64,
    /// Batches flushed explicitly (shutdown).
    pub flush_forced: u64,
    /// Sync polls answered.
    pub sync_replies: u64,
    /// Sync adjustments applied.
    pub adjustments: u64,
    /// Sync adjustments ignored because `sync_disabled` is set (chaos
    /// plane: the node's clock is deliberately left to drift).
    pub sync_ignored: u64,
    /// Cumulative `BatchAck`s received from the ISM (v2 delivery).
    pub acks_received: u64,
    /// Batches replayed from the retransmit window after a reconnect.
    pub batches_retransmitted: u64,
    /// Unacked batches evicted from a full retransmit window (lost to
    /// replay; delivery degraded to v1 semantics for those records).
    pub window_evicted: u64,
    /// Ring scoops deferred because the ISM's credit budget was spent
    /// (protocol v3 flow control); backpressure is parked in the rings.
    pub credit_deferrals: u64,
    /// Liveness heartbeats sent to the ISM (protocol v3, idle links only).
    pub heartbeats_sent: u64,
    /// `HelloAck`s received (one per successfully established connection).
    pub hello_acks: u64,
    /// Inbound control frames that failed to decode and were skipped.
    pub decode_errors: u64,
    /// Nanoseconds spent doing work (excludes waiting); the E2 utilization
    /// numerator.
    pub busy_nanos: u64,
    /// Loop iterations executed.
    pub iterations: u64,
}

/// Shared atomic backing for [`ExsStats`] plus the EXS's stage
/// histograms. Lives in an `Arc` so a telemetry registry (and the
/// spawning thread, via [`ExsHandle`]) can observe a live EXS without
/// locking: every field is a relaxed atomic the EXS thread bumps in
/// place of the old plain-struct counters.
#[derive(Debug, Default)]
pub struct ExsTelemetry {
    records_drained: AtomicU64,
    records_sent: AtomicU64,
    batches_sent: AtomicU64,
    flush_records: AtomicU64,
    flush_bytes: AtomicU64,
    flush_timeout: AtomicU64,
    flush_forced: AtomicU64,
    sync_replies: AtomicU64,
    adjustments: AtomicU64,
    sync_ignored: AtomicU64,
    acks_received: AtomicU64,
    batches_retransmitted: AtomicU64,
    window_evicted: AtomicU64,
    credit_deferrals: AtomicU64,
    heartbeats_sent: AtomicU64,
    hello_acks: AtomicU64,
    decode_errors: AtomicU64,
    /// Current retransmit-window occupancy (batches), mirrored from the
    /// EXS thread so a registry gauge can observe it without locking.
    window_depth: AtomicU64,
    /// Remaining credit (granted budget − unacked in-flight records),
    /// mirrored from the EXS thread; 0 while credit is off.
    credit_balance: AtomicI64,
    busy_nanos: AtomicU64,
    iterations: AtomicU64,
    /// Per-step drain+batch latency in µs, on the node's clock (so it is
    /// deterministic under `SimClock`).
    drain_us: Arc<Histogram>,
    /// Records per emitted batch.
    batch_records: Arc<Histogram>,
    /// Ack lag: unacked batches still in the window when each ack lands.
    ack_lag: Arc<Histogram>,
}

impl ExsTelemetry {
    /// Materialize the plain [`ExsStats`] view from the atomics.
    pub fn stats(&self) -> ExsStats {
        let ld = |a: &AtomicU64| a.load(Ordering::Relaxed);
        ExsStats {
            records_drained: ld(&self.records_drained),
            records_sent: ld(&self.records_sent),
            batches_sent: ld(&self.batches_sent),
            flush_records: ld(&self.flush_records),
            flush_bytes: ld(&self.flush_bytes),
            flush_timeout: ld(&self.flush_timeout),
            flush_forced: ld(&self.flush_forced),
            sync_replies: ld(&self.sync_replies),
            adjustments: ld(&self.adjustments),
            sync_ignored: ld(&self.sync_ignored),
            acks_received: ld(&self.acks_received),
            batches_retransmitted: ld(&self.batches_retransmitted),
            window_evicted: ld(&self.window_evicted),
            credit_deferrals: ld(&self.credit_deferrals),
            heartbeats_sent: ld(&self.heartbeats_sent),
            hello_acks: ld(&self.hello_acks),
            decode_errors: ld(&self.decode_errors),
            busy_nanos: ld(&self.busy_nanos),
            iterations: ld(&self.iterations),
        }
    }

    /// `HelloAck`s received so far. A supervisor watches this across a
    /// reconnect: only a grown count proves the ISM answered the new
    /// `Hello`, which is the signal that may reset the backoff (a bare
    /// TCP connect can succeed against a dead-but-listening peer).
    pub fn hello_acks(&self) -> u64 {
        self.hello_acks.load(Ordering::Relaxed)
    }

    /// The drain-latency histogram (µs per step of drain+batch work).
    pub fn drain_us(&self) -> &Histogram {
        &self.drain_us
    }

    /// The batch-size histogram (records per emitted batch).
    pub fn batch_records(&self) -> &Histogram {
        &self.batch_records
    }

    /// Register every EXS series with `registry`, labeled by node:
    /// `brisk_exs_*_total` counters (flushes labeled by `reason`), the
    /// `brisk_exs_drain_us` latency histogram and the
    /// `brisk_exs_batch_records` size histogram.
    pub fn bind(self: &Arc<Self>, node: NodeId, registry: &Registry) {
        type Field = fn(&ExsTelemetry) -> &AtomicU64;
        let n = node.0.to_string();
        let counters: [(&str, &str, Field); 15] = [
            (
                "brisk_exs_records_drained_total",
                "Records drained from sensor rings",
                |t| &t.records_drained,
            ),
            (
                "brisk_exs_records_sent_total",
                "Records shipped to the ISM",
                |t| &t.records_sent,
            ),
            (
                "brisk_exs_batches_sent_total",
                "Batches shipped to the ISM",
                |t| &t.batches_sent,
            ),
            ("brisk_exs_sync_replies_total", "Sync polls answered", |t| {
                &t.sync_replies
            }),
            (
                "brisk_exs_adjustments_total",
                "Clock adjustments applied",
                |t| &t.adjustments,
            ),
            (
                "brisk_exs_sync_ignored_total",
                "Clock adjustments ignored (sync disabled on this node)",
                |t| &t.sync_ignored,
            ),
            (
                "brisk_exs_acks_total",
                "Batch acknowledgements received from the ISM",
                |t| &t.acks_received,
            ),
            (
                "brisk_exs_batches_retransmitted_total",
                "Batches replayed from the retransmit window after reconnect",
                |t| &t.batches_retransmitted,
            ),
            (
                "brisk_exs_window_evicted_total",
                "Unacked batches evicted from a full retransmit window",
                |t| &t.window_evicted,
            ),
            (
                "brisk_exs_credit_deferred_total",
                "Ring scoops deferred waiting for ISM credit",
                |t| &t.credit_deferrals,
            ),
            (
                "brisk_exs_heartbeats_sent_total",
                "Liveness heartbeats sent to the ISM on idle links",
                |t| &t.heartbeats_sent,
            ),
            (
                "brisk_exs_hello_acks_total",
                "HelloAcks received (established connections)",
                |t| &t.hello_acks,
            ),
            (
                "brisk_exs_decode_errors_total",
                "Inbound control frames that failed to decode and were skipped",
                |t| &t.decode_errors,
            ),
            (
                "brisk_exs_busy_nanos_total",
                "Nanoseconds spent working",
                |t| &t.busy_nanos,
            ),
            ("brisk_exs_iterations_total", "EXS loop iterations", |t| {
                &t.iterations
            }),
        ];
        for (name, help, get) in counters {
            let me = Arc::clone(self);
            registry.counter_fn(name, help, &[("node", &n)], move || {
                get(&me).load(Ordering::Relaxed)
            });
        }
        let reasons: [(&str, Field); 4] = [
            ("records", |t| &t.flush_records),
            ("bytes", |t| &t.flush_bytes),
            ("timeout", |t| &t.flush_timeout),
            ("forced", |t| &t.flush_forced),
        ];
        for (reason, get) in reasons {
            let me = Arc::clone(self);
            registry.counter_fn(
                "brisk_exs_flush_total",
                "Batch flushes by triggering knob",
                &[("node", &n), ("reason", reason)],
                move || get(&me).load(Ordering::Relaxed),
            );
        }
        // Histograms are owned here (the EXS records into them whether
        // or not a registry is attached); the registry adopts the Arcs.
        registry.register_histogram(
            "brisk_exs_drain_us",
            "Per-step drain+batch latency on the node clock",
            &[("node", &n)],
            &self.drain_us,
        );
        registry.register_histogram(
            "brisk_exs_batch_records",
            "Records per emitted batch",
            &[("node", &n)],
            &self.batch_records,
        );
        registry.register_histogram(
            "brisk_exs_ack_lag_batches",
            "Unacked batches still windowed when each ack landed",
            &[("node", &n)],
            &self.ack_lag,
        );
        let me = Arc::clone(self);
        registry.gauge_fn(
            "brisk_exs_retransmit_window_depth",
            "Sent-but-unacked batches held for replay",
            &[("node", &n)],
            move || me.window_depth.load(Ordering::Relaxed) as i64,
        );
        let me = Arc::clone(self);
        registry.gauge_fn(
            "brisk_exs_credit_balance",
            "Granted credit minus unacked in-flight records (0 while credit is off)",
            &[("node", &n)],
            move || me.credit_balance.load(Ordering::Relaxed),
        );
    }
}

/// What one [`ExternalSensor::step`] did.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExsStep {
    /// Work was done (records moved or messages handled).
    Busy,
    /// Nothing to do; the step waited.
    Idle,
    /// The ISM asked us to shut down (orderly `Shutdown` message).
    Shutdown,
    /// The connection dropped without an orderly shutdown.
    Disconnected,
}

/// The external sensor: one per node.
pub struct ExternalSensor {
    node: NodeId,
    rings: Arc<RingSet>,
    clock: Arc<CorrectedClock<Arc<dyn Clock>>>,
    conn: Box<dyn Connection>,
    cfg: ExsConfig,
    batcher: Batcher,
    shared: Arc<ExsTelemetry>,
    drain_buf: Vec<EventRecord>,
    /// Retransmit window for v2 acknowledged delivery. `Some` from
    /// construction (this EXS speaks v2 optimistically); dropped to `None`
    /// only if the ISM negotiates the connection down to v1, where no acks
    /// will ever arrive and windowed copies would be dead weight.
    window: Option<SendWindow>,
    /// Credit budget granted by the ISM (protocol v3): the maximum number
    /// of unacked records this EXS may have in flight. `None` = no flow
    /// control (v1/v2 peer, or credit disabled on the ISM). The ISM
    /// re-advertises the budget absolutely on `HelloAck` and every
    /// `BatchAck`.
    credit: Option<u64>,
    /// The protocol version the ISM confirmed in its `HelloAck`; `None`
    /// until one arrives. Heartbeats (a v3 tag) are sent only once this
    /// proves the peer can decode them.
    negotiated: Option<u32>,
    /// Monotonically accumulated raw-clock µs, the heartbeat pacing
    /// basis. Forward progress of the raw node clock accrues here;
    /// backward jumps (a stepped or faulted clock) contribute nothing,
    /// so a misbehaving clock can neither stall heartbeats for the size
    /// of the jump nor flood them. Sync corrections never touch it —
    /// pacing reads the *raw* clock, which also keeps it deterministic
    /// under simulation.
    pacing_us: i64,
    /// Last raw-clock reading, to derive forward deltas for `pacing_us`.
    pacing_raw_us: i64,
    /// Value of `pacing_us` at the last frame sent, for heartbeat pacing.
    last_send_us: i64,
    /// Hybrid logical clock, ticked per record at scoop time when
    /// `cfg.stamp_hlc` is set (the stamp rides as `X_HLC`).
    hlc: Arc<Hlc>,
    /// Undecodable inbound control frames this incarnation; past
    /// [`CONTROL_ERROR_BUDGET`] the connection is treated as broken.
    control_errors: u32,
    /// True while a credit stall is in progress, so the flight recorder
    /// sees one event per stall instead of one per deferred step.
    credit_stalled: bool,
}

/// Undecodable inbound control frames an EXS skips before declaring the
/// connection corrupt. Mirrors the ISM-side protocol error budget.
const CONTROL_ERROR_BUDGET: u32 = 8;

impl ExternalSensor {
    /// Connect-side constructor: sends the `Hello` preamble immediately.
    ///
    /// `raw_clock` is the same clock the node's sensors sample; the EXS
    /// wraps it with the correction value it maintains.
    pub fn new(
        node: NodeId,
        rings: Arc<RingSet>,
        raw_clock: Arc<dyn Clock>,
        conn: Box<dyn Connection>,
        cfg: ExsConfig,
    ) -> Result<Self> {
        Self::with_telemetry(node, rings, raw_clock, conn, cfg, Arc::default())
    }

    /// Like [`ExternalSensor::new`], but accumulating into an existing
    /// telemetry backing. The supervisor uses this so counters keep
    /// growing across reconnect incarnations instead of resetting.
    pub fn with_telemetry(
        node: NodeId,
        rings: Arc<RingSet>,
        raw_clock: Arc<dyn Clock>,
        conn: Box<dyn Connection>,
        cfg: ExsConfig,
        shared: Arc<ExsTelemetry>,
    ) -> Result<Self> {
        cfg.validate()?;
        let window = SendWindow::new(cfg.retransmit_window_batches);
        Self::with_window(node, rings, raw_clock, conn, cfg, shared, window)
    }

    /// Like [`ExternalSensor::with_telemetry`], but resuming from a
    /// retransmit window carried over from a previous incarnation: after
    /// the `Hello` preamble every still-unacked batch is replayed (in
    /// sequence order, ahead of new traffic) so an abrupt disconnect loses
    /// nothing. The ISM deduplicates by `(node, seq)`, so replaying batches
    /// it already processed is harmless.
    pub fn with_window(
        node: NodeId,
        rings: Arc<RingSet>,
        raw_clock: Arc<dyn Clock>,
        mut conn: Box<dyn Connection>,
        cfg: ExsConfig,
        shared: Arc<ExsTelemetry>,
        window: SendWindow,
    ) -> Result<Self> {
        cfg.validate()?;
        conn.send(
            &Message::Hello {
                node,
                version: brisk_proto::VERSION,
            }
            .encode(),
        )?;
        let clock = CorrectedClock::new(raw_clock);
        let pacing_raw_us = clock.raw_now().as_micros();
        let mut exs = ExternalSensor {
            node,
            rings,
            clock,
            conn,
            batcher: Batcher::new(cfg.clone()),
            cfg,
            shared,
            drain_buf: Vec::with_capacity(512),
            window: Some(window),
            credit: None,
            negotiated: None,
            pacing_us: 0,
            pacing_raw_us,
            last_send_us: 0,
            hlc: Hlc::new(),
            control_errors: 0,
            credit_stalled: false,
        };
        // Replay deliberately ignores credit: those records were already
        // granted in-flight by the previous connection, and holding them
        // back would stall recovery behind acks that cannot arrive yet.
        exs.replay_unacked()?;
        Ok(exs)
    }

    /// The credit budget currently granted by the ISM, if any.
    pub fn credit(&self) -> Option<u64> {
        self.credit
    }

    /// Seed the credit budget (supervisor carry-over): between a
    /// reconnect's `Hello` and the new `HelloAck`, the previous grant
    /// keeps pacing the scoop instead of allowing an unbounded burst. The
    /// next `HelloAck` overwrites this with the connection's real grant.
    pub fn set_credit(&mut self, credit: Option<u64>) {
        self.credit = credit;
        self.update_credit_balance();
    }

    /// True when flow control permits scooping new records out of the
    /// rings: credit is off, or in-flight records are under budget. An
    /// empty window always passes — even a zero grant can only stop *new*
    /// traffic while something is in flight, never deadlock the sender
    /// (progress guarantee: at least one batch may always be outstanding).
    fn credit_open(&self) -> bool {
        match (self.credit, &self.window) {
            (Some(c), Some(w)) => w.depth() == 0 || w.unacked_records() < c,
            _ => true,
        }
    }

    /// Mirror the spendable balance into telemetry.
    fn update_credit_balance(&self) {
        let bal = match (self.credit, &self.window) {
            (Some(c), Some(w)) => c as i64 - w.unacked_records() as i64,
            _ => 0,
        };
        self.shared.credit_balance.store(bal, Ordering::Relaxed);
    }

    /// Replay every unacked batch from the window. Counts replays but not
    /// `records_sent`/`batches_sent` — those were counted on first send.
    fn replay_unacked(&mut self) -> Result<()> {
        let Some(w) = &self.window else {
            return Ok(());
        };
        for (_, frame) in w.iter_unacked() {
            self.conn.send(frame)?;
        }
        let replayed = w.depth() as u64;
        self.shared
            .batches_retransmitted
            .fetch_add(replayed, Ordering::Relaxed);
        self.shared.window_depth.store(replayed, Ordering::Relaxed);
        Ok(())
    }

    /// Tear the EXS apart, keeping its retransmit window (and the
    /// sequence-number stream) so a supervisor can carry both into the
    /// next incarnation. `None` if the connection was negotiated to v1.
    ///
    /// A partial batch still sitting in the batcher would die with this
    /// incarnation; it is folded into the window (unsent) so the next
    /// incarnation's replay delivers it.
    pub fn into_window(mut self) -> Option<SendWindow> {
        if self.window.is_some() {
            if let Some((batch, _reason)) = self.batcher.flush() {
                self.stash_batch(batch);
            }
        }
        self.window
    }

    /// Retain a batch in the retransmit window without sending it (the
    /// connection is already gone); the next incarnation replays it.
    fn stash_batch(&mut self, records: Vec<EventRecord>) {
        if let Some(w) = &mut self.window {
            if w.push(self.node, &records).evicted.is_some() {
                self.shared.window_evicted.fetch_add(1, Ordering::Relaxed);
            }
            self.shared
                .window_depth
                .store(w.depth() as u64, Ordering::Relaxed);
        }
    }

    /// The node this EXS serves.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// This EXS's hybrid logical clock (stamps records when
    /// `cfg.stamp_hlc` is set; always safe to observe).
    pub fn hlc(&self) -> &Arc<Hlc> {
        &self.hlc
    }

    /// Advance and read the monotonic heartbeat-pacing clock: forward
    /// raw-clock progress accrues, backward jumps are dropped. Correct
    /// regardless of call frequency — a stale `pacing_raw_us` just means
    /// the next call accounts the whole span at once.
    fn pacing_now_us(&mut self) -> i64 {
        let raw = self.clock.raw_now().as_micros();
        let delta = raw.saturating_sub(self.pacing_raw_us);
        self.pacing_raw_us = raw;
        if delta > 0 {
            self.pacing_us = self.pacing_us.saturating_add(delta);
        }
        self.pacing_us
    }

    /// The corrected clock (shared view; records are stamped with raw time
    /// by sensors and shifted by this clock's correction on the way out).
    pub fn corrected_clock(&self) -> &Arc<CorrectedClock<Arc<dyn Clock>>> {
        &self.clock
    }

    /// Counters so far.
    pub fn stats(&self) -> ExsStats {
        self.shared.stats()
    }

    /// The shared telemetry backing (clone the `Arc` to observe this EXS
    /// from another thread, or call [`ExsTelemetry::bind`] on it).
    pub fn telemetry(&self) -> &Arc<ExsTelemetry> {
        &self.shared
    }

    /// Register this EXS's series with a telemetry registry.
    pub fn bind_telemetry(&self, registry: &Registry) {
        self.shared.bind(self.node, registry);
    }

    /// Run one iteration: drain, batch, ship, answer control traffic.
    pub fn step(&mut self) -> Result<ExsStep> {
        let work_start = Instant::now();
        self.shared.iterations.fetch_add(1, Ordering::Relaxed);

        // 0. Flow control: with the ISM's credit budget spent, leave new
        //    records parked in the rings (where overruns land on the
        //    rings' own drop accounting) instead of piling them into the
        //    batcher and window. Acks received below reopen the tap.
        let paused = !self.credit_open();
        if paused {
            self.shared.credit_deferrals.fetch_add(1, Ordering::Relaxed);
            // Only the stall's leading edge lands in the flight recorder;
            // the per-step counter tracks its duration.
            if !self.credit_stalled {
                self.credit_stalled = true;
                brisk_telemetry::flight_log!(
                    Warn,
                    "exs",
                    "credit_stall",
                    "node {} deferring ring scoop: credit budget {:?} spent",
                    self.node,
                    self.credit
                );
            }
        } else {
            self.credit_stalled = false;
        }

        // 1. Drain sensor rings and apply the correction value. The span
        //    is timed on the node's clock so it is meaningful (and
        //    deterministic) under simulation.
        let drain_hist = Arc::clone(&self.shared.drain_us);
        let drain_timer = StageTimer::start(&drain_hist, self.clock.now().as_micros());
        // The *effective* correction: while a slew is smearing a backward
        // adjustment, records get the partially applied value, matching
        // the clock the later trace stamps read.
        let correction = self.clock.effective_correction_us();
        self.drain_buf.clear();
        let drained = if paused {
            0
        } else {
            self.rings
                .drain_into(self.cfg.max_batch_records * 2, &mut self.drain_buf)?
        };
        self.shared
            .records_drained
            .fetch_add(drained as u64, Ordering::Relaxed);
        let now = self.clock.now();
        let mut pending = std::mem::take(&mut self.drain_buf);
        // A disconnect mid-scoop must not drop the records already pulled
        // out of the rings: once the send fails, keep pushing the rest of
        // the scoop through the batcher and stash every flushed batch in
        // the retransmit window (unsent), where the next incarnation's
        // replay picks it up. Without a window (v1 peer) the old
        // fail-fast loss semantics stand.
        let mut disconnect: Option<BriskError> = None;
        let mut fatal: Option<BriskError> = None;
        for mut rec in pending.drain(..) {
            rec.apply_correction(correction);
            // After the correction: scoop time and every later stamp are
            // on the synchronized clock, only the notice stamp was shifted.
            rec.stamp_trace(TraceStage::ExsScoop, now);
            if self.cfg.stamp_hlc {
                rec.set_hlc(self.hlc.tick(now));
            }
            if let Some((batch, reason)) = self.batcher.push(rec, now) {
                if disconnect.is_some() {
                    self.stash_batch(batch);
                } else if let Err(e) = self.send_batch(batch, reason) {
                    if e.is_disconnect() && self.window.is_some() {
                        disconnect = Some(e);
                    } else {
                        fatal = Some(e);
                        break;
                    }
                }
            }
        }
        self.drain_buf = pending; // keep the allocation (workhorse buffer)
        if let Some(e) = fatal.or(disconnect) {
            return Err(e);
        }

        // 2. Latency control: flush a stale partial batch. Deferred while
        //    credit is spent — the flush would put more records in flight.
        if !paused {
            if let Some((batch, reason)) = self.batcher.poll_timeout(self.clock.now()) {
                self.send_batch(batch, reason)?;
            }
        }
        // 2b. Liveness: on an idle v3 connection, send a heartbeat so the
        //     ISM can tell a quiet node from a silently dead one (TCP
        //     alone reports nothing for minutes).
        self.maybe_heartbeat()?;
        drain_timer.stop(self.clock.now().as_micros());

        // 3. Control traffic. When busy, poll without blocking; when idle,
        //    this wait is the EXS's sleep (bounded by the idle knob and by
        //    the batch deadline so a partial batch cannot oversleep).
        //    While credit-paused the deadline clamp is skipped — nothing
        //    may flush anyway, and the sleep is what lets acks arrive.
        let busy = drained > 0;
        let wait = if busy {
            Duration::ZERO
        } else if paused {
            self.cfg.idle_sleep
        } else {
            let mut w = self.cfg.idle_sleep;
            if let Some(dl) = self.batcher.time_to_deadline(self.clock.now()) {
                let dl = Duration::from_micros(dl.max(0) as u64);
                w = w.min(dl.max(Duration::from_micros(1)));
            }
            w
        };
        self.shared
            .busy_nanos
            .fetch_add(work_start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        let msg = match self.conn.recv(Some(wait)) {
            // An undecodable control frame (corrupted wire) is counted
            // and skipped rather than fatal — up to a budget, past which
            // the connection is declared broken so the supervisor can
            // rebuild it.
            Ok(Some(frame)) => match Message::decode(&frame) {
                Ok(msg) => Some(msg),
                Err(e) => {
                    self.control_errors += 1;
                    self.shared.decode_errors.fetch_add(1, Ordering::Relaxed);
                    if self.control_errors > CONTROL_ERROR_BUDGET {
                        return Err(e.into());
                    }
                    None
                }
            },
            Ok(None) => None,
            Err(e) if e.is_disconnect() => return Ok(ExsStep::Disconnected),
            Err(e) => return Err(e),
        };
        if let Some(msg) = msg {
            let handle_start = Instant::now();
            let outcome = self.handle_control(msg)?;
            self.shared
                .busy_nanos
                .fetch_add(handle_start.elapsed().as_nanos() as u64, Ordering::Relaxed);
            if outcome == ExsStep::Shutdown {
                return Ok(ExsStep::Shutdown);
            }
            return Ok(ExsStep::Busy);
        }
        Ok(if busy { ExsStep::Busy } else { ExsStep::Idle })
    }

    /// Send a [`Message::Heartbeat`] when the connection has been
    /// send-idle for a full `heartbeat_interval`. Gated on a `HelloAck`
    /// that negotiated v3 (older peers cannot decode the tag) and on a
    /// non-zero interval (zero disables). Any frame sent resets the
    /// pacing, so heartbeats only ever ride an otherwise-quiet link.
    fn maybe_heartbeat(&mut self) -> Result<()> {
        if self.cfg.heartbeat_interval.is_zero() || self.negotiated.is_none_or(|v| v < 3) {
            return Ok(());
        }
        let now_us = self.pacing_now_us();
        let interval_us = self.cfg.heartbeat_interval.as_micros() as i64;
        if now_us.saturating_sub(self.last_send_us) >= interval_us {
            self.conn.send(&Message::Heartbeat.encode())?;
            self.last_send_us = now_us;
            self.shared.heartbeats_sent.fetch_add(1, Ordering::Relaxed);
        }
        Ok(())
    }

    fn handle_control(&mut self, msg: Message) -> Result<ExsStep> {
        match msg {
            Message::SyncPoll {
                round,
                sample,
                master_send,
            } => {
                // Reply with the *corrected* local time: slaves converge on
                // each other through their corrections.
                let reply = Message::SyncReply {
                    round,
                    sample,
                    master_send,
                    slave_time: self.clock.now(),
                };
                self.conn.send(&reply.encode())?;
                self.last_send_us = self.pacing_now_us();
                self.shared.sync_replies.fetch_add(1, Ordering::Relaxed);
                Ok(ExsStep::Busy)
            }
            Message::SyncAdjust { advance_us, .. } => {
                if self.cfg.sync_disabled {
                    // Chaos plane: the node deliberately refuses sync and
                    // lets its clock run wherever the fault takes it.
                    self.shared.sync_ignored.fetch_add(1, Ordering::Relaxed);
                } else {
                    self.clock.adjust(advance_us);
                    self.shared.adjustments.fetch_add(1, Ordering::Relaxed);
                }
                Ok(ExsStep::Busy)
            }
            Message::HelloAck { version, credit } => {
                // The ISM told us which protocol version the connection
                // actually runs at. Anything below v2 means no acks will
                // ever come: drop the window and fall back to the old
                // fire-and-forget delivery.
                if version < 2 {
                    self.window = None;
                    self.shared.window_depth.store(0, Ordering::Relaxed);
                }
                // The HelloAck is authoritative for the connection's flow
                // control: `None` clears any budget carried over from a
                // previous incarnation.
                self.credit = credit;
                self.update_credit_balance();
                self.negotiated = Some(version);
                self.shared.hello_acks.fetch_add(1, Ordering::Relaxed);
                Ok(ExsStep::Busy)
            }
            Message::BatchAck { seq, credit } => {
                if let Some(w) = &mut self.window {
                    w.ack(seq);
                    let depth = w.depth() as u64;
                    self.shared.window_depth.store(depth, Ordering::Relaxed);
                    self.shared.ack_lag.record(depth);
                }
                // A grant piggybacked on the ack re-advertises the budget
                // absolutely; a plain (v2-style) ack leaves it untouched.
                if credit.is_some() {
                    self.credit = credit;
                }
                self.update_credit_balance();
                self.shared.acks_received.fetch_add(1, Ordering::Relaxed);
                Ok(ExsStep::Busy)
            }
            Message::Shutdown => Ok(ExsStep::Shutdown),
            other => Err(BriskError::Protocol(format!(
                "unexpected message at EXS: {other:?}"
            ))),
        }
    }

    fn send_batch(&mut self, mut records: Vec<EventRecord>, reason: FlushReason) -> Result<()> {
        let n = records.len() as u64;
        let send_ts = self.clock.now();
        for rec in records.iter_mut() {
            rec.stamp_trace(TraceStage::BatchSend, send_ts);
        }
        // v2+: the window encodes the batch once, with its sequence
        // number, and keeps the frame for replay; a v1 connection has no
        // window and sends the unsequenced format.
        match &mut self.window {
            Some(w) => {
                let pushed = w.push(self.node, &records);
                if pushed.evicted.is_some() {
                    self.shared.window_evicted.fetch_add(1, Ordering::Relaxed);
                }
                let sent = self.conn.send(pushed.frame);
                self.shared
                    .window_depth
                    .store(w.depth() as u64, Ordering::Relaxed);
                sent?;
            }
            None => self
                .conn
                .send(&brisk_proto::encode_batch(self.node, None, &records))?,
        }
        self.last_send_us = self.pacing_now_us();
        self.update_credit_balance();
        self.shared.records_sent.fetch_add(n, Ordering::Relaxed);
        self.shared.batches_sent.fetch_add(1, Ordering::Relaxed);
        self.shared.batch_records.record(n);
        let reason_counter = match reason {
            FlushReason::Records => &self.shared.flush_records,
            FlushReason::Bytes => &self.shared.flush_bytes,
            FlushReason::Timeout => &self.shared.flush_timeout,
            FlushReason::Forced => &self.shared.flush_forced,
        };
        reason_counter.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Run until `stop` is raised or the ISM shuts us down. Flushes pending
    /// records and sends `Shutdown` on the way out. Returns final stats.
    pub fn run(mut self, stop: &AtomicBool) -> Result<ExsStats> {
        while !stop.load(Ordering::Relaxed) {
            match self.step()? {
                ExsStep::Shutdown | ExsStep::Disconnected => break,
                ExsStep::Busy | ExsStep::Idle => {}
            }
        }
        self.finish()
    }

    /// Orderly teardown: drain the rings, flush everything buffered and
    /// send `Shutdown`, so no accepted record is lost. Consumes the EXS
    /// and returns its final stats.
    pub fn finish(mut self) -> Result<ExsStats> {
        self.drain_buf.clear();
        let correction = self.clock.effective_correction_us();
        self.rings.drain_into(usize::MAX, &mut self.drain_buf)?;
        // The final drain counts too: without this, records that only
        // leave the rings during teardown would vanish from the drained
        // total while still showing up in records_sent.
        self.shared
            .records_drained
            .fetch_add(self.drain_buf.len() as u64, Ordering::Relaxed);
        let now = self.clock.now();
        let pending = std::mem::take(&mut self.drain_buf);
        for mut rec in pending {
            rec.apply_correction(correction);
            rec.stamp_trace(TraceStage::ExsScoop, now);
            if self.cfg.stamp_hlc {
                rec.set_hlc(self.hlc.tick(now));
            }
            if let Some((batch, reason)) = self.batcher.push(rec, now) {
                self.send_batch(batch, reason)?;
            }
        }
        if let Some((batch, reason)) = self.batcher.flush() {
            self.send_batch(batch, reason)?;
        }
        let _ = self.conn.send(&Message::Shutdown.encode());
        Ok(self.shared.stats())
    }
}

/// Handle to an EXS running on its own thread.
pub struct ExsHandle {
    stop: Arc<AtomicBool>,
    clock: Arc<CorrectedClock<Arc<dyn Clock>>>,
    node: NodeId,
    shared: Arc<ExsTelemetry>,
    join: std::thread::JoinHandle<Result<ExsStats>>,
}

impl ExsHandle {
    /// The EXS's corrected clock (e.g. to observe the correction value).
    pub fn corrected_clock(&self) -> &Arc<CorrectedClock<Arc<dyn Clock>>> {
        &self.clock
    }

    /// Live counters of the running EXS (no need to stop it).
    pub fn stats_now(&self) -> ExsStats {
        self.shared.stats()
    }

    /// The shared telemetry backing of the running EXS.
    pub fn telemetry(&self) -> &Arc<ExsTelemetry> {
        &self.shared
    }

    /// Register the running EXS's series with a telemetry registry.
    pub fn bind_telemetry(&self, registry: &Registry) {
        self.shared.bind(self.node, registry);
    }

    /// Signal the EXS to stop.
    pub fn request_stop(&self) {
        self.stop.store(true, Ordering::Relaxed);
    }

    /// Signal and wait for the EXS; returns its final stats.
    pub fn stop(self) -> Result<ExsStats> {
        self.stop.store(true, Ordering::Relaxed);
        self.join
            .join()
            .map_err(|_| BriskError::Sync("EXS thread panicked".into()))?
    }
}

/// Spawn an EXS on a dedicated thread (the usual deployment: "runs as
/// another process on the same node", here a thread).
pub fn spawn_exs(
    node: NodeId,
    rings: Arc<RingSet>,
    raw_clock: Arc<dyn Clock>,
    conn: Box<dyn Connection>,
    cfg: ExsConfig,
) -> Result<ExsHandle> {
    let exs = ExternalSensor::new(node, rings, raw_clock, conn, cfg)?;
    let clock = Arc::clone(exs.corrected_clock());
    let shared = Arc::clone(exs.telemetry());
    let stop = Arc::new(AtomicBool::new(false));
    let stop2 = Arc::clone(&stop);
    let join = std::thread::Builder::new()
        .name(format!("brisk-exs-{node}"))
        .spawn(move || exs.run(&stop2))
        .map_err(BriskError::Io)?;
    Ok(ExsHandle {
        stop,
        clock,
        node,
        shared,
        join,
    })
}

#[cfg(test)]
#[allow(clippy::field_reassign_with_default)] // single-knob mutation is the point of these tests
mod tests {
    use super::*;
    use brisk_clock::{SimClock, SimTimeSource, SystemClock};
    use brisk_core::{EventTypeId, UtcMicros, Value};
    use brisk_net::{LinkModel, MemTransport, Transport};

    struct Rig {
        exs: ExternalSensor,
        ism_side: Box<dyn Connection>,
        src: SimTimeSource,
        rings: Arc<RingSet>,
    }

    fn rig(cfg: ExsConfig, clock_offset: i64) -> Rig {
        let t = MemTransport::with_model(LinkModel::ideal());
        let mut l = t.listen("ism").unwrap();
        let conn = t.connect("ism").unwrap();
        let ism_side = l.accept(Some(Duration::from_secs(1))).unwrap().unwrap();
        let src = SimTimeSource::new();
        let raw: Arc<dyn Clock> = Arc::new(SimClock::new(src.clone(), clock_offset, 0.0, 1));
        let rings = RingSet::new(NodeId(7), cfg.ring_capacity);
        let exs = ExternalSensor::new(NodeId(7), Arc::clone(&rings), raw, conn, cfg).unwrap();
        Rig {
            exs,
            ism_side,
            src,
            rings,
        }
    }

    fn recv_msg(conn: &mut Box<dyn Connection>) -> Message {
        let frame = conn.recv(Some(Duration::from_secs(1))).unwrap().unwrap();
        Message::decode(&frame).unwrap()
    }

    #[test]
    fn hello_is_sent_on_connect() {
        let mut r = rig(ExsConfig::default(), 0);
        assert_eq!(
            recv_msg(&mut r.ism_side),
            Message::Hello {
                node: NodeId(7),
                version: brisk_proto::VERSION
            }
        );
        let _ = &r.exs;
    }

    #[test]
    fn records_flow_and_get_corrected() {
        let mut cfg = ExsConfig::default();
        cfg.max_batch_records = 2;
        let mut r = rig(cfg, 0);
        recv_msg(&mut r.ism_side); // hello

        // Apply a known correction, then emit records with raw timestamps.
        r.exs.corrected_clock().adjust(1_000);
        let mut port = r.rings.register();
        r.src.advance_by(50);
        port.emit(
            EventTypeId(1),
            UtcMicros::from_micros(50),
            vec![Value::I32(1)],
        )
        .unwrap();
        port.emit(
            EventTypeId(1),
            UtcMicros::from_micros(51),
            vec![Value::I32(2)],
        )
        .unwrap();

        r.exs.step().unwrap();
        match recv_msg(&mut r.ism_side) {
            Message::EventBatch { node, seq, records } => {
                assert_eq!(node, NodeId(7));
                assert_eq!(seq, Some(1)); // v2 by default: first batch is seq 1
                assert_eq!(records.len(), 2);
                assert_eq!(records[0].ts, UtcMicros::from_micros(1_050));
                assert_eq!(records[1].ts, UtcMicros::from_micros(1_051));
            }
            other => panic!("expected batch, got {other:?}"),
        }
        assert_eq!(r.exs.stats().records_sent, 2);
        assert_eq!(r.exs.stats().flush_records, 1);
    }

    #[test]
    fn trace_stamps_accumulate_through_scoop_and_send() {
        use brisk_telemetry::TraceSampler;
        let mut cfg = ExsConfig::default();
        cfg.max_batch_records = 1;
        let mut r = rig(cfg, 0);
        recv_msg(&mut r.ism_side); // hello
        r.rings
            .set_trace_sampler(Arc::new(TraceSampler::with_seed(1, 9)));
        r.exs.corrected_clock().adjust(1_000);
        let mut port = r.rings.register();
        r.src.advance_by(50);
        port.emit(
            EventTypeId(1),
            UtcMicros::from_micros(50),
            vec![Value::I32(1)],
        )
        .unwrap();
        r.src.advance_by(25); // scoop happens later than the notice
        r.exs.step().unwrap();
        match recv_msg(&mut r.ism_side) {
            Message::EventBatch { records, .. } => {
                let ctx = records[0].trace().expect("sampled record carries X_TRACE");
                let stages: Vec<TraceStage> = ctx.stamps().iter().map(|(s, _)| *s).collect();
                assert_eq!(
                    stages,
                    vec![
                        TraceStage::Notice,
                        TraceStage::ExsScoop,
                        TraceStage::BatchSend
                    ]
                );
                // The notice stamp was shifted by the correction along with
                // the header ts; later stamps read the corrected clock.
                assert_eq!(ctx.stamps()[0].1, records[0].ts);
                assert_eq!(ctx.stamps()[0].1, UtcMicros::from_micros(1_050));
                assert_eq!(ctx.stamps()[1].1, UtcMicros::from_micros(1_075));
                let times: Vec<i64> = ctx.stamps().iter().map(|(_, t)| t.as_micros()).collect();
                assert!(times.windows(2).all(|w| w[0] <= w[1]), "monotonic stamps");
            }
            other => panic!("expected batch, got {other:?}"),
        }
    }

    #[test]
    fn partial_batch_flushes_on_timeout() {
        let mut cfg = ExsConfig::default();
        cfg.max_batch_records = 100;
        cfg.flush_timeout = Duration::from_millis(40);
        let mut r = rig(cfg, 0);
        recv_msg(&mut r.ism_side); // hello

        let mut port = r.rings.register();
        port.emit(EventTypeId(1), UtcMicros::ZERO, vec![]).unwrap();
        r.exs.step().unwrap(); // drains; batch stays partial
        assert_eq!(r.exs.stats().batches_sent, 0);

        r.src.advance_by(41_000); // 41 ms of sim time
        r.exs.step().unwrap();
        match recv_msg(&mut r.ism_side) {
            Message::EventBatch { records, .. } => assert_eq!(records.len(), 1),
            other => panic!("expected batch, got {other:?}"),
        }
        assert_eq!(r.exs.stats().flush_timeout, 1);
    }

    #[test]
    fn sync_poll_answered_with_corrected_time() {
        let mut r = rig(ExsConfig::default(), 500);
        recv_msg(&mut r.ism_side); // hello
        r.exs.corrected_clock().adjust(-200);
        r.src.advance_by(1_000);
        r.ism_side
            .send(
                &Message::SyncPoll {
                    round: 3,
                    sample: 1,
                    master_send: UtcMicros::from_micros(42),
                }
                .encode(),
            )
            .unwrap();
        r.exs.step().unwrap();
        match recv_msg(&mut r.ism_side) {
            Message::SyncReply {
                round,
                sample,
                master_send,
                slave_time,
            } => {
                assert_eq!(round, 3);
                assert_eq!(sample, 1);
                assert_eq!(master_send, UtcMicros::from_micros(42));
                // raw = 1000 + 500 offset, correction −200 → 1300.
                assert_eq!(slave_time, UtcMicros::from_micros(1_300));
            }
            other => panic!("expected reply, got {other:?}"),
        }
        assert_eq!(r.exs.stats().sync_replies, 1);
    }

    #[test]
    fn sync_adjust_moves_correction() {
        let mut r = rig(ExsConfig::default(), 0);
        recv_msg(&mut r.ism_side);
        r.ism_side
            .send(
                &Message::SyncAdjust {
                    round: 1,
                    advance_us: 777,
                }
                .encode(),
            )
            .unwrap();
        r.exs.step().unwrap();
        assert_eq!(r.exs.corrected_clock().correction_us(), 777);
        assert_eq!(r.exs.stats().adjustments, 1);
    }

    #[test]
    fn shutdown_message_stops_step() {
        let mut r = rig(ExsConfig::default(), 0);
        recv_msg(&mut r.ism_side);
        r.ism_side.send(&Message::Shutdown.encode()).unwrap();
        assert_eq!(r.exs.step().unwrap(), ExsStep::Shutdown);
    }

    #[test]
    fn unexpected_message_is_protocol_error() {
        let mut r = rig(ExsConfig::default(), 0);
        recv_msg(&mut r.ism_side);
        r.ism_side
            .send(
                &Message::Hello {
                    node: NodeId(1),
                    version: brisk_proto::VERSION,
                }
                .encode(),
            )
            .unwrap();
        assert!(r.exs.step().is_err());
    }

    #[test]
    fn run_flushes_pending_records_on_stop() {
        let t = MemTransport::new();
        let mut l = t.listen("ism").unwrap();
        let conn = t.connect("ism").unwrap();
        let mut ism_side = l.accept(Some(Duration::from_secs(1))).unwrap().unwrap();
        let rings = RingSet::new(NodeId(1), 1 << 20);
        let mut port = rings.register();
        for i in 0..5 {
            port.emit(EventTypeId(1), UtcMicros::from_micros(i), vec![])
                .unwrap();
        }
        let handle = spawn_exs(
            NodeId(1),
            rings,
            Arc::new(SystemClock),
            conn,
            ExsConfig::default(),
        )
        .unwrap();
        // Give the EXS a moment to drain, then stop it.
        std::thread::sleep(Duration::from_millis(20));
        let stats = handle.stop().unwrap();
        assert_eq!(stats.records_drained, 5);
        assert_eq!(stats.records_sent, 5);

        // ISM side sees hello, one batch (possibly several), then Shutdown.
        let mut seen_records = 0;
        loop {
            match recv_msg(&mut ism_side) {
                Message::Hello { .. } => {}
                Message::EventBatch { records, .. } => seen_records += records.len(),
                Message::Shutdown => break,
                other => panic!("unexpected {other:?}"),
            }
        }
        assert_eq!(seen_records, 5);
    }

    #[test]
    fn finish_accounts_records_drained_during_teardown() {
        // Records that only leave the rings in finish()'s force-flush
        // must land in records_drained (and the forced-flush counter).
        let mut cfg = ExsConfig::default();
        cfg.max_batch_records = 100; // nothing flushes by size
        let r = rig(cfg, 0);
        let mut ism_side = r.ism_side;
        recv_msg(&mut ism_side); // hello
        let mut port = r.rings.register();
        for i in 0..7 {
            port.emit(EventTypeId(1), UtcMicros::from_micros(i), vec![])
                .unwrap();
        }
        // No step() at all: everything drains inside finish().
        let stats = r.exs.finish().unwrap();
        assert_eq!(stats.records_drained, 7);
        assert_eq!(stats.records_sent, 7);
        assert_eq!(stats.flush_forced, 1);
        match recv_msg(&mut ism_side) {
            Message::EventBatch { records, .. } => assert_eq!(records.len(), 7),
            other => panic!("expected batch, got {other:?}"),
        }
    }

    #[test]
    fn telemetry_bind_exports_exs_series() {
        use brisk_telemetry::Registry;
        let mut cfg = ExsConfig::default();
        cfg.max_batch_records = 2;
        let mut r = rig(cfg, 0);
        recv_msg(&mut r.ism_side); // hello
        let registry = Registry::new();
        r.exs.bind_telemetry(&registry);

        let mut port = r.rings.register();
        r.src.advance_by(10);
        for i in 0..4 {
            port.emit(EventTypeId(1), UtcMicros::from_micros(i), vec![])
                .unwrap();
        }
        r.exs.step().unwrap();

        let snap = registry.snapshot();
        assert_eq!(
            snap.counter_labeled("brisk_exs_records_drained_total", &[("node", "7")]),
            Some(4)
        );
        assert_eq!(snap.counter_total("brisk_exs_records_sent_total"), 4);
        assert_eq!(
            snap.counter_labeled(
                "brisk_exs_flush_total",
                &[("node", "7"), ("reason", "records")]
            ),
            Some(2)
        );
        let batch_hist = snap.histogram("brisk_exs_batch_records").unwrap();
        assert_eq!(batch_hist.count(), 2);
        assert_eq!(batch_hist.max, 2);
        // Drain latency recorded once per step (0 µs under a frozen SimClock).
        assert_eq!(snap.histogram("brisk_exs_drain_us").unwrap().count(), 1);
    }

    fn emit_n(rings: &Arc<RingSet>, n: u64) {
        let mut port = rings.register();
        for i in 0..n {
            port.emit(EventTypeId(1), UtcMicros::from_micros(i as i64), vec![])
                .unwrap();
        }
    }

    #[test]
    fn batch_ack_releases_window() {
        let mut cfg = ExsConfig::default();
        cfg.max_batch_records = 1;
        let mut r = rig(cfg, 0);
        recv_msg(&mut r.ism_side); // hello
        emit_n(&r.rings, 3);
        r.src.advance_by(10);
        r.exs.step().unwrap(); // drain cap is 2·max_batch_records per step
        r.exs.step().unwrap();
        assert_eq!(r.exs.stats().batches_sent, 3);
        // All three batches are unacked and windowed.
        let w = r.exs.window.as_ref().unwrap();
        assert_eq!(w.depth(), 3);

        // Cumulative ack for seq 2 releases the first two.
        r.ism_side
            .send(
                &Message::BatchAck {
                    seq: 2,
                    credit: None,
                }
                .encode(),
            )
            .unwrap();
        r.exs.step().unwrap();
        assert_eq!(r.exs.window.as_ref().unwrap().depth(), 1);
        assert_eq!(r.exs.stats().acks_received, 1);
    }

    #[test]
    fn hello_ack_v1_downgrades_to_unsequenced() {
        let mut cfg = ExsConfig::default();
        cfg.max_batch_records = 1;
        let mut r = rig(cfg, 0);
        recv_msg(&mut r.ism_side); // hello
        r.ism_side
            .send(
                &Message::HelloAck {
                    version: 1,
                    credit: None,
                }
                .encode(),
            )
            .unwrap();
        r.exs.step().unwrap();
        assert!(r.exs.window.is_none());

        emit_n(&r.rings, 1);
        r.src.advance_by(10);
        r.exs.step().unwrap();
        match recv_msg(&mut r.ism_side) {
            Message::EventBatch { seq, .. } => assert_eq!(seq, None),
            other => panic!("expected batch, got {other:?}"),
        }
    }

    #[test]
    fn carried_window_replays_unacked_batches() {
        let mut cfg = ExsConfig::default();
        cfg.max_batch_records = 1;
        let mut r = rig(cfg.clone(), 0);
        let shared = Arc::clone(r.exs.telemetry());
        recv_msg(&mut r.ism_side); // hello
        emit_n(&r.rings, 2);
        r.src.advance_by(10);
        r.exs.step().unwrap();
        recv_msg(&mut r.ism_side); // batch 1
        recv_msg(&mut r.ism_side); // batch 2
                                   // Ack only the first; the second stays unacked.
        r.ism_side
            .send(
                &Message::BatchAck {
                    seq: 1,
                    credit: None,
                }
                .encode(),
            )
            .unwrap();
        r.exs.step().unwrap();
        let window = r.exs.into_window().unwrap();
        assert_eq!(window.depth(), 1);
        assert_eq!(window.next_seq(), 3);

        // New incarnation over a fresh connection, carrying the window.
        let t = MemTransport::new();
        let mut l = t.listen("ism2").unwrap();
        let conn = t.connect("ism2").unwrap();
        let mut ism2 = l.accept(Some(Duration::from_secs(1))).unwrap().unwrap();
        let raw: Arc<dyn Clock> = Arc::new(SystemClock);
        let exs2 = ExternalSensor::with_window(
            NodeId(7),
            RingSet::new(NodeId(7), cfg.ring_capacity),
            raw,
            conn,
            cfg,
            shared,
            window,
        )
        .unwrap();
        match recv_msg(&mut ism2) {
            Message::Hello { node, version } => {
                assert_eq!(node, NodeId(7));
                assert_eq!(version, brisk_proto::VERSION);
            }
            other => panic!("expected hello, got {other:?}"),
        }
        // The unacked batch (seq 2) is replayed right after Hello.
        match recv_msg(&mut ism2) {
            Message::EventBatch { seq, records, .. } => {
                assert_eq!(seq, Some(2));
                assert_eq!(records.len(), 1);
            }
            other => panic!("expected replayed batch, got {other:?}"),
        }
        let stats = exs2.stats();
        assert_eq!(stats.batches_retransmitted, 1);
        // Replays are not re-counted as fresh sends.
        assert_eq!(stats.batches_sent, 2);
    }

    #[test]
    fn credit_exhaustion_defers_scooping_until_replenished() {
        let mut cfg = ExsConfig::default();
        cfg.max_batch_records = 1;
        cfg.idle_sleep = Duration::from_millis(1);
        let mut r = rig(cfg, 0);
        recv_msg(&mut r.ism_side); // hello
                                   // The ISM grants a budget of 2 in-flight records.
        r.ism_side
            .send(
                &Message::HelloAck {
                    version: 3,
                    credit: Some(2),
                }
                .encode(),
            )
            .unwrap();
        r.exs.step().unwrap();
        assert_eq!(r.exs.credit(), Some(2));

        emit_n(&r.rings, 3);
        r.src.advance_by(10);
        r.exs.step().unwrap(); // scoops 2 (the per-step drain cap), sends 2
        assert_eq!(r.exs.stats().batches_sent, 2);
        let drained_before = r.exs.stats().records_drained;
        // Budget spent (2 unacked records): the third record must stay in
        // the ring, counted as a deferral.
        r.exs.step().unwrap();
        assert_eq!(r.exs.stats().records_drained, drained_before);
        assert!(r.exs.stats().credit_deferrals >= 1);
        assert_eq!(r.exs.stats().batches_sent, 2);

        // An ack replenishes the budget and reopens the tap.
        r.ism_side
            .send(
                &Message::BatchAck {
                    seq: 2,
                    credit: Some(2),
                }
                .encode(),
            )
            .unwrap();
        r.exs.step().unwrap(); // consumes the ack
        r.exs.step().unwrap(); // scoops the parked record
        assert_eq!(r.exs.stats().batches_sent, 3);
        assert_eq!(r.exs.stats().records_drained, drained_before + 1);
    }

    #[test]
    fn hello_ack_overwrites_carried_credit() {
        let mut r = rig(ExsConfig::default(), 0);
        recv_msg(&mut r.ism_side); // hello
        r.exs.set_credit(Some(99)); // as the supervisor would after reconnect
        assert_eq!(r.exs.credit(), Some(99));
        // The connection's real HelloAck carries no grant: credit is off.
        r.ism_side
            .send(
                &Message::HelloAck {
                    version: 2,
                    credit: None,
                }
                .encode(),
            )
            .unwrap();
        r.exs.step().unwrap();
        assert_eq!(r.exs.credit(), None);
    }

    #[test]
    fn credit_telemetry_exports_balance_and_deferrals() {
        use brisk_telemetry::Registry;
        let mut cfg = ExsConfig::default();
        cfg.max_batch_records = 1;
        cfg.idle_sleep = Duration::from_millis(1);
        let mut r = rig(cfg, 0);
        recv_msg(&mut r.ism_side); // hello
        let registry = Registry::new();
        r.exs.bind_telemetry(&registry);
        r.ism_side
            .send(
                &Message::HelloAck {
                    version: 3,
                    credit: Some(2),
                }
                .encode(),
            )
            .unwrap();
        r.exs.step().unwrap();
        emit_n(&r.rings, 3);
        r.src.advance_by(10);
        r.exs.step().unwrap(); // spends the whole budget
        r.exs.step().unwrap(); // defers
        let snap = registry.snapshot();
        assert_eq!(snap.gauge("brisk_exs_credit_balance"), Some(0));
        assert!(snap.counter_total("brisk_exs_credit_deferred_total") >= 1);
    }

    #[test]
    fn full_window_evicts_oldest_and_counts_it() {
        let mut cfg = ExsConfig::default();
        cfg.max_batch_records = 1;
        cfg.retransmit_window_batches = 2;
        let mut r = rig(cfg, 0);
        recv_msg(&mut r.ism_side); // hello
        emit_n(&r.rings, 3); // three unacked batches into a window of two
        r.src.advance_by(10);
        r.exs.step().unwrap(); // drain cap is 2·max_batch_records per step
        r.exs.step().unwrap();
        let stats = r.exs.stats();
        assert_eq!(stats.batches_sent, 3);
        assert_eq!(stats.window_evicted, 1);
        assert_eq!(r.exs.window.as_ref().unwrap().depth(), 2);
    }

    #[test]
    fn heartbeat_sent_on_idle_v3_link() {
        let mut cfg = ExsConfig::default();
        cfg.heartbeat_interval = Duration::from_millis(100);
        let mut r = rig(cfg, 0);
        recv_msg(&mut r.ism_side); // hello
                                   // No HelloAck yet: idle time passes, no heartbeat (the peer may
                                   // be v1 and unable to decode the tag).
        r.src.advance_by(150_000);
        r.exs.step().unwrap();
        assert!(r
            .ism_side
            .recv(Some(Duration::from_millis(20)))
            .unwrap()
            .is_none());
        // v3 negotiated: the next idle interval produces a heartbeat.
        r.ism_side
            .send(
                &Message::HelloAck {
                    version: 3,
                    credit: None,
                }
                .encode(),
            )
            .unwrap();
        r.exs.step().unwrap();
        r.src.advance_by(150_000);
        r.exs.step().unwrap();
        assert_eq!(recv_msg(&mut r.ism_side), Message::Heartbeat);
        assert_eq!(r.exs.stats().heartbeats_sent, 1);
        assert_eq!(r.exs.stats().hello_acks, 1);
        // Without further idle time no extra heartbeat is sent.
        r.exs.step().unwrap();
        assert!(r
            .ism_side
            .recv(Some(Duration::from_millis(20)))
            .unwrap()
            .is_none());
    }

    #[test]
    fn v2_connection_never_heartbeats() {
        let mut cfg = ExsConfig::default();
        cfg.heartbeat_interval = Duration::from_millis(50);
        let mut r = rig(cfg, 0);
        recv_msg(&mut r.ism_side); // hello
        r.ism_side
            .send(
                &Message::HelloAck {
                    version: 2,
                    credit: None,
                }
                .encode(),
            )
            .unwrap();
        r.exs.step().unwrap();
        r.src.advance_by(500_000);
        r.exs.step().unwrap();
        assert!(
            r.ism_side
                .recv(Some(Duration::from_millis(20)))
                .unwrap()
                .is_none(),
            "a v2 peer cannot decode the Heartbeat tag"
        );
        assert_eq!(r.exs.stats().heartbeats_sent, 0);
    }

    #[test]
    fn heartbeat_pacing_survives_backward_clock_step() {
        use brisk_clock::FaultClock;
        // A node whose raw clock steps backward by 10 s must not stall
        // heartbeats for those 10 s (corrected-clock pacing would: the
        // elapsed-since-last-send computation goes negative until the
        // clock climbs back past its old reading).
        let t = MemTransport::with_model(LinkModel::ideal());
        let mut l = t.listen("ism").unwrap();
        let conn = t.connect("ism").unwrap();
        let mut ism_side = l.accept(Some(Duration::from_secs(1))).unwrap().unwrap();
        let src = SimTimeSource::new();
        let sim: Arc<dyn Clock> = Arc::new(SimClock::new(src.clone(), 0, 0.0, 1));
        let fault = FaultClock::new(sim, 0, 0.0);
        let raw: Arc<dyn Clock> = Arc::clone(&fault) as Arc<dyn Clock>;
        let mut cfg = ExsConfig::default();
        cfg.heartbeat_interval = Duration::from_millis(100);
        let rings = RingSet::new(NodeId(7), cfg.ring_capacity);
        let mut exs = ExternalSensor::new(NodeId(7), rings, raw, conn, cfg).unwrap();
        recv_msg(&mut ism_side); // hello
        ism_side
            .send(
                &Message::HelloAck {
                    version: 3,
                    credit: None,
                }
                .encode(),
            )
            .unwrap();
        exs.step().unwrap();
        src.advance_by(150_000);
        exs.step().unwrap();
        assert_eq!(recv_msg(&mut ism_side), Message::Heartbeat);
        assert_eq!(exs.stats().heartbeats_sent, 1);

        // The clock steps back 10 s. The next step rebases the pacing
        // clock without sending a spurious heartbeat...
        fault.step_by(-10_000_000);
        exs.step().unwrap();
        assert_eq!(exs.stats().heartbeats_sent, 1);
        // ...and one more idle interval of *forward* progress produces
        // the next heartbeat on schedule, stall-free.
        src.advance_by(150_000);
        exs.step().unwrap();
        assert_eq!(recv_msg(&mut ism_side), Message::Heartbeat);
        assert_eq!(exs.stats().heartbeats_sent, 2);
    }

    #[test]
    fn stamp_hlc_attaches_monotone_stamps_at_scoop() {
        let mut cfg = ExsConfig::default();
        cfg.max_batch_records = 2;
        cfg.stamp_hlc = true;
        let mut r = rig(cfg, 0);
        recv_msg(&mut r.ism_side); // hello
        let mut port = r.rings.register();
        r.src.advance_by(50);
        port.emit(
            EventTypeId(1),
            UtcMicros::from_micros(50),
            vec![Value::I32(1)],
        )
        .unwrap();
        port.emit(
            EventTypeId(1),
            UtcMicros::from_micros(50),
            vec![Value::I32(2)],
        )
        .unwrap();
        r.exs.step().unwrap();
        match recv_msg(&mut r.ism_side) {
            Message::EventBatch { records, .. } => {
                let a = records[0].hlc().expect("first record carries X_HLC");
                let b = records[1].hlc().expect("second record carries X_HLC");
                // Both scooped at the same corrected instant: the physical
                // component ties and the logical counter breaks it.
                assert_eq!(a.physical, UtcMicros::from_micros(50));
                assert_eq!(b.physical, UtcMicros::from_micros(50));
                assert!(a < b, "scoop order is preserved in the stamps");
                assert_eq!(b.logical, a.logical + 1);
            }
            other => panic!("expected batch, got {other:?}"),
        }
    }

    #[test]
    fn sync_disabled_ignores_sync_adjust() {
        let mut cfg = ExsConfig::default();
        cfg.sync_disabled = true;
        let mut r = rig(cfg, 0);
        recv_msg(&mut r.ism_side); // hello
        r.ism_side
            .send(
                &Message::SyncAdjust {
                    round: 1,
                    advance_us: 777,
                }
                .encode(),
            )
            .unwrap();
        r.exs.step().unwrap();
        assert_eq!(r.exs.corrected_clock().correction_us(), 0);
        assert_eq!(r.exs.stats().adjustments, 0);
        assert_eq!(r.exs.stats().sync_ignored, 1);
    }

    #[test]
    fn zero_interval_disables_heartbeats() {
        let mut cfg = ExsConfig::default();
        cfg.heartbeat_interval = Duration::ZERO;
        let mut r = rig(cfg, 0);
        recv_msg(&mut r.ism_side); // hello
        r.ism_side
            .send(
                &Message::HelloAck {
                    version: 3,
                    credit: None,
                }
                .encode(),
            )
            .unwrap();
        r.exs.step().unwrap();
        r.src.advance_by(10_000_000);
        r.exs.step().unwrap();
        assert_eq!(r.exs.stats().heartbeats_sent, 0);
    }

    #[test]
    fn garbage_control_frames_are_skipped_within_budget() {
        let mut r = rig(ExsConfig::default(), 0);
        recv_msg(&mut r.ism_side); // hello
                                   // Up to the budget, undecodable frames are counted and skipped.
        for _ in 0..CONTROL_ERROR_BUDGET {
            r.ism_side.send(&[0xba, 0xad]).unwrap();
            r.exs.step().unwrap();
        }
        assert_eq!(r.exs.stats().decode_errors, CONTROL_ERROR_BUDGET as u64);
        // The EXS is still fully functional: a sync poll gets answered.
        r.ism_side
            .send(
                &Message::SyncPoll {
                    round: 1,
                    sample: 0,
                    master_send: UtcMicros::from_micros(1),
                }
                .encode(),
            )
            .unwrap();
        r.exs.step().unwrap();
        assert!(matches!(
            recv_msg(&mut r.ism_side),
            Message::SyncReply { .. }
        ));
        // One past the budget: the connection is declared broken.
        r.ism_side.send(&[0xff]).unwrap();
        assert!(r.exs.step().is_err());
    }

    #[test]
    fn idle_steps_report_idle() {
        let mut r = rig(ExsConfig::default(), 0);
        recv_msg(&mut r.ism_side);
        assert_eq!(r.exs.step().unwrap(), ExsStep::Idle);
        assert!(r.exs.stats().iterations >= 1);
    }
}
