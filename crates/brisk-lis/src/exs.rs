//! The external sensor (EXS).
//!
//! "The memory is read by an external sensor, which runs as another process
//! on the same node and may be assigned a lower priority" (§3.1). The EXS:
//!
//! 1. drains the node's sensor rings,
//! 2. adds the clock-sync *correction value* to every timestamp (§3.2) and,
//!    when configured, stamps trace and HLC fields at scoop time,
//! 3. batches records under the latency-control knobs (§3.4),
//! 4. hands every batch to its [`Uplink`], the one sender of the transfer
//!    protocol. The uplink owns the handshake, credit, the retransmit
//!    window and its replay, heartbeats, reconnects, and the clock-sync
//!    *slave* role (§3.3): it answers `SyncPoll`s with this EXS's corrected
//!    time and applies `SyncAdjust`s to its correction value.
//!
//! [`ExternalSensor::new`] (and [`spawn_exs`]) run over one connection and
//! report [`ExsStep::Disconnected`] once it drops; a supervised EXS
//! ([`crate::supervisor`]) has an uplink that redials instead.
//!
//! When there is nothing to do, the EXS parks in a short timed `recv` on
//! its ISM connection — the "waiting select system call" the paper
//! identifies as the worst-case latency contributor (§4): an event arriving
//! right after the EXS goes to sleep waits out the poll interval, and a
//! partial batch waits out the flush timeout.
//!
//! All EXS *deadlines* (the flush timeout, heartbeats, reconnect backoff)
//! are measured on the node's clock, not on wall time, so the whole
//! component is deterministic under a simulated clock. The flip side: a
//! simulated clock that stops advancing freezes those deadlines — tests
//! and examples that drive a `SimClock` must keep advancing it (or call
//! the handle's `stop`, which force-flushes) for timeout flushes to fire.
//!
//! Steps 1–3 are one pass per record: each record is transcoded straight
//! from its native ring bytes into the frame of the batch being filled
//! ([`BatchBuilder`]), corrected and stamped on the way. No `EventRecord`
//! is built between the ring and the socket.

use crate::batch::{Batcher, FlushReason};
use crate::uplink::{LinkEvent, Uplink, UplinkStats, UplinkTelemetry};
use brisk_clock::{Clock, CorrectedClock, Hlc};
use brisk_core::{BriskError, ExsConfig, NodeId, Result};
use brisk_net::Connection;
use brisk_proto::{BatchBuilder, Scoop};
use brisk_ringbuf::RingSet;
use brisk_telemetry::{Histogram, Registry, StageTimer};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Counters the EXS maintains while running.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ExsStats {
    /// Records drained from sensor rings.
    pub records_drained: u64,
    /// Records handed to the ISM link: counted once, when their batch
    /// enters the retransmit window, whether or not the link was up.
    pub records_sent: u64,
    /// Batches handed to the ISM link (counted like `records_sent`).
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
    /// Cumulative `BatchAck`s received from the ISM.
    pub acks_received: u64,
    /// Batches replayed from the retransmit window after a reconnect.
    pub batches_retransmitted: u64,
    /// Unacked batches evicted from a full retransmit window (lost to
    /// replay).
    pub window_evicted: u64,
    /// Ring scoops deferred because the ISM's credit budget was spent;
    /// backpressure is parked in the rings.
    pub credit_deferrals: u64,
    /// Liveness heartbeats sent to the ISM (idle links only).
    pub heartbeats_sent: u64,
    /// `HelloAck`s received (one per successfully established connection).
    pub hello_acks: u64,
    /// Inbound control frames that failed to decode and were skipped.
    pub decode_errors: u64,
    /// HLC stamps not attached because the record was already at
    /// `MAX_FIELDS` without an `X_HLC` field; the ISM orders such a
    /// record by its physical timestamp.
    pub hlc_full_skips: u64,
    /// Nanoseconds spent doing work (excludes waiting); the E2 utilization
    /// numerator.
    pub busy_nanos: u64,
    /// Loop iterations executed.
    pub iterations: u64,
}

/// Shared atomic backing for [`ExsStats`] plus the EXS's stage
/// histograms. Lives in an `Arc` so a telemetry registry (and the
/// spawning thread, via [`ExsHandle`]) can observe a live EXS without
/// locking. The link counters live in the [`UplinkTelemetry`] the EXS's
/// uplink bumps.
#[derive(Debug, Default)]
pub struct ExsTelemetry {
    link: Arc<UplinkTelemetry>,
    records_drained: AtomicU64,
    flush_records: AtomicU64,
    flush_bytes: AtomicU64,
    flush_timeout: AtomicU64,
    flush_forced: AtomicU64,
    credit_deferrals: AtomicU64,
    hlc_full_skips: AtomicU64,
    busy_nanos: AtomicU64,
    iterations: AtomicU64,
    /// Per-step drain+batch latency in µs, on the node's clock (so it is
    /// deterministic under `SimClock`).
    drain_us: Arc<Histogram>,
    /// Records per emitted batch.
    batch_records: Arc<Histogram>,
}

impl ExsTelemetry {
    /// Materialize the plain [`ExsStats`] view from the atomics.
    pub fn stats(&self) -> ExsStats {
        let ld = |a: &AtomicU64| a.load(Ordering::Relaxed);
        let l: UplinkStats = self.link.stats();
        ExsStats {
            records_drained: ld(&self.records_drained),
            records_sent: l.records_sent,
            batches_sent: l.batches_sent,
            flush_records: ld(&self.flush_records),
            flush_bytes: ld(&self.flush_bytes),
            flush_timeout: ld(&self.flush_timeout),
            flush_forced: ld(&self.flush_forced),
            sync_replies: l.sync_replies,
            adjustments: l.adjustments,
            sync_ignored: l.sync_ignored,
            acks_received: l.acks_received,
            batches_retransmitted: l.batches_retransmitted,
            window_evicted: l.window_evicted,
            credit_deferrals: ld(&self.credit_deferrals),
            heartbeats_sent: l.heartbeats_sent,
            hello_acks: l.hello_acks,
            decode_errors: l.decode_errors,
            hlc_full_skips: ld(&self.hlc_full_skips),
            busy_nanos: ld(&self.busy_nanos),
            iterations: ld(&self.iterations),
        }
    }

    /// The uplink's counters (connections, window, acks, sync).
    pub(crate) fn link(&self) -> &Arc<UplinkTelemetry> {
        &self.link
    }

    /// Register every EXS series with `registry`, labeled by node:
    /// `brisk_exs_*_total` counters (flushes labeled by `reason`), the
    /// `brisk_exs_drain_us` latency histogram and the
    /// `brisk_exs_batch_records` size histogram.
    pub fn bind(self: &Arc<Self>, node: NodeId, registry: &Registry) {
        type Field = fn(&ExsStats) -> u64;
        let n = node.0.to_string();
        let counters: [(&str, &str, Field); 16] = [
            (
                "brisk_exs_records_drained_total",
                "Records drained from sensor rings",
                |s| s.records_drained,
            ),
            (
                "brisk_exs_records_sent_total",
                "Records handed to the ISM link (counted once, on entering the retransmit window)",
                |s| s.records_sent,
            ),
            (
                "brisk_exs_batches_sent_total",
                "Batches handed to the ISM link (counted once, on entering the retransmit window)",
                |s| s.batches_sent,
            ),
            ("brisk_exs_sync_replies_total", "Sync polls answered", |s| {
                s.sync_replies
            }),
            (
                "brisk_exs_adjustments_total",
                "Clock adjustments applied",
                |s| s.adjustments,
            ),
            (
                "brisk_exs_sync_ignored_total",
                "Clock adjustments ignored (sync disabled on this node)",
                |s| s.sync_ignored,
            ),
            (
                "brisk_exs_acks_total",
                "Batch acknowledgements received from the ISM",
                |s| s.acks_received,
            ),
            (
                "brisk_exs_batches_retransmitted_total",
                "Batches replayed from the retransmit window after reconnect",
                |s| s.batches_retransmitted,
            ),
            (
                "brisk_exs_window_evicted_total",
                "Unacked batches evicted from a full retransmit window",
                |s| s.window_evicted,
            ),
            (
                "brisk_exs_credit_deferred_total",
                "Ring scoops deferred waiting for ISM credit",
                |s| s.credit_deferrals,
            ),
            (
                "brisk_exs_heartbeats_sent_total",
                "Liveness heartbeats sent to the ISM on idle links",
                |s| s.heartbeats_sent,
            ),
            (
                "brisk_exs_hello_acks_total",
                "HelloAcks received (established connections)",
                |s| s.hello_acks,
            ),
            (
                "brisk_exs_decode_errors_total",
                "Inbound control frames that failed to decode and were skipped",
                |s| s.decode_errors,
            ),
            (
                "brisk_exs_hlc_full_skips_total",
                "HLC stamps not attached because the record already had MAX_FIELDS fields",
                |s| s.hlc_full_skips,
            ),
            (
                "brisk_exs_busy_nanos_total",
                "Nanoseconds spent working",
                |s| s.busy_nanos,
            ),
            ("brisk_exs_iterations_total", "EXS loop iterations", |s| {
                s.iterations
            }),
        ];
        for (name, help, get) in counters {
            let me = Arc::clone(self);
            registry.counter_fn(name, help, &[("node", &n)], move || get(&me.stats()));
        }
        let reasons: [(&str, Field); 4] = [
            ("records", |s| s.flush_records),
            ("bytes", |s| s.flush_bytes),
            ("timeout", |s| s.flush_timeout),
            ("forced", |s| s.flush_forced),
        ];
        for (reason, get) in reasons {
            let me = Arc::clone(self);
            registry.counter_fn(
                "brisk_exs_flush_total",
                "Batch flushes by triggering knob",
                &[("node", &n), ("reason", reason)],
                move || get(&me.stats()),
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
            self.link.ack_lag(),
        );
        let link = Arc::clone(&self.link);
        registry.gauge_fn(
            "brisk_exs_retransmit_window_depth",
            "Sent-but-unacked batches held for replay",
            &[("node", &n)],
            move || link.window_depth() as i64,
        );
        let link = Arc::clone(&self.link);
        registry.gauge_fn(
            "brisk_exs_credit_balance",
            "Granted credit minus unacked in-flight records (0 while credit is off)",
            &[("node", &n)],
            move || link.credit_balance(),
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
    /// The connection dropped and this EXS does not redial.
    Disconnected,
}

/// The external sensor: one per node.
pub struct ExternalSensor {
    node: NodeId,
    rings: Arc<RingSet>,
    clock: Arc<CorrectedClock<Arc<dyn Clock>>>,
    cfg: ExsConfig,
    shared: Arc<ExsTelemetry>,
    /// Hybrid logical clock, ticked per record at scoop time when
    /// `cfg.stamp_hlc` is set (the stamp rides as `X_HLC`).
    hlc: Arc<Hlc>,
    out: Outbox,
}

/// The batch being filled and the link it leaves on.
struct Outbox {
    batch: BatchBuilder,
    batcher: Batcher,
    link: Uplink,
    clock: Arc<CorrectedClock<Arc<dyn Clock>>>,
    shared: Arc<ExsTelemetry>,
    /// Records scooped but not yet added to `records_drained`.
    scooped: u64,
}

impl Outbox {
    /// Transcode one native ring record onto the batch, shipping the
    /// batch when a size knob trips.
    fn push(&mut self, native: &[u8], scoop: &Scoop) -> Result<()> {
        let t = self.batch.push_native(native, scoop)?;
        debug_assert_eq!(t.used, native.len(), "one record per ring frame");
        self.scooped += 1;
        if t.hlc_dropped {
            self.shared.hlc_full_skips.fetch_add(1, Ordering::Relaxed);
        }
        if let Some(reason) = self.batcher.push(t.payload_size, scoop.at) {
            self.ship(reason);
        }
        Ok(())
    }

    /// Count scooped records as drained (before any of them counts as
    /// sent, so the drained total never trails the sent total).
    fn count_drained(&mut self) {
        let n = std::mem::take(&mut self.scooped);
        self.shared.records_drained.fetch_add(n, Ordering::Relaxed);
    }

    /// Stamp the batch's send time, close its frame and hand it to the
    /// uplink.
    fn ship(&mut self, reason: FlushReason) {
        self.count_drained();
        let records = self.batch.len() as u64;
        let frame = self.batch.finish(self.clock.now());
        self.link.send_frame(frame, records);
        self.shared.batch_records.record(records);
        let reason_counter = match reason {
            FlushReason::Records => &self.shared.flush_records,
            FlushReason::Bytes => &self.shared.flush_bytes,
            FlushReason::Timeout => &self.shared.flush_timeout,
            FlushReason::Forced => &self.shared.flush_forced,
        };
        reason_counter.fetch_add(1, Ordering::Relaxed);
    }
}

impl ExternalSensor {
    /// Connect-side constructor over one open connection: sends the
    /// `Hello` preamble immediately. When the connection drops, `step`
    /// reports [`ExsStep::Disconnected`].
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
        let mut exs = Self::with_link(node, rings, raw_clock, cfg, |link| link)?;
        exs.out.link.attach(conn, exs.clock.raw_now())?;
        Ok(exs)
    }

    /// Build an EXS whose uplink is finished by `link` (given a dialer, or
    /// left for [`ExternalSensor::new`] to attach a connection to).
    pub(crate) fn with_link(
        node: NodeId,
        rings: Arc<RingSet>,
        raw_clock: Arc<dyn Clock>,
        cfg: ExsConfig,
        link: impl FnOnce(Uplink) -> Uplink,
    ) -> Result<Self> {
        cfg.validate()?;
        let clock = CorrectedClock::new(raw_clock);
        let shared = Arc::new(ExsTelemetry::default());
        let uplink = Uplink::new(
            node,
            cfg.retransmit_window_batches,
            cfg.heartbeat_interval,
            Arc::clone(&shared.link),
        )
        .with_sync_clock(Arc::clone(&clock), !cfg.sync_disabled);
        Ok(ExternalSensor {
            node,
            rings,
            out: Outbox {
                batch: BatchBuilder::new(node),
                batcher: Batcher::new(cfg.clone()),
                link: link(uplink),
                clock: Arc::clone(&clock),
                shared: Arc::clone(&shared),
                scooped: 0,
            },
            clock,
            cfg,
            shared,
            hlc: Hlc::new(),
        })
    }

    /// The node this EXS serves.
    pub fn node(&self) -> NodeId {
        self.node
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

    /// Scoop up to `max` records from the rings into the outgoing batch:
    /// each is corrected, stamped and transcoded straight from its ring
    /// bytes, and every batch that fills is shipped. Returns the number
    /// of records scooped.
    fn scoop(&mut self, max: usize) -> Result<usize> {
        let (clock, hlc, out) = (&self.clock, &self.hlc, &mut self.out);
        let stamp_hlc = self.cfg.stamp_hlc;
        let scooped = self.rings.drain_frames(
            max,
            // Read once the rings' ends are marked, so the scoop time is
            // later than every scooped record's notice. The *effective*
            // correction: while a slew is smearing a backward adjustment,
            // records get the partially applied value, matching the clock
            // the later trace stamps read.
            || (clock.effective_correction_us(), clock.now()),
            |&(correction_us, at), native| {
                // Scoop time and every later stamp are on the synchronized
                // clock; only the sensor-side stamps get the correction.
                let scoop = Scoop {
                    correction_us,
                    at,
                    hlc: stamp_hlc.then(|| hlc.tick(at)),
                };
                out.push(native, &scoop)
            },
        );
        out.count_drained();
        scooped
    }

    /// Run one iteration: drain, batch, ship, answer control traffic.
    pub fn step(&mut self) -> Result<ExsStep> {
        let work_start = Instant::now();
        self.shared.iterations.fetch_add(1, Ordering::Relaxed);

        // 0. Flow control: with the link down or the ISM's credit budget
        //    spent, leave new records parked in the rings (where overruns
        //    land on the rings' own drop accounting) instead of piling
        //    them into the batcher and window. Acks reopen the tap.
        if self.out.link.credit_stall().is_some() {
            self.shared.credit_deferrals.fetch_add(1, Ordering::Relaxed);
        }
        let paused = !self.out.link.ready();

        // 1. Drain sensor rings, correct and batch. The span is timed on
        //    the node's clock so it is meaningful (and deterministic)
        //    under simulation.
        let drain_hist = Arc::clone(&self.shared.drain_us);
        let drain_timer = StageTimer::start(&drain_hist, self.clock.now().as_micros());
        let drained = if paused {
            0
        } else {
            self.scoop(self.cfg.max_batch_records * 2)?
        };

        // 2. Latency control: flush a stale partial batch. Deferred while
        //    paused — the flush would put more records in flight.
        if !paused {
            if let Some(reason) = self.out.batcher.poll_timeout(self.clock.now()) {
                self.out.ship(reason);
            }
        }
        drain_timer.stop(self.clock.now().as_micros());

        // 3. Control traffic. When busy, poll without blocking; when idle,
        //    this wait is the EXS's sleep (bounded by the idle knob and by
        //    the batch deadline so a partial batch cannot oversleep).
        //    While paused the deadline clamp is skipped — nothing may
        //    flush anyway, and the sleep is what lets acks arrive.
        let busy = drained > 0;
        let wait = if busy {
            Duration::ZERO
        } else if paused {
            self.cfg.idle_sleep
        } else {
            let mut w = self.cfg.idle_sleep;
            if let Some(dl) = self.out.batcher.time_to_deadline(self.clock.now()) {
                let dl = Duration::from_micros(dl.max(0) as u64);
                w = w.min(dl.max(Duration::from_micros(1)));
            }
            w
        };
        let link = &mut self.out.link;
        let event = link.poll(self.clock.raw_now(), wait)?;
        let worked = work_start.elapsed().saturating_sub(link.waited());
        self.shared
            .busy_nanos
            .fetch_add(worked.as_nanos() as u64, Ordering::Relaxed);
        Ok(match event {
            LinkEvent::Shutdown {
                rejected_reconnect: true,
            } => {
                // The ISM still holds this node's previous connection and
                // rejected the reconnect's Hello as a duplicate: retry
                // after a backoff instead of stopping for good.
                link.drop_connection("reconnect Hello rejected as a duplicate");
                ExsStep::Busy
            }
            LinkEvent::Shutdown { .. } => ExsStep::Shutdown,
            LinkEvent::Lost => ExsStep::Disconnected,
            LinkEvent::Busy => ExsStep::Busy,
            LinkEvent::Idle if busy => ExsStep::Busy,
            LinkEvent::Idle => ExsStep::Idle,
        })
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
    /// send `Shutdown`, so no accepted record is lost. On a dead link the
    /// final batches stay in the retransmit window. Consumes the EXS and
    /// returns its final stats.
    pub fn finish(mut self) -> Result<ExsStats> {
        self.scoop(usize::MAX)?;
        if let Some(reason) = self.out.batcher.flush() {
            self.out.ship(reason);
        }
        self.out.link.goodbye();
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
    /// Run `exs` on a dedicated thread.
    pub(crate) fn spawn(exs: ExternalSensor) -> Result<ExsHandle> {
        let node = exs.node;
        let clock = Arc::clone(&exs.clock);
        let shared = Arc::clone(&exs.shared);
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

    /// The EXS's corrected clock (e.g. to observe the correction value).
    pub fn corrected_clock(&self) -> &Arc<CorrectedClock<Arc<dyn Clock>>> {
        &self.clock
    }

    /// The node the EXS serves.
    pub(crate) fn node(&self) -> NodeId {
        self.node
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
    ExsHandle::spawn(ExternalSensor::new(node, rings, raw_clock, conn, cfg)?)
}

#[cfg(test)]
#[allow(clippy::field_reassign_with_default)] // single-knob mutation is the point of these tests
mod tests {
    use super::*;
    use crate::uplink::CONTROL_ERROR_BUDGET;
    use brisk_clock::{SimClock, SimTimeSource, SystemClock};
    use brisk_core::descriptor::MAX_FIELDS;
    use brisk_core::{EventTypeId, HlcStamp, TraceStage, UtcMicros, Value};
    use brisk_net::{LinkModel, MemTransport, Transport};
    use brisk_proto::{Message, UNLIMITED_CREDIT};

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
                assert_eq!(seq, 1); // the first batch is seq 1
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
        assert_eq!(r.exs.out.link.window_depth(), 3);

        // Cumulative ack for seq 2 releases the first two.
        r.ism_side
            .send(
                &Message::BatchAck {
                    seq: 2,
                    credit: UNLIMITED_CREDIT,
                }
                .encode(),
            )
            .unwrap();
        r.exs.step().unwrap();
        assert_eq!(r.exs.out.link.window_depth(), 1);
        assert_eq!(r.exs.stats().acks_received, 1);
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
            .send(&Message::HelloAck { credit: 2 }.encode())
            .unwrap();
        r.exs.step().unwrap();
        assert_eq!(r.exs.out.link.credit(), 2);

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
            .send(&Message::BatchAck { seq: 2, credit: 2 }.encode())
            .unwrap();
        r.exs.step().unwrap(); // consumes the ack
        r.exs.step().unwrap(); // scoops the parked record
        assert_eq!(r.exs.stats().batches_sent, 3);
        assert_eq!(r.exs.stats().records_drained, drained_before + 1);
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
            .send(&Message::HelloAck { credit: 2 }.encode())
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
    fn credit_balance_reads_zero_under_an_unlimited_grant() {
        use brisk_telemetry::Registry;
        let mut cfg = ExsConfig::default();
        cfg.max_batch_records = 1;
        let mut r = rig(cfg, 0);
        recv_msg(&mut r.ism_side); // hello
        let registry = Registry::new();
        r.exs.bind_telemetry(&registry);
        r.ism_side
            .send(
                &Message::HelloAck {
                    credit: UNLIMITED_CREDIT,
                }
                .encode(),
            )
            .unwrap();
        r.exs.step().unwrap();
        emit_n(&r.rings, 2);
        r.src.advance_by(10);
        r.exs.step().unwrap();
        // Records are in flight, yet the unlimited grant is never spent:
        // the balance reads 0 (a plain `u64::MAX as i64` would read -1
        // minus the in-flight count).
        assert_eq!(r.exs.out.link.window_depth(), 2);
        let snap = registry.snapshot();
        assert_eq!(snap.gauge("brisk_exs_credit_balance"), Some(0));
        assert_eq!(snap.counter_total("brisk_exs_credit_deferred_total"), 0);
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
        assert_eq!(r.exs.out.link.window_depth(), 2);
    }

    #[test]
    fn heartbeat_sent_on_idle_acknowledged_link() {
        let mut cfg = ExsConfig::default();
        cfg.heartbeat_interval = Duration::from_millis(100);
        let mut r = rig(cfg, 0);
        recv_msg(&mut r.ism_side); // hello
                                   // No HelloAck yet: idle time passes, no heartbeat (nothing has
                                   // served the connection yet).
        r.src.advance_by(150_000);
        r.exs.step().unwrap();
        assert!(r
            .ism_side
            .recv(Some(Duration::from_millis(20)))
            .unwrap()
            .is_none());
        // Acknowledged: the next idle interval produces a heartbeat.
        r.ism_side
            .send(
                &Message::HelloAck {
                    credit: UNLIMITED_CREDIT,
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
                    credit: UNLIMITED_CREDIT,
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
    fn hlc_stamp_that_does_not_fit_is_counted() {
        use brisk_telemetry::Registry;
        let mut cfg = ExsConfig::default();
        cfg.max_batch_records = 3;
        cfg.stamp_hlc = true;
        let mut r = rig(cfg, 0);
        recv_msg(&mut r.ism_side); // hello
        let registry = Registry::new();
        r.exs.bind_telemetry(&registry);
        let mut port = r.rings.register();
        r.src.advance_by(50);
        let at = UtcMicros::from_micros(50);
        // Full, no X_HLC: the stamp is dropped and counted.
        port.emit(EventTypeId(1), at, vec![Value::I32(0); MAX_FIELDS])
            .unwrap();
        // Full, with an X_HLC: the stamp replaces it.
        let mut with_hlc = vec![Value::I32(0); MAX_FIELDS - 1];
        with_hlc.push(Value::Hlc(HlcStamp::ZERO));
        port.emit(EventTypeId(1), at, with_hlc).unwrap();
        // Room to spare: the stamp is appended.
        port.emit(EventTypeId(1), at, vec![Value::I32(1)]).unwrap();
        r.exs.step().unwrap();
        match recv_msg(&mut r.ism_side) {
            Message::EventBatch { records, .. } => {
                assert_eq!(records[0].fields, vec![Value::I32(0); MAX_FIELDS]);
                assert_eq!(records[0].hlc(), None);
                assert_eq!(records[1].fields.len(), MAX_FIELDS);
                assert!(records[1].hlc().is_some_and(|h| h.physical == at));
                assert_eq!(records[2].fields.len(), 2);
                assert!(records[2].hlc().is_some_and(|h| h.physical == at));
            }
            other => panic!("expected batch, got {other:?}"),
        }
        assert_eq!(r.exs.stats().hlc_full_skips, 1);
        let snap = registry.snapshot();
        assert_eq!(
            snap.counter_labeled("brisk_exs_hlc_full_skips_total", &[("node", "7")]),
            Some(1)
        );
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
                    credit: UNLIMITED_CREDIT,
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
