//! The upstream link: the sender half of the transfer protocol (§3.4).
//!
//! BRISK has two senders and one protocol. A node's EXS ships the records
//! it scoops from the rings, and a relay ISM ships its merged stream to
//! its parent "as if it were a single EXS". Both hand their encoded batch
//! frames to an [`Uplink`], which owns everything about the link that has
//! to outlive one connection:
//!
//! - the `Hello` preamble and the `HelloAck` that confirms it;
//! - the credit gate: the ISM's absolute in-flight budget, granted on
//!   `HelloAck` and re-advertised on every `BatchAck`;
//! - the [`SendWindow`]: each batch frame gets its sequence number, is
//!   kept until a cumulative `BatchAck` covers it, and is replayed
//!   after a reconnect, so nothing handed to a dead connection is lost
//!   (the ISM drops replays it already has by `(node, seq)`);
//! - reconnects, when built with a [`ConnectFn`]: decorrelated-jitter
//!   [`Backoff`] that resets only once a `HelloAck` proves the ISM served
//!   the connection;
//! - idle heartbeats and the control-frame error budget;
//! - the clock-sync slave role: `SyncPoll` replies and `SyncAdjust`s.
//!
//! The link reads no clock of its own for pacing: every call carries the
//! caller's `now`, and heartbeat, backoff and ack-latency deadlines run on
//! a monotone accumulation of it (forward progress accrues, backward steps
//! count as zero). Under a simulated clock the whole sender is therefore
//! deterministic.

use crate::batch::SendWindow;
use brisk_clock::{Clock, CorrectedClock};
use brisk_core::{BriskError, NodeId, Result, UtcMicros};
use brisk_net::Connection;
use brisk_proto::{Message, UNLIMITED_CREDIT};
use brisk_telemetry::Histogram;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Factory producing a fresh connection upstream, invoked on every dial.
pub type ConnectFn = Box<dyn Fn() -> Result<Box<dyn Connection>> + Send>;

/// Undecodable inbound control frames a link skips before declaring the
/// connection corrupt. Mirrors the ISM-side protocol error budget.
pub(crate) const CONTROL_ERROR_BUDGET: u32 = 8;

/// Reconnect backoff policy.
///
/// Each failed attempt waits a uniformly random delay in
/// `[initial, 3 × previous]`, capped at `max` (*decorrelated jitter*).
/// Pure doubling would synchronize a fleet: after an ISM restart every
/// sender sees the disconnect in the same instant and would retry on the
/// same schedule, hammering the recovering manager in lockstep. The
/// per-node RNG seed keeps any one sender's schedule reproducible.
///
/// The delay resets to `initial` only once the ISM answers a `Hello` with
/// a `HelloAck`: a bare connect proves only that something is listening,
/// not that the manager is serving (an accept loop whose manager thread
/// is wedged, or a fault plane chewing the preamble).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Backoff {
    /// First reconnect delay.
    pub initial: Duration,
    /// Delay ceiling.
    pub max: Duration,
}

impl Backoff {
    /// The delay after `prev`: `min(max, U(initial, 3 × prev))`.
    pub(crate) fn next(&self, rng: &mut StdRng, prev: Duration) -> Duration {
        let lo = self.initial.as_micros() as u64;
        let cap = (self.max.as_micros() as u64).max(lo);
        let hi = (prev.as_micros() as u64).saturating_mul(3).clamp(lo, cap);
        Duration::from_micros(rng.gen_range(lo..=hi))
    }
}

/// Counters of one [`Uplink`], observable from other threads.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct UplinkStats {
    /// Connections established (the first one included).
    pub connects: u64,
    /// `HelloAck`s received.
    pub hello_acks: u64,
    /// Records that entered the send window, each counted once.
    pub records_sent: u64,
    /// Batches that entered the send window, each counted once.
    pub batches_sent: u64,
    /// Batches replayed from the window after a reconnect.
    pub batches_retransmitted: u64,
    /// Cumulative `BatchAck`s received.
    pub acks_received: u64,
    /// Unacked batches evicted from a full window (lost to replay).
    pub window_evicted: u64,
    /// Heartbeats sent on idle links.
    pub heartbeats_sent: u64,
    /// Inbound control frames that failed to decode and were skipped.
    pub decode_errors: u64,
    /// Sync polls answered.
    pub sync_replies: u64,
    /// Sync adjustments applied to the sync clock.
    pub adjustments: u64,
    /// Sync adjustments ignored because the owner refuses sync.
    pub sync_ignored: u64,
}

/// Shared atomic backing for [`UplinkStats`] plus the link's gauges and
/// histograms. The owner of a link (EXS or relay exporter) exports these
/// under its own metric names.
#[derive(Debug, Default)]
pub struct UplinkTelemetry {
    connects: AtomicU64,
    hello_acks: AtomicU64,
    records_sent: AtomicU64,
    batches_sent: AtomicU64,
    batches_retransmitted: AtomicU64,
    acks_received: AtomicU64,
    window_evicted: AtomicU64,
    heartbeats_sent: AtomicU64,
    decode_errors: AtomicU64,
    sync_replies: AtomicU64,
    adjustments: AtomicU64,
    sync_ignored: AtomicU64,
    connected: AtomicBool,
    window_depth: AtomicU64,
    credit_balance: AtomicI64,
    /// Unacked batches still windowed when each ack landed.
    ack_lag: Arc<Histogram>,
    /// Window entry to the cumulative ack covering the batch, in µs of
    /// the caller's clock.
    ack_latency_us: Arc<Histogram>,
}

impl UplinkTelemetry {
    /// Materialize the plain [`UplinkStats`] view.
    pub fn stats(&self) -> UplinkStats {
        let ld = |a: &AtomicU64| a.load(Ordering::Relaxed);
        UplinkStats {
            connects: ld(&self.connects),
            hello_acks: ld(&self.hello_acks),
            records_sent: ld(&self.records_sent),
            batches_sent: ld(&self.batches_sent),
            batches_retransmitted: ld(&self.batches_retransmitted),
            acks_received: ld(&self.acks_received),
            window_evicted: ld(&self.window_evicted),
            heartbeats_sent: ld(&self.heartbeats_sent),
            decode_errors: ld(&self.decode_errors),
            sync_replies: ld(&self.sync_replies),
            adjustments: ld(&self.adjustments),
            sync_ignored: ld(&self.sync_ignored),
        }
    }

    /// True while a connection is up.
    pub fn connected(&self) -> bool {
        self.connected.load(Ordering::Relaxed)
    }

    /// Sent-but-unacked batches held for replay.
    pub fn window_depth(&self) -> u64 {
        self.window_depth.load(Ordering::Relaxed)
    }

    /// Granted credit minus unacked in-flight records (0 under an
    /// unlimited grant).
    pub fn credit_balance(&self) -> i64 {
        self.credit_balance.load(Ordering::Relaxed)
    }

    /// Windowed-batch count at each ack.
    pub fn ack_lag(&self) -> &Arc<Histogram> {
        &self.ack_lag
    }

    /// Window entry → ack latency, in µs.
    pub fn ack_latency_us(&self) -> &Arc<Histogram> {
        &self.ack_latency_us
    }
}

/// What one [`Uplink::poll`] saw.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LinkEvent {
    /// Nothing arrived.
    Idle,
    /// A control message was handled, or the connection changed.
    Busy,
    /// The ISM sent `Shutdown`. What that means is the owner's call: the
    /// flag is set when it answered a reconnect's `Hello` before any
    /// `HelloAck`, i.e. the ISM rejected the `Hello` as a duplicate of a
    /// connection it has not yet reaped.
    Shutdown {
        /// Shutdown before this connection's `HelloAck`, after an earlier
        /// connection was acknowledged.
        rejected_reconnect: bool,
    },
    /// The single connection is gone and the link cannot redial.
    Lost,
}

/// Redial state of a link built with a [`ConnectFn`].
struct Redial {
    connect: ConnectFn,
    policy: Backoff,
    give_up_after: Option<u32>,
    delay: Duration,
    next_attempt_us: i64,
    failures: u32,
    rng: StdRng,
}

impl Redial {
    /// Schedule the next dial: at once after a connection the ISM served
    /// (the backoff resets), else after the current delay, which grows.
    fn schedule(&mut self, served: bool, now_us: i64) {
        if served {
            self.delay = self.policy.initial;
            self.next_attempt_us = now_us;
        } else {
            self.next_attempt_us = now_us.saturating_add(self.delay.as_micros() as i64);
            self.delay = self.policy.next(&mut self.rng, self.delay);
        }
    }
}

/// The sender half of the transfer protocol; see the module docs.
pub struct Uplink {
    node: NodeId,
    conn: Option<Box<dyn Connection>>,
    redial: Option<Redial>,
    window: SendWindow,
    /// Window-entry time per windowed seq, for the ack-latency histogram;
    /// kept in step with the window.
    entered: VecDeque<(u64, i64)>,
    credit: u64,
    credit_stalled: bool,
    /// This connection got its `HelloAck`.
    acked: bool,
    /// Some earlier connection got a `HelloAck`.
    ever_acked: bool,
    heartbeat_us: i64,
    /// Monotone accumulation of the caller's clock (µs), the basis of
    /// every deadline, and the last raw reading it advanced from.
    pacing_us: i64,
    last_now_us: Option<i64>,
    last_send_us: i64,
    /// Time the last poll spent blocked on the connection or the backoff.
    waited: Duration,
    control_errors: u32,
    sync_clock: Option<Arc<CorrectedClock<Arc<dyn Clock>>>>,
    apply_adjust: bool,
    shared: Arc<UplinkTelemetry>,
}

impl Uplink {
    /// An unconnected link that speaks as `node`, windows up to
    /// `window_batches` unacked batches and heartbeats after
    /// `heartbeat_interval` of send-idle time (zero disables). Give it a
    /// connection with [`Uplink::attach`], or a dialer with
    /// [`Uplink::redial`].
    pub fn new(
        node: NodeId,
        window_batches: usize,
        heartbeat_interval: Duration,
        shared: Arc<UplinkTelemetry>,
    ) -> Self {
        Uplink {
            node,
            conn: None,
            redial: None,
            window: SendWindow::new(window_batches),
            entered: VecDeque::new(),
            credit: UNLIMITED_CREDIT,
            credit_stalled: false,
            acked: false,
            ever_acked: false,
            heartbeat_us: heartbeat_interval.as_micros() as i64,
            pacing_us: 0,
            last_now_us: None,
            last_send_us: 0,
            waited: Duration::ZERO,
            control_errors: 0,
            sync_clock: None,
            apply_adjust: false,
            shared,
        }
    }

    /// Dial with `connect` on the first poll and redial after every lost
    /// connection, pacing attempts with `policy`. With `give_up_after`
    /// set, that many consecutive failed dials make [`Uplink::poll`] fail.
    pub fn redial(
        mut self,
        connect: ConnectFn,
        policy: Backoff,
        give_up_after: Option<u32>,
    ) -> Self {
        let seed = 0x9e37_79b9_7f4a_7c15 ^ u64::from(self.node.0);
        self.redial = Some(Redial {
            connect,
            policy,
            give_up_after,
            delay: policy.initial,
            next_attempt_us: 0,
            failures: 0,
            rng: StdRng::seed_from_u64(seed),
        });
        self
    }

    /// Answer `SyncPoll`s from `clock` and, when `apply_adjust` is set,
    /// apply `SyncAdjust`s to it (otherwise they are counted as ignored).
    /// Without a sync clock, polls are answered with the `now` the caller
    /// passed to [`Uplink::poll`] and adjustments are dropped.
    pub fn with_sync_clock(
        mut self,
        clock: Arc<CorrectedClock<Arc<dyn Clock>>>,
        apply_adjust: bool,
    ) -> Self {
        self.sync_clock = Some(clock);
        self.apply_adjust = apply_adjust;
        self
    }

    /// Take over an open connection: send `Hello` and replay the window.
    pub fn attach(&mut self, conn: Box<dyn Connection>, now: UtcMicros) -> Result<()> {
        self.advance(now);
        self.start(conn)
    }

    /// True while a connection is up.
    pub fn connected(&self) -> bool {
        self.conn.is_some()
    }

    /// The credit budget last granted by the ISM (unlimited until the
    /// first grant). It persists across reconnects until the next
    /// `HelloAck` overwrites it.
    pub fn credit(&self) -> u64 {
        self.credit
    }

    /// Sent-but-unacked batches currently held for replay.
    pub fn window_depth(&self) -> usize {
        self.window.depth()
    }

    /// Time the last [`Uplink::poll`] spent blocked waiting.
    pub(crate) fn waited(&self) -> Duration {
        self.waited
    }

    /// May the owner put more records in flight? The connection is up and
    /// credit permits it.
    pub fn ready(&self) -> bool {
        self.conn.is_some() && self.credit_open()
    }

    /// In-flight records are under budget. An empty window always
    /// passes: even a zero grant can only stop *new* traffic while
    /// something is in flight, never deadlock the sender.
    fn credit_open(&self) -> bool {
        self.window.depth() == 0 || self.window.unacked_records() < self.credit
    }

    /// `None` while credit permits traffic; `Some(first)` while the budget
    /// is spent, with `first` set on the stall's leading edge only (which
    /// is also the one flight-recorder event per stall).
    pub fn credit_stall(&mut self) -> Option<bool> {
        if self.credit_open() {
            self.credit_stalled = false;
            return None;
        }
        let first = !self.credit_stalled;
        if first {
            self.credit_stalled = true;
            brisk_telemetry::flight_log!(
                Warn,
                "uplink",
                "credit_stall",
                "node {} out of credit: budget {} spent",
                self.node,
                self.credit
            );
        }
        Some(first)
    }

    /// Fold the caller's clock reading into the monotone pacing clock.
    fn advance(&mut self, now: UtcMicros) -> i64 {
        let now_us = now.as_micros();
        if let Some(last) = self.last_now_us {
            let delta = now_us.saturating_sub(last);
            if delta > 0 {
                self.pacing_us = self.pacing_us.saturating_add(delta);
            }
        }
        self.last_now_us = Some(now_us);
        self.pacing_us
    }

    fn mirror(&self) {
        let s = &self.shared;
        s.connected.store(self.conn.is_some(), Ordering::Relaxed);
        s.window_depth
            .store(self.window.depth() as u64, Ordering::Relaxed);
        // A grant past `i64::MAX` (the unlimited one) reads as 0.
        let unacked = self.window.unacked_records() as i64;
        let bal = i64::try_from(self.credit).map_or(0, |c| c.saturating_sub(unacked));
        s.credit_balance.store(bal, Ordering::Relaxed);
    }

    /// Send `Hello` on a fresh connection, then replay every unacked batch
    /// in sequence order ahead of new traffic. Replay ignores credit: the
    /// previous connection already granted those records.
    fn start(&mut self, mut conn: Box<dyn Connection>) -> Result<()> {
        let hello = Message::Hello {
            node: self.node,
            version: brisk_proto::VERSION,
        };
        conn.send(&hello.encode())?;
        self.shared.connects.fetch_add(1, Ordering::Relaxed);
        brisk_telemetry::flight_log!(
            Info,
            "uplink",
            "connect",
            "node {} connected upstream; replaying {} unacked batches",
            self.node,
            self.window.depth()
        );
        let replayed = self
            .window
            .iter_unacked()
            .try_for_each(|(_, frame)| conn.send(frame));
        self.conn = Some(conn);
        if let Err(e) = replayed {
            return self.end(e).map(drop);
        }
        self.shared
            .batches_retransmitted
            .fetch_add(self.window.depth() as u64, Ordering::Relaxed);
        self.last_send_us = self.pacing_us;
        self.mirror();
        Ok(())
    }

    /// End the current connection: the window, credit and sequence stream
    /// stay for the next one. A redialling link schedules its next dial;
    /// a single-connection link reports a lost peer as [`LinkEvent::Lost`]
    /// and any other reason as the error.
    fn end(&mut self, why: BriskError) -> Result<LinkEvent> {
        self.conn = None;
        let served = std::mem::take(&mut self.acked);
        self.control_errors = 0;
        self.mirror();
        brisk_telemetry::flight_log!(
            Warn,
            "uplink",
            "disconnect",
            "node {} lost its upstream link ({why}); {} unacked batches held for replay",
            self.node,
            self.window.depth()
        );
        match &mut self.redial {
            Some(r) => {
                r.schedule(served, self.pacing_us);
                Ok(LinkEvent::Busy)
            }
            None if why.is_disconnect() => Ok(LinkEvent::Lost),
            None => Err(why),
        }
    }

    /// Close the current connection on the owner's behalf (a role-specific
    /// reading of an upstream `Shutdown`); a redialling link dials again.
    pub fn drop_connection(&mut self, why: &str) {
        if self.conn.is_some() {
            let _ = self.end(BriskError::Protocol(why.to_string()));
        }
    }

    /// Dial if the link is down, redialling, and the backoff has elapsed.
    fn dial(&mut self) -> Result<()> {
        let Some(r) = &mut self.redial else {
            return Ok(());
        };
        if self.conn.is_some() || self.pacing_us < r.next_attempt_us {
            return Ok(());
        }
        match (r.connect)() {
            Ok(conn) => {
                r.failures = 0;
                if let Err(e) = self.start(conn) {
                    let _ = self.end(e);
                }
            }
            Err(e) => {
                r.failures += 1;
                if r.give_up_after.is_some_and(|max| r.failures >= max) {
                    return Err(BriskError::Io(std::io::Error::new(
                        std::io::ErrorKind::ConnectionRefused,
                        format!("gave up after {} attempts: {e}", r.failures),
                    )));
                }
                r.schedule(false, self.pacing_us);
            }
        }
        Ok(())
    }

    /// Window an encoded batch frame of `records` records and send it if
    /// the link is up. The window writes the batch's sequence number into
    /// the frame's header. Its records count as sent here, once: on a dead
    /// link the batch waits in the window for the next connection's
    /// replay, which counts only as a retransmit.
    pub fn send_frame(&mut self, frame: Vec<u8>, records: u64) {
        let pushed = self.window.push(frame, records);
        if pushed.evicted.is_some() {
            self.entered.pop_front();
            self.shared.window_evicted.fetch_add(1, Ordering::Relaxed);
            brisk_telemetry::flight_log!(
                Warn,
                "uplink",
                "window_evict",
                "node {} evicted an unacked batch from a full send window",
                self.node
            );
        }
        self.entered.push_back((pushed.seq, self.pacing_us));
        let sent = self.conn.as_mut().map(|c| c.send(pushed.frame));
        self.shared
            .records_sent
            .fetch_add(records, Ordering::Relaxed);
        self.shared.batches_sent.fetch_add(1, Ordering::Relaxed);
        match sent {
            Some(Ok(())) => self.last_send_us = self.pacing_us,
            Some(Err(e)) => {
                let _ = self.end(e);
            }
            None => {}
        }
        self.mirror();
    }

    /// Send one control frame; `false` if there was no connection or the
    /// send failed, which ends the connection.
    fn send_control(&mut self, msg: &Message) -> Result<bool> {
        let Some(conn) = &mut self.conn else {
            return Ok(false);
        };
        match conn.send(&msg.encode()) {
            Ok(()) => {
                self.last_send_us = self.pacing_us;
                Ok(true)
            }
            Err(e) => self.end(e).map(|_| false),
        }
    }

    /// Orderly goodbye: tell the ISM this sender is done.
    pub fn goodbye(&mut self) {
        let _ = self.send_control(&Message::Shutdown);
    }

    /// One turn of the link at the caller's time `now`: dial if due, send
    /// a heartbeat on an idle connection the ISM acknowledged, then wait
    /// up to `wait` for one control frame and handle it. Fails only when
    /// a redialling link gives up, or when a single-connection link ends
    /// on a damaged or wrong-role control stream.
    pub fn poll(&mut self, now: UtcMicros, wait: Duration) -> Result<LinkEvent> {
        self.advance(now);
        self.waited = Duration::ZERO;
        self.dial()?;
        if self.heartbeat_us > 0
            && self.acked
            && self.pacing_us.saturating_sub(self.last_send_us) >= self.heartbeat_us
            && self.send_control(&Message::Heartbeat)?
        {
            self.shared.heartbeats_sent.fetch_add(1, Ordering::Relaxed);
        }
        let Some(conn) = &mut self.conn else {
            let Some(r) = &self.redial else {
                return Ok(LinkEvent::Lost);
            };
            let until = r.next_attempt_us.saturating_sub(self.pacing_us).max(0) as u64;
            self.waited = wait.min(Duration::from_micros(until));
            std::thread::sleep(self.waited);
            return Ok(LinkEvent::Idle);
        };
        let recv_start = Instant::now();
        let frame = conn.recv(Some(wait));
        self.waited = recv_start.elapsed();
        let event = match frame {
            Ok(Some(frame)) => match Message::decode(&frame) {
                Ok(msg) => self.handle(msg, now),
                Err(e) => {
                    self.shared.decode_errors.fetch_add(1, Ordering::Relaxed);
                    self.control_errors += 1;
                    if self.control_errors > CONTROL_ERROR_BUDGET {
                        self.end(e.into())
                    } else {
                        Ok(LinkEvent::Busy)
                    }
                }
            },
            Ok(None) => Ok(LinkEvent::Idle),
            Err(e) => self.end(e),
        };
        self.mirror();
        event
    }

    fn handle(&mut self, msg: Message, now: UtcMicros) -> Result<LinkEvent> {
        match msg {
            Message::HelloAck { credit } => {
                // Authoritative for the connection's flow control: it
                // replaces a budget left over from the previous connection.
                self.credit = credit;
                self.acked = true;
                self.ever_acked = true;
                // Idle time before the handshake does not count toward the
                // heartbeat deadline.
                self.last_send_us = self.pacing_us;
                self.shared.hello_acks.fetch_add(1, Ordering::Relaxed);
                Ok(LinkEvent::Busy)
            }
            Message::BatchAck { seq, credit } => {
                self.window.ack(seq);
                while let Some(&(s, at)) = self.entered.front() {
                    if s > seq {
                        break;
                    }
                    let lat = self.pacing_us.saturating_sub(at).max(0) as u64;
                    self.shared.ack_latency_us.record(lat);
                    self.entered.pop_front();
                }
                self.shared.ack_lag.record(self.window.depth() as u64);
                // The grant on the ack re-advertises the budget absolutely.
                self.credit = credit;
                self.shared.acks_received.fetch_add(1, Ordering::Relaxed);
                Ok(LinkEvent::Busy)
            }
            Message::SyncPoll {
                round,
                sample,
                master_send,
            } => {
                // The corrected time: slaves converge on each other
                // through their corrections.
                let slave_time = self.sync_clock.as_ref().map_or(now, |c| c.now());
                let reply = Message::SyncReply {
                    round,
                    sample,
                    master_send,
                    slave_time,
                };
                if self.send_control(&reply)? {
                    self.shared.sync_replies.fetch_add(1, Ordering::Relaxed);
                }
                Ok(LinkEvent::Busy)
            }
            Message::SyncAdjust { advance_us, .. } => {
                match &self.sync_clock {
                    Some(c) if self.apply_adjust => {
                        c.adjust(advance_us);
                        self.shared.adjustments.fetch_add(1, Ordering::Relaxed);
                    }
                    Some(_) => {
                        self.shared.sync_ignored.fetch_add(1, Ordering::Relaxed);
                    }
                    None => {}
                }
                Ok(LinkEvent::Busy)
            }
            Message::Shutdown => Ok(LinkEvent::Shutdown {
                rejected_reconnect: self.ever_acked && !self.acked,
            }),
            // Decodable but wrong for this role: a protocol violation, not
            // damaged bytes, so it ends the connection outright.
            other => self.end(BriskError::Protocol(format!(
                "unexpected message on an upstream link: {other:?}"
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use brisk_core::{EventRecord, EventTypeId, SensorId, Value};
    use brisk_net::{Listener, MemTransport, Transport};
    use std::sync::atomic::AtomicU32;

    fn rec(seq: u64) -> EventRecord {
        EventRecord::new(
            NodeId(3),
            SensorId(0),
            EventTypeId(1),
            seq,
            UtcMicros::from_micros(seq as i64),
            vec![Value::U64(seq)],
        )
        .unwrap()
    }

    /// Ship `records` as one batch, the way the relay exporter does.
    fn send_batch(link: &mut Uplink, records: &[EventRecord]) {
        let frame = brisk_proto::encode_batch(NodeId(3), 0, records);
        link.send_frame(frame, records.len() as u64);
    }

    fn at(ms: i64) -> UtcMicros {
        UtcMicros::from_micros(ms * 1_000)
    }

    fn backoff(initial_ms: u64, max_ms: u64) -> Backoff {
        Backoff {
            initial: Duration::from_millis(initial_ms),
            max: Duration::from_millis(max_ms),
        }
    }

    fn link() -> Uplink {
        Uplink::new(NodeId(3), 16, Duration::ZERO, Arc::default())
    }

    fn stats(link: &Uplink) -> UplinkStats {
        link.shared.stats()
    }

    fn accept(l: &mut Box<dyn Listener>) -> Box<dyn Connection> {
        l.accept(Some(Duration::from_secs(1)))
            .unwrap()
            .expect("the link must dial")
    }

    fn recv_msg(c: &mut Box<dyn Connection>) -> Message {
        let frame = c.recv(Some(Duration::from_secs(1))).unwrap().unwrap();
        Message::decode(&frame).unwrap()
    }

    fn send(c: &mut Box<dyn Connection>, msg: Message) {
        c.send(&msg.encode()).unwrap();
    }

    #[test]
    fn backoff_is_bounded_and_deterministic() {
        let policy = backoff(10, 100);
        let mut rng = StdRng::seed_from_u64(42);
        let mut prev = policy.initial;
        for _ in 0..1000 {
            let next = policy.next(&mut rng, prev);
            assert!(next >= policy.initial, "below floor: {next:?}");
            assert!(next <= policy.max, "above cap: {next:?}");
            assert!(
                next <= (prev * 3).max(policy.initial),
                "grew faster than 3×: {prev:?} → {next:?}"
            );
            prev = next;
        }
        // Same seed → identical sequence, so a flaky reconnect storm can be
        // replayed exactly.
        let (mut a, mut b) = (StdRng::seed_from_u64(7), StdRng::seed_from_u64(7));
        let (mut pa, mut pb) = (policy.initial, policy.initial);
        for _ in 0..64 {
            pa = policy.next(&mut a, pa);
            pb = policy.next(&mut b, pb);
            assert_eq!(pa, pb);
        }
    }

    #[test]
    fn failed_dials_back_off_on_the_callers_clock_and_give_up() {
        let dials = Arc::new(AtomicU32::new(0));
        let d = Arc::clone(&dials);
        let mut link = link().redial(
            Box::new(move || {
                d.fetch_add(1, Ordering::Relaxed);
                Err(BriskError::Disconnected)
            }),
            backoff(10, 10),
            Some(3),
        );
        assert_eq!(link.poll(at(0), Duration::ZERO).unwrap(), LinkEvent::Idle);
        assert_eq!(dials.load(Ordering::Relaxed), 1);
        // The next attempt waits out the backoff on the caller's clock,
        // however often it polls.
        link.poll(at(5), Duration::ZERO).unwrap();
        link.poll(at(9), Duration::ZERO).unwrap();
        assert_eq!(dials.load(Ordering::Relaxed), 1);
        link.poll(at(10), Duration::ZERO).unwrap();
        assert_eq!(dials.load(Ordering::Relaxed), 2);
        let err = link.poll(at(20), Duration::ZERO).unwrap_err();
        assert!(
            err.to_string().contains("gave up after 3 attempts"),
            "{err}"
        );
    }

    #[test]
    fn redial_replays_the_window_and_keeps_credit_until_the_next_hello_ack() {
        let t = MemTransport::new();
        let mut listener = t.listen("up").unwrap();
        let t2 = Arc::clone(&t);
        let mut link = link().redial(Box::new(move || t2.connect("up")), backoff(1, 1), None);
        link.poll(at(0), Duration::ZERO).unwrap();
        let mut server = accept(&mut listener);
        assert!(matches!(
            recv_msg(&mut server),
            Message::Hello {
                node: NodeId(3),
                ..
            }
        ));
        send(&mut server, Message::HelloAck { credit: 5 });
        link.poll(at(0), Duration::from_millis(100)).unwrap();
        assert_eq!(link.credit(), 5);
        send_batch(&mut link, &[rec(1)]);
        send_batch(&mut link, &[rec(2), rec(3)]);
        recv_msg(&mut server);
        recv_msg(&mut server);
        send(&mut server, Message::BatchAck { seq: 1, credit: 5 });
        link.poll(at(1), Duration::from_millis(100)).unwrap();
        assert_eq!(link.window_depth(), 1);

        // The served link dies: the uplink redials at once and replays.
        drop(server);
        link.poll(at(2), Duration::ZERO).unwrap();
        link.poll(at(2), Duration::ZERO).unwrap();
        assert!(link.connected());
        let mut server = accept(&mut listener);
        assert!(matches!(recv_msg(&mut server), Message::Hello { .. }));
        match recv_msg(&mut server) {
            Message::EventBatch { seq, records, .. } => {
                assert_eq!(seq, 2);
                assert_eq!(records.len(), 2);
            }
            other => panic!("expected the replayed batch, got {other:?}"),
        }
        // The old grant paces the link until the new HelloAck replaces it.
        assert_eq!(link.credit(), 5);
        send(
            &mut server,
            Message::HelloAck {
                credit: UNLIMITED_CREDIT,
            },
        );
        link.poll(at(3), Duration::from_millis(100)).unwrap();
        assert_eq!(link.credit(), UNLIMITED_CREDIT);
        let s = stats(&link);
        assert_eq!((s.connects, s.hello_acks), (2, 2));
        assert_eq!((s.batches_sent, s.records_sent), (2, 3));
        assert_eq!(s.batches_retransmitted, 1);
    }

    #[test]
    fn single_link_windows_batches_after_loss_and_reports_it() {
        let t = MemTransport::new();
        let mut listener = t.listen("up").unwrap();
        let mut link = link();
        link.attach(t.connect("up").unwrap(), at(0)).unwrap();
        let server = accept(&mut listener);
        drop(server);
        assert_eq!(link.poll(at(1), Duration::ZERO).unwrap(), LinkEvent::Lost);
        assert!(!link.ready());
        // Counted once, on entering the window, though nothing can send it.
        send_batch(&mut link, &[rec(1), rec(2)]);
        assert_eq!(link.window_depth(), 1);
        assert_eq!(stats(&link).records_sent, 2);
        assert_eq!(link.poll(at(2), Duration::ZERO).unwrap(), LinkEvent::Lost);
    }

    #[test]
    fn sync_poll_without_a_sync_clock_is_answered_with_the_callers_now() {
        let t = MemTransport::new();
        let mut listener = t.listen("up").unwrap();
        let mut link = link();
        link.attach(t.connect("up").unwrap(), at(0)).unwrap();
        let mut server = accept(&mut listener);
        recv_msg(&mut server); // hello
        send(
            &mut server,
            Message::SyncPoll {
                round: 1,
                sample: 0,
                master_send: at(1),
            },
        );
        link.poll(at(7), Duration::from_millis(100)).unwrap();
        match recv_msg(&mut server) {
            Message::SyncReply { slave_time, .. } => assert_eq!(slave_time, at(7)),
            other => panic!("expected a reply, got {other:?}"),
        }
    }
}
