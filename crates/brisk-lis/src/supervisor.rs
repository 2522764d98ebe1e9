//! Supervised external sensor: automatic reconnection.
//!
//! "An off-the-shelf distributed IS that is robust, portable and flexible
//! would benefit both designers and users" (§1). The plain
//! [`crate::spawn_exs`] terminates when its ISM connection dies; the
//! supervisor keeps the node's instrumentation alive across manager
//! restarts and network blips: it reconnects with exponential backoff,
//! re-sends the `Hello` preamble, and **carries the clock-sync correction
//! value over** to the new incarnation so the node does not fall back to
//! raw, unsynchronized time while the master re-converges.
//!
//! Delivery semantics across an abrupt disconnect (protocol v2): the EXS
//! keeps every sent-but-unacked batch in a bounded retransmit window, the
//! supervisor carries that window into the new incarnation (alongside the
//! clock correction), and the unacked batches are **replayed** right after
//! the re-`Hello` — so nothing handed to the dead connection is lost. The
//! ISM deduplicates replays by `(node, seq)`, making delivery to the sinks
//! exactly-once. Two degraded edges remain: a peer that negotiates the
//! connection down to v1 gets the old fire-and-forget semantics (no acks,
//! no replay), and a retransmit window that overflows (`ExsConfig::
//! retransmit_window_batches` unacked batches outstanding) evicts its
//! oldest batch, which is then beyond replay — both are surfaced through
//! telemetry rather than hidden.

use crate::batch::SendWindow;
use crate::exs::{ExsStats, ExsStep, ExsTelemetry, ExternalSensor};
use brisk_clock::Clock;
use brisk_core::{BriskError, ExsConfig, NodeId, Result};
use brisk_net::Connection;
use brisk_ringbuf::RingSet;
use brisk_telemetry::Registry;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Reconnection policy.
///
/// Backoff uses *decorrelated jitter*: each failed attempt sleeps a
/// uniformly random duration in `[initial_backoff, 3 × previous]`, capped
/// at `max_backoff`. Pure doubling would synchronize the whole fleet —
/// after an ISM restart every node's EXS observes the disconnect in the
/// same instant and would retry on the same deterministic schedule,
/// hammering the recovering manager in lockstep. The jitter spreads
/// those retries; the per-node RNG seed keeps any one node's schedule
/// reproducible.
///
/// The backoff resets to `initial_backoff` only once the ISM answers a
/// `Hello` with a `HelloAck` — a bare TCP connect proves only that
/// something is listening, not that the manager is actually serving
/// (e.g. an accept loop whose manager thread is wedged).
#[derive(Clone, Debug)]
pub struct SupervisorConfig {
    /// First reconnect delay; grows with decorrelated jitter per
    /// consecutive failure.
    pub initial_backoff: Duration,
    /// Backoff ceiling.
    pub max_backoff: Duration,
    /// Give up after this many consecutive failed connection attempts
    /// (`None` = retry forever).
    pub max_consecutive_failures: Option<u32>,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        SupervisorConfig {
            initial_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_secs(5),
            max_consecutive_failures: None,
        }
    }
}

/// Aggregate statistics across all incarnations.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SupervisedStats {
    /// Combined EXS counters.
    pub exs: ExsStats,
    /// How many times a connection was (re-)established.
    pub connects: u64,
    /// How many abrupt disconnects were survived.
    pub reconnects: u64,
}

/// Factory producing a fresh connection to the ISM.
pub type ConnectFn = Box<dyn Fn() -> Result<Box<dyn Connection>> + Send>;

/// Next reconnect delay under decorrelated jitter:
/// `min(max, U(initial, 3 × prev))`. Monotone doubling synchronizes
/// reconnect storms across a fleet that lost its ISM at the same
/// instant; the random draw decorrelates them while keeping the same
/// expected growth rate.
fn next_backoff(rng: &mut StdRng, prev: Duration, sup: &SupervisorConfig) -> Duration {
    let lo = sup.initial_backoff.as_micros() as u64;
    let cap = (sup.max_backoff.as_micros() as u64).max(lo);
    let hi = (prev.as_micros() as u64).saturating_mul(3).clamp(lo, cap);
    Duration::from_micros(rng.gen_range(lo..=hi))
}

/// Handle to a supervised EXS.
pub struct SupervisedExsHandle {
    stop: Arc<AtomicBool>,
    connects: Arc<AtomicU64>,
    node: NodeId,
    shared: Arc<ExsTelemetry>,
    join: std::thread::JoinHandle<Result<SupervisedStats>>,
}

impl SupervisedExsHandle {
    /// Connections established so far (1 = never reconnected).
    pub fn connects(&self) -> u64 {
        self.connects.load(Ordering::Relaxed)
    }

    /// Live aggregate counters across all incarnations so far.
    pub fn stats_now(&self) -> SupervisedStats {
        let connects = self.connects.load(Ordering::Relaxed);
        SupervisedStats {
            exs: self.shared.stats(),
            connects,
            reconnects: connects.saturating_sub(1),
        }
    }

    /// Register this supervised EXS with a telemetry registry: all the
    /// per-incarnation EXS series (shared across restarts) plus
    /// `brisk_exs_connects_total` and `brisk_exs_reconnects_total`.
    pub fn bind_telemetry(&self, registry: &Registry) {
        self.shared.bind(self.node, registry);
        let n = self.node.0.to_string();
        let c = Arc::clone(&self.connects);
        registry.counter_fn(
            "brisk_exs_connects_total",
            "ISM connections established by the supervised EXS",
            &[("node", &n)],
            move || c.load(Ordering::Relaxed),
        );
        let c = Arc::clone(&self.connects);
        registry.counter_fn(
            "brisk_exs_reconnects_total",
            "Supervisor restarts after an abrupt disconnect",
            &[("node", &n)],
            move || c.load(Ordering::Relaxed).saturating_sub(1),
        );
    }

    /// Signal and wait; returns aggregate stats.
    pub fn stop(self) -> Result<SupervisedStats> {
        self.stop.store(true, Ordering::Relaxed);
        self.join
            .join()
            .map_err(|_| BriskError::Sync("supervised EXS thread panicked".into()))?
    }
}

/// Spawn a supervised EXS. `connect` is invoked for the initial connection
/// and after every disconnect.
pub fn spawn_exs_supervised(
    node: NodeId,
    rings: Arc<RingSet>,
    raw_clock: Arc<dyn Clock>,
    connect: ConnectFn,
    cfg: ExsConfig,
    sup: SupervisorConfig,
) -> Result<SupervisedExsHandle> {
    cfg.validate()?;
    let stop = Arc::new(AtomicBool::new(false));
    let connects = Arc::new(AtomicU64::new(0));
    let shared = Arc::new(ExsTelemetry::default());
    let stop2 = Arc::clone(&stop);
    let connects2 = Arc::clone(&connects);
    let shared2 = Arc::clone(&shared);
    let join = std::thread::Builder::new()
        .name(format!("brisk-exs-sup-{node}"))
        .spawn(move || {
            supervise(
                node, rings, raw_clock, connect, cfg, sup, stop2, connects2, shared2,
            )
        })
        .map_err(BriskError::Io)?;
    Ok(SupervisedExsHandle {
        stop,
        connects,
        node,
        shared,
        join,
    })
}

#[allow(clippy::too_many_arguments)]
fn supervise(
    node: NodeId,
    rings: Arc<RingSet>,
    raw_clock: Arc<dyn Clock>,
    connect: ConnectFn,
    cfg: ExsConfig,
    sup: SupervisorConfig,
    stop: Arc<AtomicBool>,
    connects: Arc<AtomicU64>,
    shared: Arc<ExsTelemetry>,
) -> Result<SupervisedStats> {
    // Every incarnation accumulates into the one shared telemetry
    // backing, so EXS counters are totals across restarts and a bound
    // registry keeps observing the live EXS through reconnects.
    let mut stats = SupervisedStats::default();
    // Correction value survives reconnects.
    let carried_correction = AtomicI64::new(0);
    // Retransmit window survives reconnects too: unacked batches in here
    // are replayed on the next connection. `None` once the peer negotiates
    // down to v1 (or before the first connection).
    let mut carried_window: Option<SendWindow> = None;
    // The last credit grant also carries over, so the gap between the
    // reconnect's Hello and the new HelloAck stays paced by the old
    // budget instead of allowing an unbounded burst. The new HelloAck
    // overwrites it authoritatively.
    let mut carried_credit: Option<u64> = None;
    let mut backoff = sup.initial_backoff;
    let mut consecutive_failures = 0u32;
    // Per-node jitter stream: nodes decorrelate from each other while one
    // node's retry schedule stays reproducible.
    let mut rng = StdRng::seed_from_u64(0x9e37_79b9_7f4a_7c15 ^ u64::from(node.0));

    /// How one incarnation ended.
    enum IncarnationEnd {
        /// Orderly stop (local stop flag, or an ISM `Shutdown` that is not
        /// a reconnect's rejected Hello): exit for good.
        Stop,
        /// Abrupt disconnect: reconnect, replaying the carried window.
        Reconnect(Option<SendWindow>),
        /// Unrecoverable error.
        Fatal(BriskError),
    }

    /// Sleep `d` in small slices, bailing early when `stop` is raised;
    /// returns `true` if the stop flag cut the sleep short.
    fn sleep_interruptible(stop: &AtomicBool, d: Duration) -> bool {
        let deadline = std::time::Instant::now() + d;
        while std::time::Instant::now() < deadline {
            if stop.load(Ordering::Relaxed) {
                return true;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        false
    }

    'lifetime: while !stop.load(Ordering::Relaxed) {
        // Snapshot before the attempt: only a *grown* count after the
        // incarnation proves the ISM answered this connection's Hello.
        let acks_before = shared.hello_acks();
        // Establish (or re-establish) the connection.
        let attempt = connect().and_then(|conn| {
            match carried_window.take() {
                // Carry the retransmit window over; `with_window` replays the
                // unacked batches right after the Hello preamble.
                Some(w) => ExternalSensor::with_window(
                    node,
                    Arc::clone(&rings),
                    Arc::clone(&raw_clock),
                    conn,
                    cfg.clone(),
                    Arc::clone(&shared),
                    w.clone(),
                )
                .map_err(|e| (e, Some(w))),
                None => ExternalSensor::with_telemetry(
                    node,
                    Arc::clone(&rings),
                    Arc::clone(&raw_clock),
                    conn,
                    cfg.clone(),
                    Arc::clone(&shared),
                )
                .map_err(|e| (e, None)),
            } // a failed handshake/replay must not lose the window
            .map_err(|(e, w)| {
                carried_window = w;
                e
            })
        });
        let mut exs = match attempt {
            Ok(exs) => exs,
            Err(e) if e.is_disconnect() || matches!(e, BriskError::Io(_)) => {
                consecutive_failures += 1;
                if let Some(max) = sup.max_consecutive_failures {
                    if consecutive_failures >= max {
                        return Err(BriskError::Io(std::io::Error::new(
                            std::io::ErrorKind::ConnectionRefused,
                            format!("gave up after {consecutive_failures} attempts"),
                        )));
                    }
                }
                // Interruptible backoff.
                if sleep_interruptible(&stop, backoff) {
                    break 'lifetime;
                }
                backoff = next_backoff(&mut rng, backoff, &sup);
                continue;
            }
            Err(e) => return Err(e),
        };
        // A successful TCP connect proves only that *something* is listening
        // on the port; the backoff resets further down, once the incarnation
        // shows a HelloAck arrived.
        consecutive_failures = 0;
        exs.set_credit(carried_credit);
        exs.corrected_clock()
            .set_correction(carried_correction.load(Ordering::Relaxed));
        connects.fetch_add(1, Ordering::Relaxed);
        stats.connects += 1;
        if stats.connects > 1 {
            stats.reconnects += 1;
            brisk_telemetry::flight_log!(
                Warn,
                "exs.supervisor",
                "reconnect",
                "node {node} reconnected to ISM (incarnation {}, replaying window)",
                stats.connects
            );
        }

        // Drive the incarnation.
        let end = loop {
            if stop.load(Ordering::Relaxed) {
                // Orderly stop: flush and exit for good.
                carried_correction.store(exs.corrected_clock().correction_us(), Ordering::Relaxed);
                // A connection that dies during the final flush is fine;
                // the counters land in `shared` either way.
                let _ = exs.finish();
                break IncarnationEnd::Stop;
            }
            match exs.step() {
                Ok(ExsStep::Shutdown) if acks_before > 0 && shared.hello_acks() == acks_before => {
                    // A reconnect's Hello answered with Shutdown before
                    // any HelloAck: the ISM still holds this node's
                    // previous connection — it has not yet noticed that
                    // link die — and rejected the Hello as a duplicate.
                    // Retry after a backoff instead of stopping for good;
                    // the unacked window replays on the next connection.
                    carried_correction
                        .store(exs.corrected_clock().correction_us(), Ordering::Relaxed);
                    carried_credit = exs.credit();
                    break IncarnationEnd::Reconnect(exs.into_window());
                }
                Ok(ExsStep::Shutdown) => {
                    // The ISM asked us to stop — honour it, do not reconnect.
                    carried_correction
                        .store(exs.corrected_clock().correction_us(), Ordering::Relaxed);
                    let _ = exs.finish();
                    break IncarnationEnd::Stop;
                }
                Ok(ExsStep::Disconnected) => {
                    carried_correction
                        .store(exs.corrected_clock().correction_us(), Ordering::Relaxed);
                    carried_credit = exs.credit();
                    break IncarnationEnd::Reconnect(exs.into_window());
                }
                Ok(_) => {}
                Err(e) if e.is_disconnect() => {
                    carried_correction
                        .store(exs.corrected_clock().correction_us(), Ordering::Relaxed);
                    carried_credit = exs.credit();
                    break IncarnationEnd::Reconnect(exs.into_window());
                }
                Err(e) => break IncarnationEnd::Fatal(e),
            }
        };
        match end {
            IncarnationEnd::Stop => break 'lifetime,
            IncarnationEnd::Reconnect(w) => {
                carried_window = w;
                if shared.hello_acks() > acks_before {
                    // The ISM answered our Hello, so the link genuinely
                    // worked this incarnation: start the next retry gently.
                    backoff = sup.initial_backoff;
                } else {
                    // Connected but died before the handshake completed —
                    // the ISM is up yet unhealthy (or a fault plane is
                    // chewing the preamble). Treat it like a connect
                    // failure: pause, then widen the retry window. It does
                    // not count toward `max_consecutive_failures`, which
                    // tracks hard connect refusals only.
                    if sleep_interruptible(&stop, backoff) {
                        break 'lifetime;
                    }
                    backoff = next_backoff(&mut rng, backoff, &sup);
                }
            }
            IncarnationEnd::Fatal(e) => return Err(e),
        }
    }
    stats.exs = shared.stats();
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use brisk_clock::SystemClock;
    use brisk_core::{EventTypeId, UtcMicros, Value};
    use brisk_net::{MemTransport, Transport};
    use brisk_proto::Message;

    /// A hand-rolled "ISM" that accepts connections one at a time and can
    /// kill them, counting the records received across connections.
    fn recv_records(
        conn: &mut Box<dyn Connection>,
        budget: Duration,
    ) -> (usize, bool /* disconnected */) {
        let deadline = std::time::Instant::now() + budget;
        let mut n = 0;
        while std::time::Instant::now() < deadline {
            match conn.recv(Some(Duration::from_millis(10))) {
                Ok(Some(frame)) => {
                    if let Ok(Message::EventBatch { records, .. }) = Message::decode(&frame) {
                        n += records.len();
                    }
                }
                Ok(None) => {}
                Err(_) => return (n, true),
            }
        }
        (n, false)
    }

    #[test]
    fn survives_server_side_disconnect() {
        let t = MemTransport::new();
        let mut listener = t.listen("ism").unwrap();
        let rings = RingSet::new(NodeId(1), 1 << 20);
        let mut port = rings.register();
        let t2 = Arc::clone(&t);
        let handle = spawn_exs_supervised(
            NodeId(1),
            Arc::clone(&rings),
            Arc::new(SystemClock),
            Box::new(move || t2.connect("ism")),
            ExsConfig {
                flush_timeout: Duration::from_millis(5),
                ..ExsConfig::default()
            },
            SupervisorConfig::default(),
        )
        .unwrap();

        // First connection: receive some records, then kill it.
        let mut conn1 = listener
            .accept(Some(Duration::from_secs(5)))
            .unwrap()
            .unwrap();
        for i in 0..50 {
            port.emit(EventTypeId(1), UtcMicros::now(), vec![Value::I32(i)])
                .unwrap();
        }
        let (got1, _) = recv_records(&mut conn1, Duration::from_millis(300));
        assert!(got1 > 0, "first connection must carry records");
        drop(conn1); // abrupt server-side disconnect

        // The supervisor must reconnect…
        let mut conn2 = listener
            .accept(Some(Duration::from_secs(5)))
            .unwrap()
            .unwrap();
        // …re-send Hello…
        let frame = conn2.recv(Some(Duration::from_secs(1))).unwrap().unwrap();
        assert!(matches!(
            Message::decode(&frame).unwrap(),
            Message::Hello {
                node: NodeId(1),
                ..
            }
        ));
        // …and keep delivering new records.
        for i in 50..80 {
            port.emit(EventTypeId(1), UtcMicros::now(), vec![Value::I32(i)])
                .unwrap();
        }
        let (got2, _) = recv_records(&mut conn2, Duration::from_millis(300));
        assert!(got2 > 0, "records must flow on the new connection");

        assert_eq!(handle.connects(), 2);
        let stats = handle.stop().unwrap();
        assert_eq!(stats.connects, 2);
        assert_eq!(stats.reconnects, 1);
    }

    #[test]
    fn correction_value_carries_across_reconnect() {
        let t = MemTransport::new();
        let mut listener = t.listen("ism").unwrap();
        let rings = RingSet::new(NodeId(1), 1 << 20);
        let t2 = Arc::clone(&t);
        let handle = spawn_exs_supervised(
            NodeId(1),
            rings,
            Arc::new(SystemClock),
            Box::new(move || t2.connect("ism")),
            ExsConfig::default(),
            SupervisorConfig::default(),
        )
        .unwrap();

        let mut conn1 = listener
            .accept(Some(Duration::from_secs(5)))
            .unwrap()
            .unwrap();
        let _hello = conn1.recv(Some(Duration::from_secs(1))).unwrap().unwrap();
        // Adjust the slave's correction, then kill the connection.
        conn1
            .send(
                &Message::SyncAdjust {
                    round: 1,
                    advance_us: 12_345,
                }
                .encode(),
            )
            .unwrap();
        std::thread::sleep(Duration::from_millis(50));
        drop(conn1);

        let mut conn2 = listener
            .accept(Some(Duration::from_secs(5)))
            .unwrap()
            .unwrap();
        let _hello = conn2.recv(Some(Duration::from_secs(1))).unwrap().unwrap();
        // Poll the new incarnation: its reply must include the carried
        // correction (clock reads now + 12_345 ± scheduling slack).
        let before = UtcMicros::now();
        conn2
            .send(
                &Message::SyncPoll {
                    round: 2,
                    sample: 0,
                    master_send: before,
                }
                .encode(),
            )
            .unwrap();
        let reply = loop {
            let frame = conn2.recv(Some(Duration::from_secs(1))).unwrap().unwrap();
            if let Message::SyncReply { slave_time, .. } = Message::decode(&frame).unwrap() {
                break slave_time;
            }
        };
        let skew = reply.micros_since(UtcMicros::now());
        assert!(
            (8_000..=12_345).contains(&skew),
            "slave clock must be ~12.3 ms ahead (carried correction), got {skew}"
        );
        handle.stop().unwrap();
    }

    #[test]
    fn gives_up_after_max_failures() {
        let rings = RingSet::new(NodeId(1), 1 << 20);
        let handle = spawn_exs_supervised(
            NodeId(1),
            rings,
            Arc::new(SystemClock),
            Box::new(|| {
                Err(BriskError::Io(std::io::Error::new(
                    std::io::ErrorKind::ConnectionRefused,
                    "nobody home",
                )))
            }),
            ExsConfig::default(),
            SupervisorConfig {
                initial_backoff: Duration::from_millis(1),
                max_backoff: Duration::from_millis(2),
                max_consecutive_failures: Some(3),
            },
        )
        .unwrap();
        // Give the thread time to burn its three attempts (1 + 2 ms
        // backoff) before asking it to stop.
        std::thread::sleep(Duration::from_millis(200));
        let err = handle.stop().unwrap_err();
        assert!(err.to_string().contains("gave up"));
    }

    #[test]
    fn next_backoff_is_bounded_and_deterministic() {
        let sup = SupervisorConfig {
            initial_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_millis(100),
            max_consecutive_failures: None,
        };
        let mut rng = StdRng::seed_from_u64(42);
        let mut prev = sup.initial_backoff;
        for _ in 0..1000 {
            let next = next_backoff(&mut rng, prev, &sup);
            assert!(next >= sup.initial_backoff, "below floor: {next:?}");
            assert!(next <= sup.max_backoff, "above cap: {next:?}");
            assert!(
                next <= (prev * 3).max(sup.initial_backoff),
                "grew faster than 3×: {prev:?} → {next:?}"
            );
            prev = next;
        }
        // Same seed → identical sequence, so a flaky reconnect storm can be
        // replayed exactly.
        let (mut a, mut b) = (StdRng::seed_from_u64(7), StdRng::seed_from_u64(7));
        let (mut pa, mut pb) = (sup.initial_backoff, sup.initial_backoff);
        for _ in 0..64 {
            pa = next_backoff(&mut a, pa, &sup);
            pb = next_backoff(&mut b, pb, &sup);
            assert_eq!(pa, pb);
        }
    }

    #[test]
    fn backoff_resets_only_after_hello_ack() {
        // Two supervised runs against hand-rolled ISMs that kill every
        // connection shortly after accepting it. The only difference: one
        // acknowledges the Hello first. With a large initial backoff the
        // no-ack run must pay the backoff between incarnations, while the
        // acked run reconnects promptly each time.
        fn run(ack: bool) -> Duration {
            let t = MemTransport::new();
            let mut listener = t.listen("ism").unwrap();
            let rings = RingSet::new(NodeId(1), 1 << 20);
            let t2 = Arc::clone(&t);
            let handle = spawn_exs_supervised(
                NodeId(1),
                rings,
                Arc::new(SystemClock),
                Box::new(move || t2.connect("ism")),
                ExsConfig::default(),
                SupervisorConfig {
                    initial_backoff: Duration::from_millis(250),
                    max_backoff: Duration::from_secs(2),
                    max_consecutive_failures: None,
                },
            )
            .unwrap();
            let start = std::time::Instant::now();
            for _ in 0..2 {
                let mut conn = listener
                    .accept(Some(Duration::from_secs(10)))
                    .unwrap()
                    .unwrap();
                let _hello = conn.recv(Some(Duration::from_secs(1))).unwrap().unwrap();
                if ack {
                    conn.send(
                        &Message::HelloAck {
                            version: 3,
                            credit: None,
                        }
                        .encode(),
                    )
                    .unwrap();
                    // Give the EXS a step to process the ack before the kill.
                    std::thread::sleep(Duration::from_millis(50));
                }
                drop(conn);
            }
            let _conn3 = listener
                .accept(Some(Duration::from_secs(10)))
                .unwrap()
                .unwrap();
            let elapsed = start.elapsed();
            handle.stop().ok();
            elapsed
        }
        let with_ack = run(true);
        let without_ack = run(false);
        // No HelloAck → two backoff pauses of ≥ 250 ms each before the
        // third connection shows up.
        assert!(
            without_ack >= Duration::from_millis(450),
            "pre-ack deaths must keep (and grow) the backoff, got {without_ack:?}"
        );
        assert!(
            with_ack < without_ack,
            "acked incarnations must reconnect faster ({with_ack:?} vs {without_ack:?})"
        );
    }

    #[test]
    fn reconnect_rejected_as_duplicate_hello_is_retried() {
        let t = MemTransport::new();
        let mut listener = t.listen("ism").unwrap();
        let rings = RingSet::new(NodeId(1), 1 << 20);
        let mut port = rings.register();
        let t2 = Arc::clone(&t);
        let handle = spawn_exs_supervised(
            NodeId(1),
            rings,
            Arc::new(SystemClock),
            Box::new(move || t2.connect("ism")),
            ExsConfig {
                flush_timeout: Duration::from_millis(1),
                ..ExsConfig::default()
            },
            SupervisorConfig {
                initial_backoff: Duration::from_millis(1),
                max_backoff: Duration::from_millis(5),
                max_consecutive_failures: None,
            },
        )
        .unwrap();
        let accept = |l: &mut Box<dyn brisk_net::Listener>| {
            l.accept(Some(Duration::from_secs(5))).unwrap().unwrap()
        };
        let ack = Message::HelloAck {
            version: brisk_proto::VERSION,
            credit: None,
        }
        .encode();
        // Incarnation 1 handshakes, then its link dies abruptly.
        let mut conn = accept(&mut listener);
        let _hello = conn.recv(Some(Duration::from_secs(1))).unwrap().unwrap();
        conn.send(&ack).unwrap();
        port.emit(EventTypeId(1), UtcMicros::now(), vec![Value::U32(7)])
            .unwrap();
        let (n, _) = recv_records(&mut conn, Duration::from_millis(200));
        assert_eq!(n, 1);
        drop(conn);
        // Incarnation 2's Hello is rejected as a duplicate (the ISM still
        // holds the dead link): Shutdown before any HelloAck.
        let mut conn = accept(&mut listener);
        let _hello = conn.recv(Some(Duration::from_secs(1))).unwrap().unwrap();
        conn.send(&Message::Shutdown.encode()).unwrap();
        // The node must come back, not stop for good, and replay its
        // unacked window.
        let mut conn = accept(&mut listener);
        let _hello = conn.recv(Some(Duration::from_secs(1))).unwrap().unwrap();
        conn.send(&ack).unwrap();
        let (n, _) = recv_records(&mut conn, Duration::from_millis(200));
        assert_eq!(n, 1, "the unacked record replays on the third link");
        let stats = handle.stop().unwrap();
        assert_eq!(stats.connects, 3);
    }

    #[test]
    fn orderly_ism_shutdown_is_honoured_not_retried() {
        let t = MemTransport::new();
        let mut listener = t.listen("ism").unwrap();
        let rings = RingSet::new(NodeId(1), 1 << 20);
        let t2 = Arc::clone(&t);
        let handle = spawn_exs_supervised(
            NodeId(1),
            rings,
            Arc::new(SystemClock),
            Box::new(move || t2.connect("ism")),
            ExsConfig::default(),
            SupervisorConfig::default(),
        )
        .unwrap();
        let mut conn = listener
            .accept(Some(Duration::from_secs(5)))
            .unwrap()
            .unwrap();
        let _hello = conn.recv(Some(Duration::from_secs(1))).unwrap().unwrap();
        conn.send(&Message::Shutdown.encode()).unwrap();
        // The supervisor must exit on its own, without a reconnect attempt.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while handle.connects() < 1 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        std::thread::sleep(Duration::from_millis(100));
        assert!(
            listener
                .accept(Some(Duration::from_millis(100)))
                .unwrap()
                .is_none(),
            "no reconnect after an orderly shutdown"
        );
        let stats = handle.stop().unwrap();
        assert_eq!(stats.connects, 1);
        assert_eq!(stats.reconnects, 0);
    }
}
