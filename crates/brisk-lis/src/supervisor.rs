//! Supervised external sensor: an EXS whose uplink redials.
//!
//! "An off-the-shelf distributed IS that is robust, portable and flexible
//! would benefit both designers and users" (§1). The plain
//! [`crate::spawn_exs`] stops when its one ISM connection dies; a
//! supervised EXS keeps the node's instrumentation alive across manager
//! restarts and network blips. It is the same [`ExternalSensor`], built
//! with an [`Uplink`](crate::uplink::Uplink) that dials through a
//! [`ConnectFn`] and redials after every lost connection under the
//! [`Backoff`] policy.
//!
//! Nothing has to be carried from one connection to the next, because the
//! EXS and its uplink outlive them: the clock-sync correction value, the
//! last credit grant, the batcher and the retransmit window all stay put.
//! After each reconnect's `Hello` the uplink replays every unacked batch,
//! and the ISM deduplicates replays by `(node, seq)`, so delivery to the
//! sinks is exactly-once. While the link is down the EXS leaves new
//! records in the rings. A retransmit window that overflows
//! (`ExsConfig::retransmit_window_batches` unacked batches outstanding)
//! evicts its oldest batch, which is then beyond replay; that loss is
//! counted in telemetry rather than hidden.
//!
//! An ISM `Shutdown` is an orderly stop, except when it answers a
//! reconnect's `Hello` before any `HelloAck`: then the ISM still holds the
//! node's previous connection and rejected the `Hello` as a duplicate, and
//! the EXS backs off and redials.

use crate::exs::{ExsHandle, ExsStats, ExternalSensor};
use crate::uplink::{Backoff, ConnectFn};
use brisk_clock::Clock;
use brisk_core::{ExsConfig, NodeId, Result};
use brisk_ringbuf::RingSet;
use brisk_telemetry::Registry;
use std::sync::Arc;
use std::time::Duration;

/// Reconnection policy of a supervised EXS.
#[derive(Clone, Debug)]
pub struct SupervisorConfig {
    /// Delay between attempts (decorrelated jitter, reset by a
    /// `HelloAck`).
    pub backoff: Backoff,
    /// Give up after this many consecutive failed connection attempts
    /// (`None` = retry forever).
    pub max_consecutive_failures: Option<u32>,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        SupervisorConfig {
            backoff: Backoff {
                initial: Duration::from_millis(10),
                max: Duration::from_secs(5),
            },
            max_consecutive_failures: None,
        }
    }
}

/// Aggregate statistics across all connections.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SupervisedStats {
    /// EXS counters.
    pub exs: ExsStats,
    /// How many times a connection was (re-)established.
    pub connects: u64,
    /// How many lost connections were replaced.
    pub reconnects: u64,
}

/// Handle to a supervised EXS.
pub struct SupervisedExsHandle(ExsHandle);

impl SupervisedExsHandle {
    /// Connections established so far (1 = never reconnected).
    pub fn connects(&self) -> u64 {
        self.0.telemetry().link().stats().connects
    }

    /// Register this supervised EXS with a telemetry registry: all the
    /// EXS series plus `brisk_exs_connects_total` and
    /// `brisk_exs_reconnects_total`.
    pub fn bind_telemetry(&self, registry: &Registry) {
        self.0.bind_telemetry(registry);
        let n = self.0.node().0.to_string();
        let link = Arc::clone(self.0.telemetry().link());
        registry.counter_fn(
            "brisk_exs_connects_total",
            "ISM connections established by the supervised EXS",
            &[("node", &n)],
            move || link.stats().connects,
        );
        let link = Arc::clone(self.0.telemetry().link());
        registry.counter_fn(
            "brisk_exs_reconnects_total",
            "Supervisor restarts after an abrupt disconnect",
            &[("node", &n)],
            move || link.stats().connects.saturating_sub(1),
        );
    }

    /// Signal and wait; returns aggregate stats.
    pub fn stop(self) -> Result<SupervisedStats> {
        let link = Arc::clone(self.0.telemetry().link());
        let exs = self.0.stop()?;
        let connects = link.stats().connects;
        Ok(SupervisedStats {
            exs,
            connects,
            reconnects: connects.saturating_sub(1),
        })
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
    let exs = ExternalSensor::with_link(node, rings, raw_clock, cfg, |link| {
        link.redial(connect, sup.backoff, sup.max_consecutive_failures)
    })?;
    ExsHandle::spawn(exs).map(SupervisedExsHandle)
}

#[cfg(test)]
mod tests {
    use super::*;
    use brisk_clock::SystemClock;
    use brisk_core::{BriskError, EventTypeId, UtcMicros, Value};
    use brisk_net::{Connection, MemTransport, Transport};
    use brisk_proto::{Message, UNLIMITED_CREDIT};

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
                backoff: Backoff {
                    initial: Duration::from_millis(1),
                    max: Duration::from_millis(2),
                },
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
                    backoff: Backoff {
                        initial: Duration::from_millis(250),
                        max: Duration::from_secs(2),
                    },
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
                            credit: UNLIMITED_CREDIT,
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
                backoff: Backoff {
                    initial: Duration::from_millis(1),
                    max: Duration::from_millis(5),
                },
                max_consecutive_failures: None,
            },
        )
        .unwrap();
        let accept = |l: &mut Box<dyn brisk_net::Listener>| {
            l.accept(Some(Duration::from_secs(5))).unwrap().unwrap()
        };
        let ack = Message::HelloAck {
            credit: UNLIMITED_CREDIT,
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

    #[test]
    fn records_sent_equals_records_drained_across_a_mid_stream_kill() {
        // Every drained record is counted as sent exactly once, when its
        // batch enters the window: batches windowed around the kill and
        // replayed on the next link must not fall out of the count.
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
                max_batch_records: 4,
                flush_timeout: Duration::from_millis(1),
                ..ExsConfig::default()
            },
            SupervisorConfig::default(),
        )
        .unwrap();
        let ack = |conn: &mut Box<dyn Connection>| {
            let ack = Message::HelloAck {
                credit: UNLIMITED_CREDIT,
            };
            conn.send(&ack.encode()).unwrap();
        };
        let mut conn = listener
            .accept(Some(Duration::from_secs(5)))
            .unwrap()
            .unwrap();
        let _hello = conn.recv(Some(Duration::from_secs(1))).unwrap().unwrap();
        ack(&mut conn);
        for i in 0..40 {
            port.emit(EventTypeId(1), UtcMicros::now(), vec![Value::I32(i)])
                .unwrap();
        }
        let (got, _) = recv_records(&mut conn, Duration::from_millis(300));
        assert!(got > 0);
        drop(conn); // unacked: everything replays on the next link
        for i in 40..60 {
            port.emit(EventTypeId(1), UtcMicros::now(), vec![Value::I32(i)])
                .unwrap();
        }
        let mut conn = listener
            .accept(Some(Duration::from_secs(5)))
            .unwrap()
            .unwrap();
        let _hello = conn.recv(Some(Duration::from_secs(1))).unwrap().unwrap();
        ack(&mut conn);
        let mut seen = std::collections::BTreeSet::new();
        let mut last_seq = 0;
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while seen.len() < 60 && std::time::Instant::now() < deadline {
            if let Some(frame) = conn.recv(Some(Duration::from_millis(10))).unwrap() {
                if let Ok(Message::EventBatch { seq, records, .. }) = Message::decode(&frame) {
                    last_seq = last_seq.max(seq);
                    seen.extend(records.iter().map(|r| r.seq));
                }
            }
        }
        assert_eq!(seen.len(), 60, "every record arrives on the second link");
        conn.send(
            &Message::BatchAck {
                seq: last_seq,
                credit: UNLIMITED_CREDIT,
            }
            .encode(),
        )
        .unwrap();
        let stats = handle.stop().unwrap();
        assert_eq!(stats.connects, 2);
        assert_eq!(stats.exs.records_drained, 60);
        assert_eq!(stats.exs.records_sent, stats.exs.records_drained);
        assert!(stats.exs.batches_retransmitted >= 1);
    }
}
