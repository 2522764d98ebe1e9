//! The per-connection half of the ISM's ingest: frame routing, the
//! manager's command and event types, flow accounting and the
//! malformed-frame quarantine.
//!
//! The ISM keeps one long-lived connection per sender, and each gets a
//! *pump* on one of the reactor's shards (`crate::reactor`). The pump (a)
//! decodes incoming event batches and forwards their records to the
//! manager and (b) executes clock-sync poll exchanges on the manager's
//! behalf. Running the poll exchange *at the pump* stamps
//! `t_master_send` / `t_master_recv` right at the socket, keeping manager
//! scheduling delays out of the skew samples.
//!
//! Decoding at the pump is deliberate: the manager is one thread that
//! every record of every node passes through, so each batch is decoded
//! exactly once — validated and materialized in a single pass — on a
//! reactor shard and crosses the manager queue as owned records. The
//! manager only dedups, merges and delivers.

use brisk_clock::{Clock, SkewSample};
use brisk_core::{BriskError, EventRecord, FlowConfig, NodeId, Result, TraceStage, UtcMicros};
use brisk_net::Waker;
use brisk_proto::{Message, UNLIMITED_CREDIT};
use brisk_telemetry::{Counter, Registry};
use crossbeam::channel::{unbounded, Receiver, Sender};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Shared EXS→ISM flow-control state: one instance per server, touched by
/// every pump and by the manager.
///
/// The manager's ingest queue itself stays an unbounded channel (events
/// already read off a socket are never dropped); what is bounded is the
/// number of *records* resident in it. While `queued` exceeds the
/// configured bound, pumps stop reading their sockets — commands from the
/// manager still run, so sync rounds and shutdown cannot deadlock — and
/// TCP backpressure pushes the overload back to the sender, whose credit
/// runs out next.
pub struct FlowState {
    cfg: FlowConfig,
    queued: AtomicU64,
    high_water: AtomicU64,
    deferrals: AtomicU64,
}

impl FlowState {
    /// New shared state for one server.
    pub fn new(cfg: FlowConfig) -> Arc<Self> {
        Arc::new(FlowState {
            cfg,
            queued: AtomicU64::new(0),
            high_water: AtomicU64::new(0),
            deferrals: AtomicU64::new(0),
        })
    }

    /// The per-connection credit budget to grant:
    /// [`UNLIMITED_CREDIT`] when credit flow control is disabled.
    pub fn credit(&self) -> u64 {
        match self.cfg.credit_records {
            0 => UNLIMITED_CREDIT,
            n => n,
        }
    }

    /// Account `n` records entering the manager queue.
    pub fn add(&self, n: u64) {
        let now = self.queued.fetch_add(n, Ordering::Relaxed) + n;
        self.high_water.fetch_max(now, Ordering::Relaxed);
    }

    /// Account `n` records leaving the manager queue.
    pub fn sub(&self, n: u64) {
        self.queued.fetch_sub(n, Ordering::Relaxed);
    }

    /// Records currently queued between the pumps and the manager.
    pub fn queued_records(&self) -> u64 {
        self.queued.load(Ordering::Relaxed)
    }

    /// Highest queue depth (records) observed so far.
    pub fn high_water(&self) -> u64 {
        self.high_water.load(Ordering::Relaxed)
    }

    /// True while pumps should defer socket reads.
    pub fn over_limit(&self) -> bool {
        self.cfg.max_queued_records != 0
            && self.queued_records() > self.cfg.max_queued_records as u64
    }

    /// Count one deferred socket read.
    pub fn note_deferral(&self) {
        self.deferrals.fetch_add(1, Ordering::Relaxed);
    }

    /// Deferred socket reads so far.
    pub fn deferrals(&self) -> u64 {
        self.deferrals.load(Ordering::Relaxed)
    }
}

/// Upper bound on retained malformed-frame samples: enough to diagnose a
/// corruption pattern, small enough never to matter for memory.
pub const MAX_QUARANTINE_SAMPLES: usize = 16;
/// Leading bytes of a malformed frame kept (as hex) per sample.
pub const QUARANTINE_SAMPLE_BYTES: usize = 64;

/// One retained malformed frame (head only), for post-mortem inspection.
#[derive(Clone, Debug)]
pub struct QuarantineSample {
    /// Node whose connection produced the frame.
    pub node: NodeId,
    /// Full length of the offending frame in bytes.
    pub len: usize,
    /// Hex dump of the frame's first [`QUARANTINE_SAMPLE_BYTES`] bytes.
    pub head_hex: String,
    /// Why the frame did not decode.
    pub error: String,
}

/// Shared record of undecodable frames across all pumps.
///
/// A frame that fails [`Message::decode`] is *quarantined*: counted here,
/// sampled (bounded), and otherwise dropped — the connection survives
/// until its per-connection error budget runs out. This keeps one node's
/// corrupted link from taking anything else down while still leaving an
/// audit trail of what arrived.
#[derive(Default)]
pub struct QuarantineLog {
    frames: AtomicU64,
    disconnects: AtomicU64,
    rejected_hellos: AtomicU64,
    samples: Mutex<Vec<QuarantineSample>>,
}

impl QuarantineLog {
    /// New shared log.
    pub fn new() -> Arc<Self> {
        Arc::new(QuarantineLog::default())
    }

    /// Record one undecodable frame.
    pub fn record(&self, node: NodeId, frame: &[u8], error: &str) {
        self.frames.fetch_add(1, Ordering::Relaxed);
        if let Ok(mut samples) = self.samples.lock() {
            if samples.len() < MAX_QUARANTINE_SAMPLES {
                let head = &frame[..frame.len().min(QUARANTINE_SAMPLE_BYTES)];
                let head_hex = head.iter().map(|b| format!("{b:02x}")).collect();
                samples.push(QuarantineSample {
                    node,
                    len: frame.len(),
                    head_hex,
                    error: error.to_string(),
                });
            }
        }
    }

    /// Record one connection dropped for exhausting its error budget.
    pub fn note_disconnect(&self) {
        self.disconnects.fetch_add(1, Ordering::Relaxed);
    }

    /// Total undecodable frames quarantined.
    pub fn frames(&self) -> u64 {
        self.frames.load(Ordering::Relaxed)
    }

    /// Connections dropped for exhausting their error budget.
    pub fn disconnects(&self) -> u64 {
        self.disconnects.load(Ordering::Relaxed)
    }

    /// Record one rejected greeting: a `Hello` whose node id a live
    /// connection already claimed, or a first frame that was no `Hello`
    /// of this protocol version.
    pub fn note_rejected_hello(&self) {
        self.rejected_hellos.fetch_add(1, Ordering::Relaxed);
    }

    /// Greetings rejected so far.
    pub fn rejected_hellos(&self) -> u64 {
        self.rejected_hellos.load(Ordering::Relaxed)
    }

    /// The retained samples (at most [`MAX_QUARANTINE_SAMPLES`]).
    pub fn samples(&self) -> Vec<QuarantineSample> {
        self.samples.lock().map(|s| s.clone()).unwrap_or_default()
    }

    /// Export the quarantine counters.
    pub fn bind_telemetry(self: &Arc<Self>, registry: &Arc<Registry>) {
        let log = Arc::clone(self);
        registry.counter_fn(
            "brisk_ism_quarantined_frames_total",
            "Undecodable frames quarantined by ISM pumps",
            &[],
            move || log.frames(),
        );
        let log = Arc::clone(self);
        registry.counter_fn(
            "brisk_ism_quarantine_disconnects_total",
            "Connections dropped after exhausting their protocol error budget",
            &[],
            move || log.disconnects(),
        );
        let log = Arc::clone(self);
        registry.counter_fn(
            "brisk_ism_rejected_hellos_total",
            "Greetings rejected: a Hello for a node id already served by a live connection, \
             or a first frame that was not a Hello of this protocol version",
            &[],
            move || log.rejected_hellos(),
        );
    }
}

/// Per-connection malformed-frame policy of a pump.
pub struct ProtocolGuard {
    /// Undecodable frames tolerated before the connection is dropped
    /// (0 = drop on the first one).
    pub budget: u32,
    /// Shared log counting and sampling quarantined frames.
    pub log: Option<Arc<QuarantineLog>>,
}

impl Default for ProtocolGuard {
    fn default() -> Self {
        ProtocolGuard {
            budget: 8,
            log: None,
        }
    }
}

/// Process-wide pump identity source. Ids disambiguate pump *instances*
/// serving the same node: when a node reconnects, the manager must not
/// let a late `Disconnected` from the old pump tear down the new one.
static NEXT_PUMP_ID: AtomicU64 = AtomicU64::new(1);

/// Commands the manager sends to a pump.
#[derive(Debug)]
pub enum PumpCommand {
    /// Run a poll exchange of `samples` polls for round `round` and report
    /// a [`PumpEvent::SyncSamples`].
    SyncRound {
        /// Round number.
        round: u64,
        /// Number of poll/reply pairs to collect.
        samples: u32,
    },
    /// Forward a `SyncAdjust` to the slave.
    Adjust {
        /// Round that produced the correction.
        round: u64,
        /// Microseconds the slave should add to its correction value.
        advance_us: i64,
    },
    /// Acknowledge every batch up to `seq`: the manager issues this once
    /// the core accepted (or dedup-dropped) the batch, and the pump turns
    /// it into a wire [`Message::BatchAck`].
    Ack {
        /// Cumulative acknowledged sequence number.
        seq: u64,
        /// Replenished credit budget to piggyback: the maximum number of
        /// unacknowledged records the sender may have in flight from now
        /// on ([`UNLIMITED_CREDIT`] with flow control off).
        credit: u64,
    },
    /// Send `Shutdown` to the slave and exit.
    Shutdown,
}

/// Events pumps send to the manager.
#[derive(Debug)]
pub enum PumpEvent {
    /// A batch of records arrived.
    Batch {
        /// Origin node (the *handshake* identity — the pump rejects
        /// batches whose embedded node disagrees).
        node: NodeId,
        /// Pump instance that received the batch (matches
        /// [`PumpHandle::id`]); acks are routed back through it, never
        /// through whichever handle happens to own the node right now.
        id: u64,
        /// Batch sequence number.
        seq: u64,
        /// The batch's records, decoded once by the pump — on the
        /// session plane, in one validating pass — and already stamped
        /// `PumpRecv` with the socket-side receive time, so the manager
        /// only merges them.
        records: Vec<EventRecord>,
        /// When the pump put this batch on the manager queue; the delay
        /// until the manager acks it is the credit-grant latency.
        enqueued_at: Instant,
    },
    /// A sync round's samples are ready (possibly fewer than requested if
    /// replies timed out).
    SyncSamples {
        /// The slave node.
        node: NodeId,
        /// Round number.
        round: u64,
        /// Collected samples.
        samples: Vec<SkewSample>,
    },
    /// The peer proved liveness with a [`Message::Heartbeat`]: no
    /// payload, no reply — just evidence the EXS is alive, so the
    /// manager's stale-node eviction timer resets.
    Heartbeat {
        /// The node that proved liveness.
        node: NodeId,
        /// Pump instance that received the heartbeat (matches
        /// [`PumpHandle::id`]), so a stale pump's late heartbeat cannot
        /// keep an otherwise-dead node alive.
        id: u64,
    },
    /// The connection ended (orderly or not).
    Disconnected {
        /// The node that went away.
        node: NodeId,
        /// Identity of the pump instance that ended (matches
        /// [`PumpHandle::id`]), so the manager can tell a stale pump's
        /// death from the current one's.
        id: u64,
    },
}

/// Handle the manager holds for one pump.
pub struct PumpHandle {
    /// The node this pump serves.
    pub node: NodeId,
    id: u64,
    cmd_tx: Sender<PumpCommand>,
    /// Kicks the pump's reactor shard out of `poll` after every queued
    /// command, so commands are serviced at once rather than on the next
    /// timeout.
    waker: Waker,
}

impl PumpHandle {
    /// This pump instance's identity (unique across the process).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Send a command; returns `false` if the pump is gone.
    pub fn command(&self, cmd: PumpCommand) -> bool {
        let sent = self.cmd_tx.send(cmd).is_ok();
        if sent {
            self.waker.wake();
        }
        sent
    }
}

/// Build the handle/receiver pair for a pump serving `node`; `waker`
/// rouses the shard that drives it.
pub(crate) fn pump_channel(node: NodeId, waker: Waker) -> (PumpHandle, Receiver<PumpCommand>) {
    let (cmd_tx, cmd_rx) = unbounded();
    let handle = PumpHandle {
        node,
        id: NEXT_PUMP_ID.fetch_add(1, Ordering::Relaxed),
        cmd_tx,
        waker,
    };
    (handle, cmd_rx)
}

/// What [`PumpIo::on_frame`] did with a frame.
pub(crate) enum FrameOutcome {
    /// Fully handled: forwarded to the manager, quarantined, or dropped.
    Consumed,
    /// A `SyncReply` arrived. The reactor owns the sync state machine, so
    /// the reply is surfaced instead of swallowed.
    SyncReply {
        /// Round the reply claims to answer.
        round: u64,
        /// Sample index within the round.
        sample: u32,
        /// The slave's clock reading at reply time.
        slave_time: UtcMicros,
    },
}

/// The connection-independent half of a pump: frame routing, event
/// emission, flow accounting and the malformed-frame quarantine policy.
/// The reactor (`crate::reactor`) owns the connection and the sync state
/// machine around it.
pub(crate) struct PumpIo {
    pub(crate) node: NodeId,
    pub(crate) id: u64,
    pub(crate) clock: Arc<dyn Clock>,
    events: Sender<PumpEvent>,
    enqueued: Option<Arc<Counter>>,
    flow: Arc<FlowState>,
    guard: ProtocolGuard,
    /// Undecodable frames seen on this connection so far.
    errors: u32,
}

impl PumpIo {
    pub(crate) fn new(
        node: NodeId,
        id: u64,
        clock: Arc<dyn Clock>,
        events: Sender<PumpEvent>,
        enqueued: Option<Arc<Counter>>,
        flow: Arc<FlowState>,
        guard: ProtocolGuard,
    ) -> PumpIo {
        PumpIo {
            node,
            id,
            clock,
            events,
            enqueued,
            flow,
            guard,
            errors: 0,
        }
    }

    pub(crate) fn send_event(&self, event: PumpEvent) {
        if self.events.send(event).is_ok() {
            if let Some(c) = &self.enqueued {
                c.inc();
            }
        }
    }

    /// Quarantine one undecodable frame. Returns `true` when the
    /// connection's protocol error budget is exhausted and it must be
    /// dropped — other nodes' connections are never affected.
    fn note_malformed(&mut self, frame: &[u8], error: &brisk_proto::DecodeError) -> bool {
        self.errors += 1;
        brisk_telemetry::flight_log!(
            Warn,
            "ism.pump",
            "quarantine",
            "node {} frame of {} bytes quarantined: {error}",
            self.node,
            frame.len()
        );
        if let Some(log) = &self.guard.log {
            log.record(self.node, frame, &error.to_string());
        }
        if self.errors > self.guard.budget {
            if let Some(log) = &self.guard.log {
                log.note_disconnect();
            }
            brisk_telemetry::flight_log!(
                Error,
                "ism.pump",
                "quarantine_disconnect",
                "node {} dropped after {} undecodable frames (budget {})",
                self.node,
                self.errors,
                self.guard.budget
            );
            return true;
        }
        false
    }

    /// Route one inbound frame. `Err` means the connection is done
    /// (orderly `Shutdown`, a spoofed batch, a protocol violation, or an
    /// exhausted quarantine budget); `Ok` carries what happened.
    ///
    /// Batches are decoded here, once: [`Message::decode`] validates the
    /// whole frame and materializes its records in the same pass, and
    /// the records cross the manager queue ready to merge. Decoding on
    /// the shard rather than the manager spreads that cost over the
    /// reactor pool and keeps the single manager thread — the serial
    /// stage every record passes through — free for merging.
    pub(crate) fn on_frame(&mut self, frame: Vec<u8>) -> Result<FrameOutcome> {
        match Message::decode(&frame) {
            Ok(Message::EventBatch { node, seq, records }) => {
                self.forward_batch(node, seq, records)?;
                Ok(FrameOutcome::Consumed)
            }
            Ok(Message::SyncReply {
                round,
                sample,
                slave_time,
                ..
            }) => Ok(FrameOutcome::SyncReply {
                round,
                sample,
                slave_time,
            }),
            Ok(Message::Heartbeat) => {
                self.send_event(PumpEvent::Heartbeat {
                    node: self.node,
                    id: self.id,
                });
                Ok(FrameOutcome::Consumed)
            }
            Ok(Message::Shutdown) => Err(BriskError::Disconnected),
            Ok(other) => Err(BriskError::Protocol(format!(
                "unexpected message at ISM: {other:?}"
            ))),
            Err(e) => {
                if self.note_malformed(&frame, &e) {
                    Err(BriskError::Disconnected)
                } else {
                    Ok(FrameOutcome::Consumed)
                }
            }
        }
    }

    /// Hand one decoded batch to the manager, after the spoof check.
    fn forward_batch(
        &mut self,
        node: NodeId,
        seq: u64,
        mut records: Vec<EventRecord>,
    ) -> Result<()> {
        // The connection authenticated as `self.node` in the handshake; a
        // batch claiming another origin is spoofed (or a badly confused
        // client) — kill the connection rather than pollute another
        // node's event stream.
        if node != self.node {
            return Err(BriskError::Protocol(format!(
                "batch claims node {node} on a connection that said Hello as {}",
                self.node
            )));
        }
        self.flow.add(records.len() as u64);
        // First ISM-side trace hop, taken right at the socket, so the
        // BatchSend→PumpRecv span is wire + decode time and the manager's
        // queueing shows up in the next span.
        let recv_ts = self.clock.now();
        for rec in records.iter_mut() {
            rec.stamp_trace(TraceStage::PumpRecv, recv_ts);
        }
        self.send_event(PumpEvent::Batch {
            node,
            id: self.id,
            seq,
            records,
            enqueued_at: Instant::now(),
        });
        Ok(())
    }
}
